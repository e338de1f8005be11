"""One pipeline call in a fresh interpreter, timed from the inside.

Usage (by run.py): python3 perfbench/child.py '<job json>'

The job names the workload, seed, output directory and result file.  The
process imports nydmap (and with it numpy and scipy), builds the
ExperimentConfig and records the monotonic clock just before the pipeline
call; run.py subtracts the time it launched the interpreter to get the
set-up time.  Nothing is warmed up first: first-call BLAS and LAPACK costs
are part of what a CLI user waits for.  With ``setup_only`` the process
stops at the call.  With ``trace`` the layer functions are wrapped first
and the spans are written with the result.
"""

import json
import resource
import sys
import time


def peak_rss_kb():
    """High-water resident set of this process, in KiB.

    /proc's VmHWM belongs to the memory map created at exec.  ru_maxrss
    can also carry the launching process's resident set across the exec,
    which would charge the benchmark's own memory to the pipeline.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    job = json.loads(sys.argv[1])
    from nydmap.runner import ExperimentConfig, compare_methods, run_experiment

    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]]
    config = ExperimentConfig(
        **workload.config_fields(job["seed"], job["smoke"], job["output_dir"])
    )
    entry = compare_methods if workload.entry == "compare" else run_experiment
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    call_monotonic = time.monotonic()
    result = {"call_monotonic": call_monotonic}
    if not job["setup_only"]:
        start = time.perf_counter()
        entry(config)
        end = time.perf_counter()
        result.update(
            wall_s=end - start,
            call_perf=start,
            return_perf=end,
            peak_rss_kb=peak_rss_kb(),
        )
        if tracer is not None:
            result["spans"] = tracer.spans
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
