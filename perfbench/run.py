"""nydmap benchmark: pipeline wall time, set-up time and memory, plus a traced
per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload rp-stream-6k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1

Each pipeline call runs in a fresh interpreter (child.py) that calls the
entry point the CLI calls, ``run_experiment`` or ``compare_methods``, with
an ExperimentConfig whose seed is ``--seed``.  Calls run one at a time (a
closed loop with one client) until ``--seconds`` of call time has passed;
every call's outputs are then checked, untimed.  All calls of a run use
the same seed, so they must also produce the same digest.  With
``--trace 0`` the run adds set-up-only launches and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced calls and
reports the per-layer metrics.  ``--smoke`` shrinks every workload to
n = 500.  The last line of standard output is one JSON object.
NOTES.md says why each workload and metric exists.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYER_UNITS, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")

CHILD_TIMEOUT_S = 150
SETUP_PROBES = 4

# OpenBLAS's own threads are the only concurrency; keep them at most nproc.
# Set before numpy is first imported, so the reference solve obeys it too.
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

sys.path.insert(0, SRC)

import machine  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ACCURACY_METRICS = ("eig_rel_err.rp", "emb_rel_err.rp", "eig_rel_err.cols", "emb_rel_err.cols")


def _median(values):
    return statistics.median(values) if values else None


def _dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


class Run:
    """One benchmark run: a workload at one seed, its calls and their checks."""

    def __init__(self, workload, seed, seconds, trace, smoke):
        # checks imports nydmap, which only exists once main() found src/.
        import checks

        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        tag = f"{workload.name}-s{seed}" + ("-smoke" if smoke else "") + ("-trace" if trace else "")
        self.dir = os.path.join(WORK, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.fields = workload.config_fields(seed, smoke, "")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        self.calls = []
        self.spans = []
        self._reference = None
        self._digest = None

    def reference(self):
        if self._reference is None:
            self._reference = self.checks.reference(self.fields, os.path.join(WORK, "refcache"))
        return self._reference

    def launch(self, kind):
        index = len(self.calls)
        call_dir = os.path.join(self.dir, f"call-{index}")
        out_dir = os.path.join(call_dir, "out")
        os.makedirs(call_dir)
        job = {
            "workload": self.workload.name,
            "seed": self.seed,
            "smoke": self.smoke,
            "output_dir": out_dir,
            "result": os.path.join(call_dir, "result.json"),
            "trace": kind == "traced",
            "setup_only": kind == "setup",
            "run_id": f"{os.path.basename(self.dir)}/call-{index}",
        }
        call = {"kind": kind, "ok": False, "problems": []}
        self.calls.append(call)
        with open(os.path.join(call_dir, "child.log"), "wb") as log:
            launched = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, CHILD, json.dumps(job)],
                    cwd=ROOT,
                    env=self.env,
                    stdin=subprocess.DEVNULL,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=CHILD_TIMEOUT_S,
                    check=False,
                )
            except subprocess.TimeoutExpired:
                call["problems"].append(f"timed out after {CHILD_TIMEOUT_S} s")
                return call, time.monotonic() - launched
        elapsed = time.monotonic() - launched
        if proc.returncode != 0:
            with open(os.path.join(call_dir, "child.log"), encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:] or [""]
            call["problems"].append(f"exit code {proc.returncode}: {tail[0]}")
            return call, elapsed
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        call["setup_s"] = result["call_monotonic"] - launched
        if kind == "setup":
            call["ok"] = True
            return call, elapsed
        call["wall_s"] = result["wall_s"]
        call["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
        self._check(call, result, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return call, elapsed

    def _check(self, call, result, out_dir):
        fields = dict(self.fields, output_dir=out_dir)
        problems, digest, accuracy, report = self.checks.check_outputs(
            self.workload, fields, out_dir, self.reference
        )
        if digest is not None:
            self._digest = self._digest or digest
            if digest != self._digest:
                problems.append(f"digest {digest} differs from this seed's {self._digest}")
        call.update(problems=problems, ok=not problems, digest=digest, accuracy=accuracy)
        if report is None:
            return
        stages = report["wall_time_seconds"]
        call["report_gap_s"] = call["wall_s"] - sum(stages.values())
        call["info"] = {f"stage.{k}_s": v for k, v in stages.items()}
        for method, block in (report.get("comparison") or {}).items():
            for key in ("decomposition_seconds", "speedup_decomposition", "relative_error"):
                call["info"][f"compare.{method}.{key}"] = block[key]
        if "spans" in result:
            call["layers"] = layer_metrics(
                result["spans"],
                self.fields["n"],
                result["call_perf"],
                result["return_perf"],
                report["warnings"],
                _dir_bytes(out_dir),
            )
            self.spans += result["spans"]

    def execute(self):
        print(
            f"== {self.workload.name} seed {self.seed}: "
            f"n = {self.fields['n']}, d = {self.fields['d']}",
            flush=True,
        )
        kinds = ("plain", "traced") if self.trace else ("plain",)
        measured = 0.0
        while True:
            call, elapsed = self.launch(kinds[len(self.calls) % len(kinds)])
            measured += elapsed
            self._print_call(call)
            if measured >= self.seconds and len(self.calls) >= len(kinds):
                break
        if self.trace:
            with open(os.path.join(self.dir, "spans.json"), "w", encoding="utf-8") as fh:
                json.dump(self.spans, fh)
        else:
            for _ in range(SETUP_PROBES):
                self._print_call(self.launch("setup")[0])

    def _print_call(self, call):
        parts = [f"call {len(self.calls) - 1} ({call['kind']}):"]
        for key, unit in E2E_UNITS.items():
            if key in call:
                parts.append(f"{key} {call[key]:.4f} {unit}")
        if "digest" in call:
            parts.append(f"digest {call['digest']}")
        parts.append("ok" if call["ok"] else "FAILED: " + "; ".join(call["problems"]))
        print(" ".join(parts), flush=True)

    def summary(self):
        ok = [c for c in self.calls if c["ok"]]
        plain = [c for c in ok if c["kind"] == "plain"]
        traced = [c for c in ok if c["kind"] == "traced"]
        e2e = {
            "wall_s": _median([c["wall_s"] for c in plain]),
            "setup_s": _median([c["setup_s"] for c in ok if c["kind"] != "traced"]),
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in plain]),
        }
        accuracy = {
            k: _median([c["accuracy"][k] for c in ok if k in c.get("accuracy", {})])
            for k in ACCURACY_METRICS
        }
        info_keys = sorted({k for c in plain for k in c.get("info", {})})
        info = {k: _median([c["info"][k] for c in plain if k in c["info"]]) for k in info_keys}
        layers = {}
        if traced:
            for key in traced[0]["layers"]:
                layers[key] = _median([c["layers"][key] for c in traced])
            layers["runner.report_gap_s"] = _median([c["report_gap_s"] for c in plain])
            layers["trace.overhead_frac"] = (
                _median([c["wall_s"] for c in traced]) / e2e["wall_s"] - 1.0
                if plain
                else None
            )
        failed = sum(not c["ok"] for c in self.calls)
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "smoke": self.smoke,
            "attempted": len(self.calls),
            "failed": failed,
            "fail_frac": failed / len(self.calls),
            "samples": {"plain": len(plain), "traced": len(traced)},
            "digest": self._digest,
            "end_to_end": e2e,
            "accuracy": {k: v for k, v in accuracy.items() if v is not None},
            "per_layer": layers,
            "info": info,
            "calls": self.calls,
        }


def print_summary(summary):
    name = summary["workload"]
    print(f"== {name} seed {summary['seed']}: {summary['samples']} successful calls")
    for key, value in summary["end_to_end"].items():
        if value is not None:
            print(f"metric {name} {key} = {value:.6g} {E2E_UNITS[key]} (median)")
    for key, value in summary["accuracy"].items():
        print(f"metric {name} {key} = {value:.6g} 1 (against the exact reference)")
    print(
        f"metric {name} fail_frac = {summary['fail_frac']:.6g} 1 "
        f"({summary['failed']} of {summary['attempted']} launches)"
    )
    for key, value in summary["info"].items():
        print(f"info {name} {key} = {value:.6g}")
    for key, value in summary["per_layer"].items():
        if value is not None:
            print(f"layer {name} {key} = {value:.6g} {LAYER_UNITS[key]}")


def compare_side_by_side(summaries):
    """compare's materialised projection beside the matrix-free run."""
    by_name = {s["workload"]: s for s in summaries}
    stream, compare = by_name.get("rp-stream-6k"), by_name.get("compare-6k")
    if not stream or not compare:
        return
    free = stream["info"].get("stage.decomposition_s")
    dense = compare["info"].get("compare.nystrom_projection.decomposition_seconds")
    exact = compare["info"].get("stage.decomposition_s")
    if None in (free, dense, exact):
        return
    print(
        f"info projection decomposition: {dense:.4g} s on compare's materialised "
        f"operator (speedup {exact / dense:.3g}x over the exact solve) against "
        f"{free:.4g} s matrix-free in run --method nys-rp (speedup {exact / free:.3g}x)"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="n = 500 for every workload")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nydmap", "__init__.py")):
        print(f"error: no nydmap sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        run = Run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.smoke)
        run.execute()
        summary = run.summary()
        summary["machine"] = machine.record(ROOT, run.dir, BLAS_THREADS)
        with open(os.path.join(run.dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
        print("machine " + json.dumps(summary["machine"]))
        print_summary(summary)
        summaries.append(summary)
    compare_side_by_side(summaries)

    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else s["workload"] + "/"
        if args.trace:
            values = {k: (v, LAYER_UNITS[k]) for k, v in s["per_layer"].items() if v is not None}
        else:
            values = {k: (v, E2E_UNITS[k]) for k, v in s["end_to_end"].items() if v is not None}
        for key, (value, unit) in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
