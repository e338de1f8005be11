"""Spans around nydmap's public layer functions, recorded from outside.

``Tracer.install`` replaces each public function at the name its caller
looks it up by: ``runner`` imported its functions by name, ``kernel`` and
``spectral`` call ``gaussian_kernel_block`` through their own module
globals, ``nystrom`` calls ``psd_inverse_sqrt`` and
``recover_markov_eigvecs`` through its globals, and the projection sketch
calls ``DiffusionOperator.matmat`` on the class.  Every call records a
span (name, start, end, parent, run id) in memory; the child process
writes them out when the pipeline returns.

While a ``kernel`` or ``nystrom`` span is open, tracemalloc follows numpy's
allocations so each span can report the peak it allocated above what was
live when it started.  Outside those layers tracemalloc is off, so the
runner's CSV writer is not slowed by it.

``layer_metrics`` turns one call's spans into the per-layer metrics listed
in BENCHMARK.json.
"""

import functools
import importlib
import time
import tracemalloc

# (module, attribute) pairs: every place the pipeline looks a layer
# function up.  One function reached under several names gets one wrapper.
SITES = (
    ("runner", "generate_helix"),
    ("runner", "gaussian_kernel_matrix"),
    ("runner", "degree_vector"),
    ("runner", "gaussian_kernel_columns"),
    ("kernel", "gaussian_kernel_block"),
    ("spectral", "gaussian_kernel_block"),
    ("runner", "symmetric_matrix"),
    ("spectral", "symmetric_matrix"),
    ("runner", "eigendecompose"),
    ("spectral", "eigendecompose"),
    ("runner", "recover_markov_eigvecs"),
    ("spectral", "recover_markov_eigvecs"),
    ("nystrom", "recover_markov_eigvecs"),
    ("runner", "deterministic_model"),
    ("spectral.DiffusionOperator", "matmat"),
    ("runner", "sample_columns"),
    ("runner", "gaussian_sketch_basis"),
    ("runner", "project"),
    ("runner", "nystrom_eigs"),
    ("nystrom", "psd_inverse_sqrt"),
    ("runner", "diffusion_map"),
    ("runner", "kmeans_cluster"),
    ("runner", "relative_embedding_error"),
)

ALLOC_LAYERS = ("kernel", "nystrom")
MB = float(1 << 20)

# Every per-layer metric with its unit and which direction is better; the
# per_layer list of BENCHMARK.json is this table.
LAYER_METRICS = (
    ("datasets.generate_s", "s", "lower"),
    ("kernel.block_s", "s", "lower"),
    ("kernel.entries", "count", "lower"),
    ("kernel.passes", "count", "lower"),
    ("kernel.entries_per_s", "1/s", "higher"),
    ("kernel.matrix_s", "s", "lower"),
    ("kernel.degrees_s", "s", "lower"),
    ("kernel.columns_s", "s", "lower"),
    ("kernel.peak_alloc_mb", "MB", "lower"),
    ("spectral.eigensolve_s", "s", "lower"),
    ("spectral.eigensolve_fallbacks", "count", "lower"),
    ("spectral.normalise_s", "s", "lower"),
    ("spectral.matmat_calls", "count", "lower"),
    ("spectral.matmat_self_s", "s", "lower"),
    ("nystrom.basis_self_s", "s", "lower"),
    ("nystrom.project_self_s", "s", "lower"),
    ("nystrom.sample_columns_self_s", "s", "lower"),
    ("nystrom.eigs_s", "s", "lower"),
    ("nystrom.inv_sqrt_s", "s", "lower"),
    ("nystrom.rank_warnings", "count", "lower"),
    ("nystrom.peak_alloc_mb", "MB", "lower"),
    ("embedding.map_s", "s", "lower"),
    ("embedding.kmeans_s", "s", "lower"),
    ("embedding.kmeans_iters", "count", "lower"),
    ("embedding.error_s", "s", "lower"),
    ("runner.self_s", "s", "lower"),
    ("runner.write_s", "s", "lower"),
    ("runner.bytes_written", "B", "lower"),
    ("runner.write_mb_per_s", "MB/s", "higher"),
    ("runner.report_gap_s", "s", "lower"),
    ("trace.coverage", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def _owner(path):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"nydmap.{module}")
    return getattr(obj, cls) if cls else obj


def _span_name(fn):
    return fn.__module__.removeprefix("nydmap.") + "." + fn.__qualname__


def _counts(name, args, result):
    if name == "kernel.gaussian_kernel_block":
        return {"entries": len(args[0]) * len(args[1])}
    if name == "embedding.kmeans_cluster":
        return {"iters": len(result.inertia_history)}
    return {}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []
        self._alloc_owner = None

    def install(self):
        wrappers = {}
        for path, attr in SITES:
            owner = _owner(path)
            fn = getattr(owner, attr)
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn)
            setattr(owner, attr, wrappers[fn])

    def _wrap(self, fn):
        name = _span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            span.update(_counts(name, args, result))
            return result

        return traced

    def _fold_peak(self):
        _, peak = tracemalloc.get_traced_memory()
        for span in self._open:
            # Spans opened before tracing started have no baseline.
            if "_peak" in span:
                span["_peak"] = max(span["_peak"], peak)
        tracemalloc.reset_peak()

    def _enter(self, name):
        if self._alloc_owner is not None:
            self._fold_peak()
        elif name.split(".", 1)[0] in ALLOC_LAYERS:
            tracemalloc.start()
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run_id,
        }
        if tracemalloc.is_tracing():
            if self._alloc_owner is None:
                self._alloc_owner = span
            span["_base"] = span["_peak"] = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        self._open.append(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span):
        span["end"] = time.perf_counter()
        if "_base" in span:
            self._fold_peak()
            span["alloc_mb"] = (span.pop("_peak") - span.pop("_base")) / MB
        self._open.pop()
        if span is self._alloc_owner:
            tracemalloc.stop()
            self._alloc_owner = None


def _sum(values):
    return float(sum(values))


def layer_metrics(spans, n, call_perf, return_perf, warnings, bytes_written):
    """Per-layer metrics of one traced pipeline call.

    ``call_perf`` and ``return_perf`` bound the call on the span clock;
    ``warnings`` are report.json's warning messages and ``bytes_written``
    the size of the output directory.  ``runner.self_s`` is measured as
    the gaps between top-level spans, so ``trace.coverage`` reads 1 only
    when the spans nest without overlap and nothing is counted twice.
    """
    wall_s = return_perf - call_perf
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                s["end"] - s["start"]
            )
    for s in spans:
        s["self"] = s["end"] - s["start"] - child_time.get(s["id"], 0.0)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def dur(name):
        return _sum(s["end"] - s["start"] for s in named(name))

    def self_s(name):
        return _sum(s["self"] for s in named(name))

    def peak(layer):
        sizes = [
            s["alloc_mb"]
            for s in spans
            if "alloc_mb" in s and s["name"].startswith(layer + ".")
        ]
        return max(sizes, default=0.0)

    entries = _sum(s.get("entries", 0) for s in spans)
    block_s = dur("kernel.gaussian_kernel_block")
    runner_self = 0.0
    cursor = call_perf
    for start, end in sorted((s["start"], s["end"]) for s in spans if s["parent"] is None):
        runner_self += max(0.0, start - cursor)
        cursor = max(cursor, end)
    runner_self += max(0.0, return_perf - cursor)
    write_s = return_perf - max((s["end"] for s in spans), default=return_perf)
    return {
        "datasets.generate_s": _sum(
            s["end"] - s["start"] for s in spans if s["name"].startswith("datasets.")
        ),
        "kernel.block_s": block_s,
        "kernel.entries": entries,
        "kernel.passes": entries / float(n * n),
        "kernel.entries_per_s": entries / block_s if block_s > 0 else 0.0,
        "kernel.matrix_s": dur("kernel.gaussian_kernel_matrix"),
        "kernel.degrees_s": dur("kernel.degree_vector"),
        "kernel.columns_s": dur("kernel.gaussian_kernel_columns"),
        "kernel.peak_alloc_mb": peak("kernel"),
        "spectral.eigensolve_s": dur("spectral.eigendecompose"),
        "spectral.eigensolve_fallbacks": sum(
            "falling back to a dense solve" in w for w in warnings
        ),
        "spectral.normalise_s": dur("spectral.symmetric_matrix"),
        "spectral.matmat_calls": len(named("spectral.DiffusionOperator.matmat")),
        "spectral.matmat_self_s": self_s("spectral.DiffusionOperator.matmat"),
        "nystrom.basis_self_s": self_s("nystrom.gaussian_sketch_basis"),
        "nystrom.project_self_s": self_s("nystrom.project"),
        "nystrom.sample_columns_self_s": self_s("nystrom.sample_columns"),
        "nystrom.eigs_s": dur("nystrom.nystrom_eigs"),
        "nystrom.inv_sqrt_s": dur("nystrom.psd_inverse_sqrt"),
        "nystrom.rank_warnings": sum(
            "sketch rank collapsed" in w or "effective rank" in w for w in warnings
        ),
        "nystrom.peak_alloc_mb": peak("nystrom"),
        "embedding.map_s": dur("embedding.diffusion_map"),
        "embedding.kmeans_s": dur("embedding.kmeans_cluster"),
        "embedding.kmeans_iters": sum(s.get("iters", 0) for s in spans),
        "embedding.error_s": dur("embedding.relative_embedding_error"),
        "runner.self_s": runner_self,
        "runner.write_s": write_s,
        "runner.bytes_written": bytes_written,
        "runner.write_mb_per_s": bytes_written / MB / write_s if write_s > 0 else 0.0,
        "trace.coverage": (_sum(s["self"] for s in spans) + runner_self) / wall_s,
    }
