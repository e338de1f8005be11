"""One decomposition entry, the benchmark harness and the command line.

``decompose`` takes data to a SpectralModel by any of METHODS;
the library, ``run_experiment`` and ``compare_methods`` all call it.
``run_experiment`` executes one pipeline (dataset, kernel/degrees,
decomposition, embedding) and writes a JSON report plus the embedding CSV.
``compare_methods`` runs the deterministic path as reference and both
Nystrom methods on the same data, each through ``decompose`` as ``run``
runs it, reporting per-method speedups and relative embedding errors in
the shape of a benchmark table row.

The CLI exposes both as subcommands; see the README for flag semantics.
Exit codes: 0 success, 2 bad configuration or input, 3 numeric failure.
"""

import argparse
import functools
import json
import os
import re
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .datasets import (
    LorenzParams,
    generate_helix,
    generate_swiss_roll,
    integrate_lorenz,
    load_csv,
    save_csv,
    subsample_rows,
)
from .embedding import (
    DiffusionEmbedding,
    diffusion_map,
    kmeans_cluster,
    relative_embedding_error,
)
from .errors import (
    DataFormatError,
    DegeneracyError,
    DimensionError,
    IndexingError,
    NydmapError,
    ParameterError,
    StageFailure,
)
from .kernel import (
    DegreeVector,
    degree_vector,  # not called here: perfbench's tracer wraps this site
    gaussian_kernel_columns,
    gaussian_kernel_matrix,
)
from .nystrom import (
    gaussian_sketch_basis,
    nystrom_eigs,
    project,  # not called here: perfbench's tracer wraps this site
    sample_columns,
)
from .spectral import (
    deterministic_model,
    eigendecompose,  # not called here: perfbench's tracer wraps this site
    load_exact_solver,
    recover_markov_eigvecs,  # not called here: perfbench's tracer wraps this site
    symmetric_matrix,  # not called here: perfbench's tracer wraps this site
)

DATASETS = ("helix", "swiss_roll", "lorenz", "csv")

METHODS = ("deterministic", "nystrom_columns", "nystrom_projection")

_CONFIG_ERRORS = (ParameterError, DataFormatError, DimensionError, IndexingError)

_STAGES = ("data", "kernel", "degrees", "decomposition", "embedding", "clustering")

# The ExperimentConfig fields that are decompose's settings.
_SETTINGS = ("sigma", "d", "oversampling", "power_iterations", "seed")


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, flat and file-serializable."""

    dataset: str = "helix"
    n: int = 2000
    sigma: float = 0.5
    d: int = 50
    t: float = 1.0
    method: str = "deterministic"
    oversampling: int = 10
    power_iterations: int = 2
    seed: int = 0
    noise_std: float = 0.05
    csv_path: str = ""
    csv_skip_header: bool = False
    drop_trivial: bool = False
    classic_weighting: bool = False
    cluster_k: int = 0
    output_dir: str = "results"

    def validate(self):
        if self.dataset not in DATASETS:
            raise ParameterError(
                f"unknown dataset {self.dataset!r}; expected one of {DATASETS}"
            )
        if self.dataset == "csv":
            if not self.csv_path:
                raise ParameterError("dataset 'csv' requires csv_path")
            if self.n < 0:
                raise ParameterError(f"n must be >= 0 for csv input, got {self.n}")
        elif self.n < 2:
            raise ParameterError(f"need n >= 2 observations, got {self.n}")
        if not 0.0 < self.sigma < np.inf:
            raise ParameterError(
                f"kernel width sigma must be finite and > 0, got {self.sigma}"
            )
        if not 0.0 < self.t < np.inf:
            raise ParameterError(f"diffusion time t must be finite and > 0, got {self.t}")
        if not 0.0 <= self.noise_std < np.inf:
            raise ParameterError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        n = self.n or None  # a csv file read whole: n is known once it is loaded
        k = self.cluster_k
        if not 0 <= k <= (n or k):
            raise ParameterError(f"need 0 <= cluster_k <= n={n or '?'}, got {k}")
        _check_settings(
            self.method, self.d, self.oversampling, self.power_iterations, self.seed, n
        )
        if self.drop_trivial and self.d < 2:
            raise ParameterError(f"drop_trivial leaves no component of d={self.d}")
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping):
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**mapping)


@dataclass
class ExperimentReport:
    """Run record: config echo, stage timings, spectrum and diagnostics.

    comparison holds the per-method benchmark block produced by
    compare_methods.
    """

    config: dict
    wall_time_seconds: dict
    eigenvalues: list
    effective_rank: int
    warnings: list
    comparison: dict = None
    clustering: dict = None

    def to_json(self):
        payload = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(payload, indent=2) + "\n"


def _build_dataset(config):
    if config.dataset == "helix":
        return generate_helix(config.n, config.noise_std, config.seed)
    if config.dataset == "swiss_roll":
        points, _ = generate_swiss_roll(config.n, config.noise_std, config.seed)
        return points
    if config.dataset == "lorenz":
        trajectory = integrate_lorenz(LorenzParams())
        return subsample_rows(trajectory, config.n)
    data = load_csv(config.csv_path, skip_header=config.csv_skip_header)
    if config.n:
        data = subsample_rows(data, config.n)
    return data


class _StageClock:
    """Times named stages and converts module errors to StageFailure.

    Stages in _STAGES read 0.0 when they do not run; any other is added.
    """

    def __init__(self):
        self.times = {name: 0.0 for name in _STAGES}

    def run(self, stage, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except NydmapError as exc:
            raise StageFailure(stage, exc) from exc
        elapsed = time.perf_counter() - start
        self.times[stage] = self.times.get(stage, 0.0) + elapsed
        return result, elapsed


def _check_settings(method, d, oversampling, power_iterations, seed, n=None):
    """Raise ParameterError unless decompose's settings hold for n points.

    Returns the sketch size d + oversampling, which must not exceed n for
    the sketches.  n is None while it is unknown, and then bounds nothing.
    """
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}; expected one of {METHODS}")
    if not 1 <= d <= (n or d):
        raise ParameterError(f"need 1 <= d <= n={n or '?'}, got d={d}")
    if oversampling < 0:
        raise ParameterError(f"oversampling must be >= 0, got {oversampling}")
    if power_iterations < 0:
        raise ParameterError(f"power_iterations must be >= 0, got {power_iterations}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    l = d + oversampling
    if method != "deterministic" and l > (n or l):
        raise ParameterError(f"sketch size d + oversampling = {l} exceeds n = {n}")
    return l


def decompose(
    X, sigma, method, d, oversampling=10, power_iterations=2, seed=0, clock=None
):
    """Top-d eigenpairs of X's diffusion operator by one of METHODS.

    The keywords are ExperimentConfig's field names.  ``deterministic``
    materializes the kernel, takes its row sums as the degrees and solves
    exactly; the n-by-n operator is freed when the call returns.
    ``nystrom_projection`` is gaussian_sketch_basis with l = d +
    oversampling and q = ``power_iterations``: q + 1 matrix-free
    multiplies, the first of which gives the degrees.
    ``nystrom_columns`` fetches only its l pivot kernel columns and takes
    the degrees from its factor (see sample_columns).  Both sketches take
    their degrees inside the decomposition stage.  The settings are checked
    as ExperimentConfig.validate checks them, before any kernel entry is
    evaluated.  A ``clock`` (a _StageClock) times the kernel, degrees and
    decomposition stages and raises a failure as a StageFailure naming its
    stage.  A second eigenvalue within 1e-10 of 1 (a disconnected graph)
    raises a UserWarning.

    Returns a SpectralModel whose ``degrees`` are the degrees used.
    """
    l = _check_settings(method, d, oversampling, power_iterations, seed, X.n)
    run = clock.run if clock is not None else lambda stage, fn: (fn(), 0.0)
    if method == "deterministic":
        # The exact solve's scipy import is paid first, outside every
        # stage, so the stage times (and compare's speedups) measure
        # arithmetic alone.
        load_exact_solver()
        K, _ = run("kernel", lambda: gaussian_kernel_matrix(X, sigma))
        # Row sums of the materialized kernel match the streamed
        # degree_vector bitwise (same per-row reduction).
        deg, _ = run("degrees", lambda: DegreeVector(K.sum(axis=1)))

    def solve():
        if method == "deterministic":
            return deterministic_model(K, deg, d)
        if method == "nystrom_columns":
            columns = functools.partial(gaussian_kernel_columns, X, sigma)
            F, sketch_deg, _ = sample_columns(columns, X.n, l, seed)
        else:
            F, sketch_deg = gaussian_sketch_basis(X, sigma, l, power_iterations, seed)
        return nystrom_eigs(F, d, sketch_deg)

    model = run("decomposition", solve)[0]
    if model.rank_d > 1 and model.eigenvalues[1] >= 1.0 - 1e-10:
        warnings.warn(
            f"eigenvalue 1 repeats (1 - lambda_2 = {1.0 - model.eigenvalues[1]:.1e}): "
            "the graph is disconnected and its embedding is not unique",
            stacklevel=2,
        )
    return model


def _embed(config, model):
    usable = model.rank_d - (1 if config.drop_trivial else 0)
    d = min(config.d, usable)
    if d < 1:
        raise DegeneracyError(
            f"model rank {model.rank_d} leaves no embedding components"
        )
    return diffusion_map(
        model,
        config.t,
        d,
        drop_trivial=config.drop_trivial,
        classic_weighting=config.classic_weighting,
    )


def _zero_padded(emb, d):
    """``emb`` with zero columns appended up to d components.

    A sketch and its reference are scored at the wider one's width, with
    the narrower one's missing components as zeros, so each adds its full
    weight to the relative error.
    """
    missing = d - emb.d
    if missing <= 0:
        return emb
    return DiffusionEmbedding(
        np.pad(emb.coords, ((0, 0), (0, missing))),
        emb.t,
        np.pad(emb.component_eigenvalues, (0, missing)),
    )


def _pipeline(config, methods):
    """Decompose and embed one dataset by each of ``methods``, then write.

    Every method runs through ``decompose`` as ``run`` runs it.  The first
    is the reference: it fills the standard stages, gives the report's
    top-level fields and is the only embedding k-means labels.  Each later
    method is timed, decomposition and embedding, under its own name and
    scored against the reference in ``comparison[method]``.  One method
    writes ``embedding.csv``; several write ``embedding_<method>.csv``
    each and ``spectrum.csv``.
    """
    config.validate()
    clock = _StageClock()
    settings = {name: getattr(config, name) for name in _SETTINGS}
    several = len(methods) > 1
    comparison, spectra, embeddings = {}, {}, {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        X, _ = clock.run("data", lambda: _build_dataset(config))
        # Every method is checked against the loaded n before any kernel pass.
        for method in methods:
            replace(config, n=X.n, method=method).validate()
        for method in methods:
            if method == methods[0]:
                model = ref = decompose(X, method=method, clock=clock, **settings)
                emb, embed_time = clock.run("embedding", lambda: _embed(config, ref))
                ref_emb, ref_decomp = emb, clock.times["decomposition"]
                ref_pipeline = (
                    clock.times["kernel"] + clock.times["degrees"] + ref_decomp + embed_time
                )
            else:
                model, decomp_time = clock.run(
                    method, lambda: decompose(X, method=method, **settings)
                )
                emb, embed_time = clock.run(method, lambda: _embed(config, model))
                width = max(ref_emb.d, emb.d)
                comparison[method] = {
                    "decomposition_seconds": decomp_time,
                    "embedding_seconds": embed_time,
                    "speedup_decomposition": ref_decomp / max(decomp_time, 1e-12),
                    "speedup_pipeline": ref_pipeline / max(decomp_time + embed_time, 1e-12),
                    "relative_error": relative_embedding_error(
                        _zero_padded(ref_emb, width), _zero_padded(emb, width)
                    ),
                    "effective_rank": model.rank_d,
                    "eigenvalues": [float(v) for v in model.eigenvalues],
                }
                if method == "nystrom_columns":
                    exact_deg = ref.degrees.values
                    comparison[method]["degree_rel_err"] = float(
                        np.max(np.abs(model.degrees.values - exact_deg) / exact_deg)
                    )
            spectra[method] = model.eigenvalues
            embeddings[f"embedding_{method}.csv" if several else "embedding.csv"] = emb
        labels = None
        if config.cluster_k:
            labels, _ = clock.run(
                "clustering", lambda: kmeans_cluster(ref_emb, config.cluster_k, seed=config.seed)
            )
    report = ExperimentReport(
        config=config.to_dict(),
        wall_time_seconds=dict(clock.times),
        eigenvalues=[float(v) for v in ref.eigenvalues],
        effective_rank=ref.rank_d,
        warnings=[str(w.message) for w in caught],
        comparison=comparison if several else None,
    )
    if labels is not None:
        report.clustering = {
            "k": labels.k,
            "inertia": labels.inertia,
            "iterations": len(labels.inertia_history),
            "converged": labels.converged,
        }
    files = [
        (name, emb, labels if emb is ref_emb else None)
        for name, emb in embeddings.items()
    ]
    _write_outputs(
        config.output_dir, report, files, config, spectra=spectra if several else None
    )
    return report


def run_experiment(config):
    """Execute one configured pipeline and write its outputs.

    Returns the ExperimentReport; the same report is written to
    ``output_dir/report.json`` next to ``embedding.csv`` and a reloadable
    ``config.txt``.  On failure, files written by this run are removed.
    Both sketches take their degrees inside the decomposition stage, so
    their degrees stage reads 0.0; only the deterministic method fills the
    kernel and degrees stages.
    """
    return _pipeline(config, (config.method,))


def compare_methods(config):
    """Benchmark the deterministic path against both Nystrom methods.

    Every method runs on the same dataset through ``decompose``, exactly as
    ``run`` runs it: the exact reference materializes its kernel and
    degrees, which are freed once it is solved, the projection sketch
    multiplies by the matrix-free operator, and column sampling fetches its
    pivot columns and takes its degrees from its factor.  The speedups
    therefore compare the strategies users run, memory strategy included.
    ``comparison["nystrom_columns"]["degree_rel_err"]`` is the largest
    relative error of the column sketch's degrees against the exact ones.

    The report's top-level fields describe the deterministic reference;
    ``comparison[method]`` holds timings, speedups, eigenvalues and the
    relative embedding error of each Nystrom method.
    """
    return _pipeline(config, ("deterministic", "nystrom_projection", "nystrom_columns"))


def _config_lines(config):
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def _write_outputs(output_dir, report, embedding_files, config, spectra=None):
    """Write the CSVs, spectrum.csv and config.txt, then report.json.

    The time spent on the files before report.json is recorded as the
    report's ``output`` stage.  On failure every file written is removed.
    """
    os.makedirs(output_dir, exist_ok=True)
    start = time.perf_counter()
    tables = []
    for name, emb, labels in embedding_files:
        header = [f"c{i + 1}" for i in range(emb.d)]
        values = emb.coords
        if labels is not None:
            header.append("label")
            values = np.column_stack((emb.coords, labels.labels))
        tables.append((name, values, header))
    if spectra is not None:
        # One row per eigenvalue index; NaN where a method returned fewer.
        length = max(len(vals) for vals in spectra.values())
        values = np.full((length, 1 + len(spectra)), np.nan)
        values[:, 0] = np.arange(length)
        for j, vals in enumerate(spectra.values(), start=1):
            values[: len(vals), j] = vals
        tables.append(("spectrum.csv", values, ["eigval_index", *spectra]))
    # Each path is recorded before its file is opened, so a write that
    # fails part-way still removes its half-written file.
    written = []
    try:
        for name, values, header in tables:
            path = os.path.join(output_dir, name)
            written.append(path)
            save_csv(path, values, header)
        path = os.path.join(output_dir, "config.txt")
        written.append(path)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_config_lines(config))
        report.wall_time_seconds["output"] = time.perf_counter() - start
        path = os.path.join(output_dir, "report.json")
        written.append(path)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.to_json())
    except BaseException:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise


_BOOL_WORDS = {
    "true": True, "yes": True, "1": True, "false": False, "no": False, "0": False
}

_VALUE_ALIASES = {
    "swiss": "swiss_roll",
    "det": "deterministic",
    "nys-cols": "nystrom_columns",
    "nys-rp": "nystrom_projection",
}

_CHOICES = {"dataset": DATASETS, "method": METHODS}

# (ExperimentConfig field, flag name, help) for every flag, in --help order.
_FLAGS = (
    ("dataset", "dataset", "dataset to run on"),
    ("csv_path", "csv-path", "input file for --dataset csv"),
    ("csv_skip_header", "csv-skip-header", "skip the first row of the CSV input"),
    ("n", "n", "number of observations (0 = every row of a csv dataset)"),
    ("sigma", "sigma", "kernel width"),
    ("d", "rank", "target rank d (embedding components)"),
    ("t", "t", "diffusion time"),
    ("method", "method", "decomposition path"),
    ("oversampling", "oversample", "extra sketch columns beyond d"),
    ("power_iterations", "power-iters", "Krylov blocks q after the start block"),
    ("seed", "seed", "RNG seed"),
    ("output_dir", "out", "output directory"),
    ("drop_trivial", "drop-trivial", "skip the constant eigenvalue-1 component"),
    (
        "classic_weighting",
        "classic-weighting",
        "weight components by lambda^t instead of sqrt(lambda^t)",
    ),
    ("cluster_k", "cluster", "k-means cluster count (0 = off)"),
    ("noise_std", "noise-std", "generator noise level"),
)

# Config-file keys, with "-" read as "_": each field's name and its flag's.
_KEYS = {k.replace("-", "_"): field for field, flag, _ in _FLAGS for k in (field, flag)}


def _parse_value(field, text):
    """``text`` typed like the field's default, with dataset/method aliases resolved.

    Raises KeyError for an unknown boolean word, ValueError for a bad number.
    """
    default = getattr(ExperimentConfig, field)  # a dataclass field's default
    if isinstance(default, bool):
        return _BOOL_WORDS[text.lower()]
    if field in _CHOICES:
        return _VALUE_ALIASES.get(text, text)
    return type(default)(text)


def load_config_file(path):
    """Parse a key = value config file into a dict of ExperimentConfig fields.

    Blank lines and comments are ignored: a '#' at the start of a line or
    after whitespace starts one, so a value may hold '#' elsewhere.  A key
    is a field name or its flag's name (rank, oversample, power-iters, out,
    ...), with '-' and '_' alike.  Values are typed per field, and the
    dataset and method take the flags' aliases (swiss, det, nys-cols,
    nys-rp).  Booleans accept true/false, yes/no, 1/0.
    """
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = key.strip(), value.strip()
            field = _KEYS.get(key.replace("-", "_"))
            if field is None:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                mapping[field] = _parse_value(field, value)
            except (KeyError, ValueError) as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: cannot parse {value!r} for key {key!r}"
                ) from exc
    return mapping


def _add_common_flags(parser, include_method):
    # Each dest is an ExperimentConfig field.  A flag left unset reads None
    # and leaves its field alone; store_true flags would read False instead.
    for field, flag, help_text in _FLAGS:
        if field == "method" and not include_method:
            continue
        kwargs = dict(dest=field, default=None, help=help_text)
        default = getattr(ExperimentConfig, field)
        if isinstance(default, bool):
            kwargs["action"] = "store_true"
        elif field in _CHOICES:
            kwargs["type"] = functools.partial(_parse_value, field)
            kwargs["choices"] = _CHOICES[field]
        else:
            kwargs["type"] = type(default)
        parser.add_argument(f"--{flag}", **kwargs)
    parser.add_argument("--config", help="key = value config file (overrides flags)")


def _config_from_args(args):
    given = {field: getattr(args, field, None) for field, _, _ in _FLAGS}
    overrides = {field: value for field, value in given.items() if value is not None}
    if args.config is not None:
        overrides.update(load_config_file(args.config))
    return ExperimentConfig.from_dict(overrides)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nydmap",
        description="Diffusion-map benchmark: deterministic vs Nystrom decompositions.",
    )
    parser.add_argument("--version", action="version", version=f"nydmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one pipeline and write report + embedding")
    _add_common_flags(run, include_method=True)
    compare = sub.add_parser(
        "compare", help="benchmark deterministic vs both Nystrom strategies"
    )
    _add_common_flags(compare, include_method=False)
    return parser


def _summarize(report, out_dir):
    stage_text = ", ".join(f"{s} {t:.3f}s" for s, t in report.wall_time_seconds.items())
    lines = [f"stages: {stage_text}"]
    if report.comparison:
        for method, block in report.comparison.items():
            lines.append(
                f"{method}: decomposition speedup {block['speedup_decomposition']:.2f}, "
                f"relative error {block['relative_error']:.3e}"
            )
    for w in report.warnings:
        lines.append(f"warning: {w}")
    lines.append(f"wrote {os.path.join(out_dir, 'report.json')}")
    return "\n".join(lines)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        entry = run_experiment if args.command == "run" else compare_methods
        report = entry(config)
    except (NydmapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, StageFailure) else exc
        return 2 if isinstance(cause, _CONFIG_ERRORS + (OSError,)) else 3
    print(_summarize(report, config.output_dir))
    return 0
