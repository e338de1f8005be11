"""Benchmark harness and command line interface.

``run_experiment`` executes one pipeline (dataset, kernel/degrees,
decomposition, embedding) and writes a JSON report plus the embedding CSV.
``compare_methods`` runs the deterministic path as reference and both
Nystrom strategies on the same data, reporting per-strategy speedups and
relative embedding errors in the shape of a benchmark table row.

The CLI exposes both as subcommands; see the README for flag semantics.
Exit codes: 0 success, 2 bad configuration or input, 3 numeric failure.
"""

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields

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
from .embedding import diffusion_map, kmeans_cluster, relative_embedding_error
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
    block_rows_for,
    degree_vector,
    gaussian_kernel_columns,
    gaussian_kernel_matrix,
)
from .nystrom import SketchConfig, gaussian_sketch_basis, nystrom_eigs, project, sample_columns
from .spectral import (
    METHODS,
    DiffusionOperator,
    SpectralModel,
    deterministic_model,
    eigendecompose,
    recover_markov_eigvecs,
    symmetric_matrix,
)

DATASETS = ("helix", "swiss_roll", "lorenz", "csv")

_DATASET_ALIASES = {"swiss": "swiss_roll"}
_METHOD_ALIASES = {
    "det": "deterministic",
    "nys-cols": "nystrom_columns",
    "nys-rp": "nystrom_projection",
}

_CONFIG_ERRORS = (ParameterError, DataFormatError, DimensionError, IndexingError)

_STAGES = ("data", "kernel", "degrees", "decomposition", "embedding", "clustering")


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
    pinv_tolerance: float = 1e-12
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
        if self.method not in METHODS:
            raise ParameterError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        if self.dataset == "csv":
            if not self.csv_path:
                raise ParameterError("dataset 'csv' requires csv_path")
            if self.n < 0:
                raise ParameterError(f"n must be >= 0 for csv input, got {self.n}")
        elif self.n < 2:
            raise ParameterError(f"need n >= 2 observations, got {self.n}")
        if not self.sigma > 0.0:
            raise ParameterError(f"kernel width sigma must be > 0, got {self.sigma}")
        if self.d < 1:
            raise ParameterError(f"target rank d must be >= 1, got {self.d}")
        if not self.t > 0.0:
            raise ParameterError(f"diffusion time t must be > 0, got {self.t}")
        if self.noise_std < 0.0:
            raise ParameterError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.cluster_k < 0:
            raise ParameterError(f"cluster_k must be >= 0, got {self.cluster_k}")
        # Sketch parameters share SketchConfig's validation.
        self.sketch_config("gaussian_projection")
        return self

    def sketch_config(self, strategy):
        return SketchConfig(
            target_rank_d=self.d,
            oversampling=self.oversampling,
            power_iterations_q=self.power_iterations,
            strategy=strategy,
            seed=self.seed,
            pinv_tolerance=self.pinv_tolerance,
        )

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

    relative_error is present only when a deterministic reference was
    computed in the same run; comparison holds the per-strategy benchmark
    block produced by compare_methods.
    """

    config: dict
    wall_time_seconds: dict
    eigenvalues: list
    effective_rank: int
    warnings: list
    relative_error: float = None
    comparison: dict = None
    clustering: dict = None

    def to_json(self):
        payload = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise DataFormatError(f"unknown report keys: {sorted(unknown)}")
        return cls(**payload)


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentReport.from_json(fh.read())


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


def _decompose(config, method, X, deg, A=None):
    """One decomposition by the requested method.

    ``A`` may pass in an already materialized symmetric operator (the
    comparison harness reuses the reference's buffer); otherwise the
    projection path multiplies in row blocks, so it never materializes an
    n-by-n matrix.  Column sampling fetches only its pivot columns and
    takes the degrees from its factor, ignoring ``deg``; the model's
    ``degrees`` holds them.
    """
    if method == "nystrom_columns":
        sketch = config.sketch_config("pivoted_columns")
        # Row blocks sized for the pivot block, not for n columns.
        factors, deg, _ = sample_columns(
            lambda J: gaussian_kernel_columns(
                X, config.sigma, J, block_rows=block_rows_for(len(J))
            ),
            X.n,
            sketch.sketch_size,
            sketch.seed,
            sketch.pinv_tolerance,
        )
        return nystrom_eigs(factors, sketch.target_rank_d, deg, sketch.pinv_tolerance)
    sketch = config.sketch_config("gaussian_projection")
    operator = A if A is not None else DiffusionOperator(X, config.sigma, deg)
    Q = gaussian_sketch_basis(
        operator, X.n, sketch.sketch_size, sketch.power_iterations_q, sketch.seed
    )
    factors = project(operator, Q)
    return nystrom_eigs(factors, sketch.target_rank_d, deg, sketch.pinv_tolerance)


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


def _sketch_l(config, n):
    l = config.d + config.oversampling
    if l > n:
        raise ParameterError(
            f"sketch size d + oversampling = {l} exceeds n = {n}"
        )
    return l


def run_experiment(config):
    """Execute one configured pipeline and write its outputs.

    Returns the ExperimentReport; the same report is written to
    ``output_dir/report.json`` next to ``embedding.csv`` and a reloadable
    ``config.txt``.  On failure, files written by this run are removed.
    """
    config.validate()
    clock = _StageClock()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        X, _ = clock.run("data", lambda: _build_dataset(config))
        if config.method != "deterministic":
            _sketch_l(config, X.n)
        if config.method == "deterministic":
            K, _ = clock.run(
                "kernel", lambda: gaussian_kernel_matrix(X, config.sigma)
            )
            # Row sums of the materialized kernel match the streamed
            # degree_vector bitwise (same per-row reduction).
            deg, _ = clock.run(
                "degrees", lambda: DegreeVector(K.values.sum(axis=1))
            )
            model, _ = clock.run(
                "decomposition",
                lambda: deterministic_model(K, deg, config.d, overwrite_kernel=True),
            )
        else:
            # Column sampling takes its degrees from its factor, so its
            # degrees stage reads 0.0.
            deg = None
            if config.method == "nystrom_projection":
                deg, _ = clock.run("degrees", lambda: degree_vector(X, config.sigma))
            model, _ = clock.run(
                "decomposition", lambda: _decompose(config, config.method, X, deg)
            )
        emb, _ = clock.run("embedding", lambda: _embed(config, model))
        labels = None
        if config.cluster_k:
            labels, _ = clock.run(
                "clustering",
                lambda: kmeans_cluster(emb, config.cluster_k, seed=config.seed),
            )
    report = ExperimentReport(
        config=config.to_dict(),
        wall_time_seconds=dict(clock.times),
        eigenvalues=[float(v) for v in model.eigenvalues],
        effective_rank=model.rank_d,
        warnings=[str(w.message) for w in caught],
    )
    if labels is not None:
        report.clustering = {"k": labels.k, "inertia": labels.inertia}
    _write_outputs(
        config.output_dir,
        report,
        [("embedding.csv", emb, labels)],
        config,
    )
    return report


def compare_methods(config):
    """Benchmark the deterministic path against both Nystrom strategies.

    All methods share the same dataset, kernel and degrees.  The symmetric
    operator is materialized once; the deterministic solver and the
    projection sketch both consume it, so the decomposition timings compare
    arithmetic, not memory strategy.  Column sampling fetches its pivot
    columns and takes its degrees from its factor exactly as it would
    standalone; ``comparison["nystrom_columns"]["degree_rel_err"]`` is the
    largest relative error of those degrees against the exact ones.

    The report's top-level fields describe the deterministic reference;
    ``comparison[strategy]`` holds timings, speedups, eigenvalues and the
    relative embedding error of each Nystrom strategy.
    """
    config.validate()
    clock = _StageClock()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        X, _ = clock.run("data", lambda: _build_dataset(config))
        _sketch_l(config, X.n)
        K, _ = clock.run("kernel", lambda: gaussian_kernel_matrix(X, config.sigma))
        deg, _ = clock.run("degrees", lambda: DegreeVector(K.values.sum(axis=1)))
        A, det_build = clock.run(
            "decomposition", lambda: symmetric_matrix(K, deg, overwrite=True)
        )
        det_model, det_solve = clock.run(
            "decomposition",
            lambda: _run_deterministic_solve(A, deg, config.d),
        )
        det_decomp = det_build + det_solve
        det_emb, det_embed_time = clock.run("embedding", lambda: _embed(config, det_model))

        shared = clock.times["kernel"] + clock.times["degrees"]
        comparison = {}
        spectra = {"deterministic": det_model.eigenvalues}
        embeddings = {"deterministic": (det_emb, None)}
        for method in ("nystrom_projection", "nystrom_columns"):
            reuse = A if method == "nystrom_projection" else None
            model, decomp_time = clock.run(
                method, lambda m=method, r=reuse: _decompose(config, m, X, deg, A=r)
            )
            emb, embed_time = clock.run(method, lambda m=model: _embed(config, m))
            comparison[method] = {
                "decomposition_seconds": decomp_time,
                "embedding_seconds": embed_time,
                "speedup_decomposition": det_decomp / max(decomp_time, 1e-12),
                "speedup_pipeline": (shared + det_decomp + det_embed_time)
                / max(shared + decomp_time + embed_time, 1e-12),
                "relative_error": relative_embedding_error(det_emb, emb),
                "effective_rank": model.rank_d,
                "eigenvalues": [float(v) for v in model.eigenvalues],
            }
            if method == "nystrom_columns":
                comparison[method]["degree_rel_err"] = float(
                    np.max(np.abs(model.degrees.values - deg.values) / deg.values)
                )
            spectra[method] = model.eigenvalues
            embeddings[method] = (emb, None)
        labels = None
        if config.cluster_k:
            labels, _ = clock.run(
                "clustering",
                lambda: kmeans_cluster(det_emb, config.cluster_k, seed=config.seed),
            )
            embeddings["deterministic"] = (det_emb, labels)
    report = ExperimentReport(
        config=config.to_dict(),
        wall_time_seconds=dict(clock.times),
        eigenvalues=[float(v) for v in det_model.eigenvalues],
        effective_rank=det_model.rank_d,
        warnings=[str(w.message) for w in caught],
        comparison=comparison,
    )
    if labels is not None:
        report.clustering = {"k": labels.k, "inertia": labels.inertia}
    embedding_files = [
        (f"embedding_{name}.csv", emb, lab) for name, (emb, lab) in embeddings.items()
    ]
    _write_outputs(config.output_dir, report, embedding_files, config, spectra=spectra)
    return report


def _run_deterministic_solve(A, deg, d):
    vals, vecs = eigendecompose(A, d, check_symmetry=False)
    markov = recover_markov_eigvecs(vecs, deg)
    return SpectralModel(vals, vecs, markov, deg, "deterministic", d)


def _write_spectrum_csv(path, spectra):
    columns = ["deterministic", "nystrom_projection", "nystrom_columns"]
    length = max(len(spectra[c]) for c in columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("eigval_index," + ",".join(columns) + "\n")
        for i in range(length):
            cells = [str(i)]
            for c in columns:
                vals = spectra[c]
                cells.append("%.17g" % vals[i] if i < len(vals) else "")
            fh.write(",".join(cells) + "\n")


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
    # Each path is recorded before its file is opened, so a write that
    # fails part-way still removes its half-written file.
    written = []
    try:
        for name, emb, labels in embedding_files:
            path = os.path.join(output_dir, name)
            written.append(path)
            header = [f"c{i + 1}" for i in range(emb.d)]
            values = emb.coords
            if labels is not None:
                header.append("label")
                values = np.column_stack((emb.coords, labels.labels))
            save_csv(path, values, header)
        if spectra is not None:
            path = os.path.join(output_dir, "spectrum.csv")
            written.append(path)
            _write_spectrum_csv(path, spectra)
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
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "1": True,
    "0": False,
}

_KEY_ALIASES = {"rank": "d", "out": "output_dir", "cluster": "cluster_k"}


def load_config_file(path):
    """Parse a key = value config file into a dict of ExperimentConfig fields.

    Blank lines and '#' comments are ignored.  Keys are the ExperimentConfig
    field names (plus aliases rank, out, cluster); values are typed per
    field.  Booleans accept true/false, yes/no, 1/0.
    """
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    defaults = ExperimentConfig()
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
            key = _KEY_ALIASES.get(key.strip(), key.strip())
            value = value.strip()
            if key not in types:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            default = getattr(defaults, key)
            try:
                if isinstance(default, bool):
                    mapping[key] = _BOOL_WORDS[value.lower()]
                elif isinstance(default, int):
                    mapping[key] = int(value)
                elif isinstance(default, float):
                    mapping[key] = float(value)
                else:
                    mapping[key] = value
            except (KeyError, ValueError) as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: cannot parse {value!r} for key {key!r}"
                ) from exc
    return mapping


def _add_common_flags(parser, include_method):
    # Each dest is an ExperimentConfig field.  A flag left unset reads None
    # and leaves its field alone; store_true flags would read False instead.
    parser.add_argument(
        "--dataset",
        choices=("helix", "swiss", "swiss_roll", "lorenz", "csv"),
        help="dataset to run on",
    )
    parser.add_argument("--csv-path", help="input file for --dataset csv")
    parser.add_argument(
        "--csv-skip-header",
        action="store_true",
        default=None,
        help="skip the first row of the CSV input",
    )
    parser.add_argument(
        "--n", type=int, help="number of observations (0 = every row of a csv dataset)"
    )
    parser.add_argument("--sigma", type=float, help="kernel width")
    parser.add_argument(
        "--rank", dest="d", type=int, help="target rank d (embedding components)"
    )
    parser.add_argument("--t", type=float, help="diffusion time")
    if include_method:
        parser.add_argument(
            "--method",
            choices=tuple(_METHOD_ALIASES) + METHODS,
            help="decomposition path",
        )
    parser.add_argument(
        "--oversample",
        dest="oversampling",
        type=int,
        help="extra sketch columns beyond d",
    )
    parser.add_argument(
        "--power-iters",
        dest="power_iterations",
        type=int,
        help="subspace iteration passes q",
    )
    parser.add_argument("--seed", type=int, help="RNG seed")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument(
        "--drop-trivial",
        action="store_true",
        default=None,
        help="skip the constant eigenvalue-1 component",
    )
    parser.add_argument(
        "--classic-weighting",
        action="store_true",
        default=None,
        help="weight components by lambda^t instead of sqrt(lambda^t)",
    )
    parser.add_argument(
        "--cluster", dest="cluster_k", type=int, help="k-means cluster count (0 = off)"
    )
    parser.add_argument("--noise-std", type=float, help="generator noise level")
    parser.add_argument(
        "--pinv-tol",
        dest="pinv_tolerance",
        type=float,
        help="relative pseudo-inverse cutoff and column-pivoting tolerance",
    )
    parser.add_argument("--config", help="key = value config file (overrides flags)")


def _config_from_args(args):
    overrides = {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        if f.name == "dataset":
            value = _DATASET_ALIASES.get(value, value)
        elif f.name == "method":
            value = _METHOD_ALIASES.get(value, value)
        overrides[f.name] = value
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


if __name__ == "__main__":
    sys.exit(main())
