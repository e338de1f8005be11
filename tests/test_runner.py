import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from nydmap import (
    DataFormatError,
    DataMatrix,
    ExperimentConfig,
    ParameterError,
    compare_methods,
    decompose,
    diffusion_map,
    generate_helix,
    kmeans_cluster,
    load_config_file,
    load_csv,
    run_experiment,
    save_csv,
)
from nydmap import embedding, kernel, spectral
from nydmap.kernel import degree_vector
from nydmap.nystrom import PIVOT_ROUNDS
from nydmap.runner import (
    METHODS,
    _SETTINGS,
    _config_from_args,
    _config_lines,
    build_parser,
    main,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("data", "kernel", "degrees", "decomposition", "embedding", "clustering", "output")


def _report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cfg(tmp_path, **kw):
    kw.setdefault("dataset", "helix")
    kw.setdefault("n", 300)
    kw.setdefault("d", 8)
    kw.setdefault("oversampling", 8)
    kw.setdefault("power_iterations", 1)
    kw.setdefault("output_dir", str(tmp_path / "out"))
    return ExperimentConfig(**kw)


def test_config_validation():
    bad = [
        dict(dataset="mnist"),
        dict(method="exact"),
        dict(dataset="csv", csv_path=""),
        dict(dataset="csv", csv_path="x.csv", n=-1),
        dict(n=1),
        dict(sigma=0.0),
        dict(sigma=np.inf),
        dict(sigma=np.nan),
        dict(d=0),
        dict(t=0.0),
        dict(t=np.inf),
        dict(t=np.nan),
        dict(noise_std=-0.1),
        dict(noise_std=np.inf),
        dict(noise_std=np.nan),
        dict(cluster_k=-1),
        dict(oversampling=-1),
        dict(power_iterations=-1),
        dict(seed=-1),
        dict(d=2001),
        dict(method="nystrom_projection", d=1991),
        dict(dataset="csv", csv_path="x.csv", n=0, d=0),
        dict(drop_trivial=True, d=1),
        dict(cluster_k=2001),
    ]
    for kw in bad:
        with pytest.raises(ParameterError):
            ExperimentConfig(**kw).validate()
    ExperimentConfig().validate()
    # A csv file read whole bounds d, the sketch and k once it is loaded.
    csv = dict(dataset="csv", csv_path="x.csv", n=0)
    ExperimentConfig(**csv, d=5000, method="nystrom_columns", cluster_k=9000).validate()


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict({"n": 100, "bandwidth": 0.5})


def test_config_file_roundtrip(tmp_path):
    cfg = ExperimentConfig(
        dataset="swiss_roll",
        n=123,
        sigma=0.7,
        d=9,
        t=2.0,
        method="nystrom_projection",
        oversampling=4,
        power_iterations=1,
        seed=5,
        noise_std=0.01,
        csv_path="points.csv",
        csv_skip_header=True,
        drop_trivial=True,
        classic_weighting=True,
        cluster_k=3,
        output_dir="elsewhere",
    )
    path = tmp_path / "roundtrip.cfg"
    path.write_text(_config_lines(cfg))
    rebuilt = ExperimentConfig.from_dict(load_config_file(str(path)))
    assert rebuilt == cfg


def test_config_file_keeps_hash_inside_values(tmp_path):
    # '#' opens a comment only at a line start or after whitespace.
    cfg = ExperimentConfig(dataset="csv", csv_path="runs#2/points.csv", output_dir="out#1")
    path = tmp_path / "hash.cfg"
    path.write_text(_config_lines(cfg))
    assert ExperimentConfig.from_dict(load_config_file(str(path))) == cfg


def test_load_config_file_parsing(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "rank = 7   # trailing comment\n"
        "out = results2\n"
        "cluster = 4\n"
        "csv_skip_header = yes\n"
        "sigma = 0.25\n"
        "oversample = 4\n"
        "power-iters = 1\n"
    )
    assert load_config_file(str(path)) == {
        "d": 7,
        "output_dir": "results2",
        "cluster_k": 4,
        "csv_skip_header": True,
        "sigma": 0.25,
        "oversampling": 4,
        "power_iterations": 1,
    }
    (tmp_path / "bad_key.cfg").write_text("bandwidth = 3\n")
    with pytest.raises(ParameterError):
        load_config_file(str(tmp_path / "bad_key.cfg"))
    (tmp_path / "bad_value.cfg").write_text("n = many\n")
    with pytest.raises(DataFormatError):
        load_config_file(str(tmp_path / "bad_value.cfg"))
    (tmp_path / "no_eq.cfg").write_text("n 300\n")
    with pytest.raises(DataFormatError):
        load_config_file(str(tmp_path / "no_eq.cfg"))


@pytest.mark.parametrize(
    "name, expected",
    [
        ("helix.cfg", dict(n=15000, d=300, output_dir="results/helix")),
        (
            "lorenz.cfg",
            dict(dataset="lorenz", n=30000, sigma=10.0, d=500, output_dir="results/lorenz"),
        ),
        (
            "swiss.cfg",
            dict(dataset="swiss_roll", n=20000, noise_std=0.0, output_dir="results/swiss"),
        ),
    ],
)
def test_shipped_config_files_load(name, expected):
    loaded = load_config_file(os.path.join(ROOT, "configs", name))
    config = ExperimentConfig.from_dict(loaded).validate()
    for field, value in expected.items():
        assert getattr(config, field) == value, field


def test_run_experiment_structure(tmp_path):
    config = _cfg(tmp_path, n=400, d=10)
    report = run_experiment(config)
    assert set(report.wall_time_seconds) == set(STAGES)
    assert all(v >= 0.0 for v in report.wall_time_seconds.values())
    assert report.wall_time_seconds["data"] > 0.0
    assert report.wall_time_seconds["clustering"] == 0.0
    assert report.wall_time_seconds["output"] > 0.0
    assert len(report.eigenvalues) == 10
    assert report.eigenvalues == sorted(report.eigenvalues, reverse=True)
    assert report.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
    assert report.effective_rank == 10
    assert report.comparison is None

    out = tmp_path / "out"
    for name in ("report.json", "embedding.csv", "config.txt"):
        assert (out / name).exists()
    payload = json.loads((out / "report.json").read_text())
    assert "relative_error" not in payload and "comparison" not in payload
    assert payload["config"] == report.config
    assert payload["wall_time_seconds"] == report.wall_time_seconds
    assert payload["eigenvalues"] == report.eigenvalues

    lines = (out / "embedding.csv").read_text().splitlines()
    assert lines[0] == ",".join(f"c{i}" for i in range(1, 11))
    assert len(lines) == 401


def test_run_experiment_repeat_is_bitwise_identical(tmp_path):
    r1 = run_experiment(_cfg(tmp_path / "a", method="nystrom_projection", seed=3))
    r2 = run_experiment(_cfg(tmp_path / "b", method="nystrom_projection", seed=3))
    assert r1.eigenvalues == r2.eigenvalues
    csv1 = (tmp_path / "a" / "out" / "embedding.csv").read_bytes()
    csv2 = (tmp_path / "b" / "out" / "embedding.csv").read_bytes()
    assert csv1 == csv2


def test_run_nystrom_methods_never_build_kernel(tmp_path):
    for method in ("nystrom_projection", "nystrom_columns"):
        report = run_experiment(_cfg(tmp_path / method, method=method))
        assert report.wall_time_seconds["kernel"] == 0.0
        assert report.wall_time_seconds["decomposition"] > 0.0
        assert report.effective_rank <= 8
        vals = np.array(report.eigenvalues)
        assert vals.min() >= -1e-8 and vals.max() <= 1.0 + 1e-8


def test_run_sketch_too_large(tmp_path, kernel_entries):
    # Checked before any kernel entry: compare fails before its exact solve.
    for entry, method in (
        (run_experiment, "nystrom_projection"),
        (run_experiment, "nystrom_columns"),
        (compare_methods, "deterministic"),
    ):
        config = _cfg(tmp_path, n=10, d=8, oversampling=8, method=method)
        with pytest.raises(ParameterError, match="exceeds n = 10"):
            entry(config)
    assert kernel_entries == []


def test_decompose_rejects_bad_arguments_before_any_kernel_entry(kernel_entries):
    X = generate_helix(200, noise_std=0.05, seed=0)
    with pytest.raises(ParameterError, match="unknown method"):
        decompose(X, 0.5, "exact", 5)
    with pytest.raises(ParameterError, match="exceeds n = 200"):
        decompose(X, 0.5, "nystrom_columns", 150, oversampling=51)
    for method in ("deterministic", "nystrom_projection", "nystrom_columns"):
        for d in (0, 201):
            with pytest.raises(ParameterError, match=r"need 1 <= d <= n=200"):
                decompose(X, 0.5, method, d, oversampling=0)
    for method in METHODS:
        with pytest.raises(ParameterError, match="oversampling must be >= 0"):
            decompose(X, 0.5, method, 10, oversampling=-1)
    # ExperimentConfig checks the same settings, with the same messages.
    bad = [dict(method="exact"), dict(d=0), dict(d=201)]
    bad += [dict(method="nystrom_columns", d=150, oversampling=51)]
    for method in METHODS:
        bad += [dict(method=method, oversampling=-1), dict(method=method, seed=-1)]
        bad += [dict(method=method, power_iterations=-3)]
    for kw in bad:
        settings = dict(method="deterministic", d=10, oversampling=10) | kw
        with pytest.raises(ParameterError) as from_decompose:
            decompose(X, 0.5, **settings)
        with pytest.raises(ParameterError) as from_config:
            ExperimentConfig(n=200, **settings).validate()
        assert str(from_config.value) == str(from_decompose.value), kw
    assert kernel_entries == []


def test_decompose_rejects_negative_power_iterations(kernel_entries):
    X = generate_helix(300, noise_std=0.05, seed=0)
    for method in METHODS:
        with pytest.raises(ParameterError, match="power_iterations must be >= 0"):
            decompose(X, 0.5, method, 10, power_iterations=-3)
    assert kernel_entries == []


def test_decompose_rejects_negative_seed(kernel_entries):
    X = generate_helix(300, noise_std=0.05, seed=0)
    for method in METHODS:
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            decompose(X, 0.5, method, 10, seed=-1)
    assert kernel_entries == []


def _half_pass_entries(n):
    return sum((i1 - i0) * (n - i0) for i0, i1 in kernel.row_blocks(n, n))


@pytest.mark.parametrize("q", [1, 2])
def test_decompose_projection_kernel_entries(kernel_entries, block_rows, q):
    # q + 1 half-pass multiplies, the first by K itself: one per Krylov
    # block.
    n, l = 300, 20
    X = generate_helix(n, noise_std=0.05, seed=1)
    block_rows(64, n)
    decompose(X, 0.5, "nystrom_projection", 10, oversampling=l - 10, power_iterations=q)
    assert sum(kernel_entries) == (q + 1) * _half_pass_entries(n)


def test_decompose_projection_without_power_iterations(kernel_entries, block_rows):
    n, l = 300, 20
    X = generate_helix(n, noise_std=0.05, seed=1)
    block_rows(64, n)
    model = decompose(X, 0.5, "nystrom_projection", 10, oversampling=l - 10, power_iterations=0)
    assert sum(kernel_entries) == _half_pass_entries(n)
    # The degrees are the first product's ones column, K 1: the exact row
    # sums to rounding.
    deg = degree_vector(X, 0.5)
    assert np.max(np.abs(model.degrees.values - deg.values) / deg.values) <= 1e-14
    assert model.rank_d == 10
    assert model.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(model.eigenvalues) <= 0.0)
    assert model.eigenvalues[-1] >= 0.0
    assert np.all(np.isfinite(model.eigenvectors_markov))


def test_decompose_keywords_are_the_config_settings():
    # decompose takes the data, the method, a clock and ExperimentConfig's
    # settings under their field names and defaults; nothing else.
    params = inspect.signature(decompose).parameters
    assert set(params) == {"X", "method", "clock", *_SETTINGS}
    assert set(_SETTINGS) <= {f.name for f in fields(ExperimentConfig)}
    for name in _SETTINGS:
        if params[name].default is not inspect.Parameter.empty:
            assert params[name].default == getattr(ExperimentConfig, name)


def test_compare_runs_each_sketch_as_run_does(tmp_path, kernel_entries):
    # compare reaches every method through decompose alone: its projection
    # multiplies by the matrix-free operator, as run does, so it gives the
    # standalone spectrum bitwise and evaluates the same kernel entries.
    config = _cfg(tmp_path, n=400)
    X = generate_helix(config.n, config.noise_std, config.seed)
    settings = {name: getattr(config, name) for name in _SETTINGS}
    entries, models = {}, {}
    for method in METHODS:
        kernel_entries.clear()
        models[method] = decompose(X, method=method, **settings)
        entries[method] = sum(kernel_entries)
    assert entries["deterministic"] == _half_pass_entries(config.n)
    assert entries["nystrom_projection"] == (
        (config.power_iterations + 1) * _half_pass_entries(config.n)
    )
    assert entries["nystrom_columns"] > 0
    kernel_entries.clear()
    report = compare_methods(config)
    assert sum(kernel_entries) == sum(entries.values())
    for method in ("nystrom_projection", "nystrom_columns"):
        assert report.comparison[method]["eigenvalues"] == [
            float(v) for v in models[method].eigenvalues
        ]
    assert report.eigenvalues == [float(v) for v in models["deterministic"].eigenvalues]


def test_compare_structure(tmp_path):
    config = _cfg(tmp_path, n=250)
    report = compare_methods(config)
    assert set(report.comparison) == {"nystrom_projection", "nystrom_columns"}
    # every stage is kept, the per-strategy ones included
    assert set(report.wall_time_seconds) == set(STAGES) | set(report.comparison)
    assert report.wall_time_seconds["output"] > 0.0
    for method, block in report.comparison.items():
        assert report.wall_time_seconds[method] >= block["decomposition_seconds"]
    block_keys = {
        "decomposition_seconds",
        "embedding_seconds",
        "speedup_decomposition",
        "speedup_pipeline",
        "relative_error",
        "effective_rank",
        "eigenvalues",
    }
    for method, block in report.comparison.items():
        # Only column sampling approximates the degrees, so only it reports
        # their error.
        extra = {"degree_rel_err"} if method == "nystrom_columns" else set()
        assert set(block) == block_keys | extra
        assert block["decomposition_seconds"] > 0.0
        assert block["speedup_decomposition"] > 0.0
        assert 0.0 <= block["relative_error"]
        assert block["eigenvalues"] == sorted(block["eigenvalues"], reverse=True)

    out = tmp_path / "out"
    for name in (
        "report.json",
        "embedding_deterministic.csv",
        "embedding_nystrom_projection.csv",
        "embedding_nystrom_columns.csv",
        "spectrum.csv",
        "config.txt",
    ):
        assert (out / name).exists()
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "eigval_index,deterministic,nystrom_projection,nystrom_columns"
    assert len(lines) == 1 + max(
        len(report.eigenvalues),
        *(len(b["eigenvalues"]) for b in report.comparison.values()),
    )


def test_compare_accuracy_and_column_speed(tmp_path):
    config = _cfg(tmp_path, n=2000, d=50, oversampling=10, power_iterations=2)
    reports = [compare_methods(config) for _ in range(3)]
    proj = reports[0].comparison["nystrom_projection"]
    assert proj["relative_error"] <= 1e-3
    # Column sampling skips every full-operator multiply; even at this
    # small size it must beat the dense reference.  Each side's fastest of
    # three runs is compared, so one noisy sample cannot decide the gate.
    cols = min(r.comparison["nystrom_columns"]["decomposition_seconds"] for r in reports)
    exact = min(r.wall_time_seconds["decomposition"] for r in reports)
    assert cols < exact


def test_compare_reports_column_degree_error(tmp_path):
    # The worst point's error falls with the sketch size: about 4e-3 at
    # l = 60 and 1e-4 at l = 120 here.
    config = _cfg(tmp_path, n=2000, d=20, oversampling=100)
    report = compare_methods(config)
    assert 0.0 <= report.comparison["nystrom_columns"]["degree_rel_err"] < 1e-3


def test_run_columns_fetches_only_pivot_columns(tmp_path, kernel_entries):
    # No full kernel pass: neither exact degrees nor anything beyond the
    # pivot blocks' columns.
    n = 2003
    config = _cfg(tmp_path, n=n, d=40, oversampling=10, method="nystrom_columns")
    report = run_experiment(config)
    assert report.wall_time_seconds["degrees"] == 0.0
    assert 0 < sum(kernel_entries) <= (50 + -(-50 // PIVOT_ROUNDS)) * n


def test_run_projection_takes_degrees_inside_decomposition(tmp_path):
    # The ones column of the sketch's first multiply gives the degrees, so
    # neither the kernel nor the degrees stage runs.
    out = tmp_path / "cli"
    assert main(["run", "--method", "nys-rp", "--n", "400", "--rank", "10", "--out", str(out)]) == 0
    times = _report(out / "report.json")["wall_time_seconds"]
    assert times["kernel"] == 0.0 and times["degrees"] == 0.0
    assert times["decomposition"] > 0.0


def test_run_columns_near_identity_kernel_exits_3(tmp_path, capsys):
    out = str(tmp_path / "cli")
    code = main(
        ["run", "--method", "nys-cols", "--n", "2000", "--sigma", "1e-4", "--out", out]
    )
    assert code == 3
    assert re.search(r"leaves \d+ of 2000 points unconnected", capsys.readouterr().err)
    assert not os.path.exists(os.path.join(out, "report.json"))


def _tracer():
    # perfbench/tracer.py, loaded by path: it wraps the layer functions at
    # its SITES, (module, attribute) pairs, and a name that no longer
    # resolves breaks only the benchmark's traced run.
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_sites():
    return _tracer().SITES


def test_tracer_sites_resolve():
    tracer = _tracer()
    assert tracer.SITES
    for path, attr in tracer.SITES:
        assert callable(getattr(tracer._owner(path), attr, None)), f"{path}.{attr}"


def test_exports_resolve_sorted_and_unique():
    import nydmap

    names = nydmap.__all__
    for name in names:
        assert hasattr(nydmap, name), name
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert "NystromFactors" not in names


def test_modules_load_every_name_they_import():
    # An import nothing loads is dead code.  The package's __init__ imports
    # to re-export, and a tracer site is looked up from outside.
    traced = set(_tracer_sites())
    src = os.path.join(ROOT, "src", "nydmap")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused = sorted(
            n for n in imported - loaded if (name[:-3], n) not in traced
        )
        assert not unused, f"{name} imports {unused} without using them"


def test_nystrom_uses_no_scipy():
    # numpy and scipy each load their own OpenBLAS and thread pool.  With
    # scipy's QR and eigh between numpy products, one helix n = 6000, d = 100
    # projection decomposition on 2 cores spent 0.69-0.73 s in its 5 QRs
    # (0.30-0.36 s for the same calls repeated alone) and 0.06-0.11 s in
    # one 110 x 110 eigh (0.0025 s alone); on numpy they take 0.30-0.32 s
    # and 0.0015 s, and the decomposition 2.9-3.0 s instead of 3.7-4.4 s.
    # The sketches stay on numpy; the exact solve keeps scipy.
    with open(os.path.join(ROOT, "src", "nydmap", "nystrom.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert not {m for m in modules if m.split(".")[0] == "scipy"}, modules


def test_sketch_pipelines_never_load_scipy(tmp_path):
    # Importing scipy costs about 0.3 s and 33 MB of resident memory and
    # loads a second OpenBLAS; only the exact solve needs it.
    script = f"""
import sys
from nydmap import ExperimentConfig, compare_methods, run_experiment

def config(**kw):
    return ExperimentConfig(n=300, d=8, output_dir={str(tmp_path)!r}, **kw)

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

run_experiment(config(method="nystrom_projection"))
run_experiment(config(method="nystrom_columns", cluster_k=3))
assert not scipy_modules(), scipy_modules()
compare_methods(config())
assert "scipy.sparse.linalg" in scipy_modules(), scipy_modules()
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_compare_with_clustering(tmp_path):
    config = _cfg(tmp_path, n=200, d=5, cluster_k=2)
    report = compare_methods(config)
    assert report.clustering["k"] == 2
    assert report.clustering["inertia"] >= 0.0
    assert report.wall_time_seconds["clustering"] > 0.0
    out = tmp_path / "out"
    det_header = (out / "embedding_deterministic.csv").read_text().splitlines()[0]
    assert det_header.endswith(",label")
    nys_header = (out / "embedding_nystrom_projection.csv").read_text().splitlines()[0]
    assert "label" not in nys_header


@pytest.mark.parametrize("method", METHODS)
def test_embedding_csv_reloads_in_process_result(tmp_path, method):
    config = _cfg(tmp_path, method=method, cluster_k=3)
    run_experiment(config)
    saved = np.loadtxt(tmp_path / "out" / "embedding.csv", delimiter=",", skiprows=1)
    X = generate_helix(config.n, config.noise_std, config.seed)
    model = decompose(
        X, config.sigma, method, config.d, oversampling=config.oversampling,
        power_iterations=config.power_iterations, seed=config.seed,
    )
    emb = diffusion_map(model, config.t, config.d)
    labels = kmeans_cluster(emb, config.cluster_k, seed=config.seed)
    assert np.array_equal(saved[:, :-1].view(np.uint64), emb.coords.view(np.uint64))
    assert np.array_equal(saved[:, -1], labels.labels)


def test_report_records_kmeans_iterations(tmp_path):
    config = _cfg(tmp_path, method="nystrom_columns", cluster_k=3)
    run_experiment(config)
    saved = json.loads((tmp_path / "out" / "report.json").read_text())["clustering"]
    X = generate_helix(config.n, config.noise_std, config.seed)
    model = decompose(
        X, config.sigma, "nystrom_columns", config.d, oversampling=config.oversampling,
        seed=config.seed,
    )
    labels = kmeans_cluster(diffusion_map(model, config.t, config.d), 3, seed=config.seed)
    assert saved == {
        "k": 3,
        "inertia": labels.inertia,
        "iterations": len(labels.inertia_history),
        "converged": True,
    }
    assert saved["iterations"] >= 1


def test_report_records_kmeans_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(embedding, "KMEANS_MAX_ITERS", 1)
    run_experiment(_cfg(tmp_path, method="nystrom_columns", cluster_k=3))
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    assert saved["clustering"]["iterations"] == 1
    assert saved["clustering"]["converged"] is False
    assert [w for w in saved["warnings"] if "k-means" in w] == [
        "k-means stopped at its cap of 1 rounds with the assignment still changing"
    ]


def test_compare_spectrum_csv_reloads_report_eigenvalues(tmp_path):
    # Three tight clusters: every method returns 3 of the 10 eigenvalues.
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    points = np.repeat(centers, 20, axis=0) + rng.normal(scale=1e-7, size=(60, 3))
    src = tmp_path / "clusters.csv"
    save_csv(str(src), DataMatrix(points))
    config = _cfg(
        tmp_path, dataset="csv", csv_path=str(src), n=0, d=10, sigma=0.5, oversampling=5
    )
    report = compare_methods(config)
    spectra = [report.eigenvalues] + [b["eigenvalues"] for b in report.comparison.values()]
    expected = np.full((3, 4), np.nan)
    expected[:, 0] = np.arange(3)
    for j, vals in enumerate(spectra):
        expected[: len(vals), j + 1] = vals
    assert [len(vals) for vals in spectra] == [3, 3, 3]
    saved = np.loadtxt(tmp_path / "out" / "spectrum.csv", delimiter=",", skiprows=1)
    assert np.array_equal(saved, expected, equal_nan=True)


def test_csv_dataset(tmp_path):
    rng = np.random.default_rng(0)
    points = DataMatrix(rng.normal(size=(50, 3)))
    src = tmp_path / "points.csv"
    save_csv(str(src), points)
    config = _cfg(
        tmp_path, dataset="csv", csv_path=str(src), n=0, d=5, sigma=1.0
    )
    report = run_experiment(config)
    assert report.config["csv_path"] == str(src)
    assert len((tmp_path / "out" / "embedding.csv").read_text().splitlines()) == 51

    config = _cfg(
        tmp_path / "sub", dataset="csv", csv_path=str(src), n=20, d=5, sigma=1.0
    )
    run_experiment(config)
    lines = (tmp_path / "sub" / "out" / "embedding.csv").read_text().splitlines()
    assert len(lines) == 21


def test_lorenz_dataset(tmp_path):
    # At sigma = 10 the spectrum decays so slowly (the exact second
    # eigenvalue is 0.989) that the sketch's top eigenvalue reads 0.990.
    config = _cfg(
        tmp_path,
        dataset="lorenz",
        n=400,
        sigma=40.0,
        d=5,
        method="nystrom_projection",
        oversampling=10,
        power_iterations=2,
    )
    report = run_experiment(config)
    assert report.eigenvalues[0] == pytest.approx(1.0, abs=1e-4)
    assert report.eigenvalues[1] < 0.96
    coords = load_csv(str(tmp_path / "out" / "embedding.csv"), skip_header=True)
    assert coords.values.shape == (400, 5)


def test_truncation_warning_recorded(tmp_path):
    rng = np.random.default_rng(1)
    base = rng.normal(size=(3, 3)) * 5.0
    points = DataMatrix(np.repeat(base, 20, axis=0))
    src = tmp_path / "dup.csv"
    save_csv(str(src), points)
    config = _cfg(
        tmp_path,
        dataset="csv",
        csv_path=str(src),
        n=0,
        d=10,
        sigma=0.5,
        method="nystrom_projection",
        oversampling=5,
    )
    report = run_experiment(config)
    assert report.effective_rank < 10
    assert any("effective rank" in w for w in report.warnings)


def test_compare_scores_truncated_sketches(tmp_path, capsys):
    # Three tight clusters: the kernel has numerical rank 3, so the exact
    # solve and both sketches return 3 of the 10 eigenpairs asked for.
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    points = np.repeat(centers, 20, axis=0) + rng.normal(scale=1e-7, size=(60, 3))
    src = tmp_path / "clusters.csv"
    save_csv(str(src), DataMatrix(points))
    out = tmp_path / "out"
    code = main([
        "compare", "--dataset", "csv", "--csv-path", str(src), "--n", "0",
        "--rank", "10", "--sigma", "0.5", "--oversample", "5", "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    for name in (
        "report.json",
        "embedding_deterministic.csv",
        "embedding_nystrom_projection.csv",
        "embedding_nystrom_columns.csv",
        "spectrum.csv",
        "config.txt",
    ):
        assert (out / name).exists()
    spectrum = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
    assert spectrum.shape == (3, 4) and not np.isnan(spectrum).any()
    report = _report(out / "report.json")
    assert report["effective_rank"] == 3
    for block in report["comparison"].values():
        assert block["effective_rank"] == 3
        assert block["relative_error"] >= 0.0
    truncations = [w for w in report["warnings"] if "effective rank 3; returning 3" in w]
    assert len(truncations) == 1 + len(report["comparison"])


def test_compare_scores_sketches_against_a_narrower_reference(tmp_path, monkeypatch):
    # An exact solve that keeps fewer components than the sketches: each
    # pair is scored at the sketch's width, the reference's missing
    # components counting as zeros.  Patching spectral.RANK_TOL moves the
    # exact solve's cutoff alone: nystrom holds its own binding of it.
    monkeypatch.setattr(spectral, "RANK_TOL", 0.5)
    report = compare_methods(_cfg(tmp_path, d=10))
    kept = report.effective_rank
    assert 1 < kept < 10
    assert any(f"operator has effective rank {kept}" in w for w in report.warnings)
    out = tmp_path / "out"
    spectrum = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
    assert np.isnan(spectrum[kept:, 1]).all() and not np.isnan(spectrum[:, 2:]).any()
    ref = np.loadtxt(out / "embedding_deterministic.csv", delimiter=",", skiprows=1)
    ref = np.abs(np.pad(ref, ((0, 0), (0, 10 - kept))))
    for method, block in report.comparison.items():
        assert block["effective_rank"] == 10
        approx = np.loadtxt(out / f"embedding_{method}.csv", delimiter=",", skiprows=1)
        expected = np.linalg.norm(ref - np.abs(approx)) / np.linalg.norm(ref)
        assert block["relative_error"] == pytest.approx(expected, rel=1e-12)


def test_projection_rank_collapse_warned_once(tmp_path, capsys):
    # The kernel of three tight clusters has rank 3 at a 1e-12 relative
    # cutoff, but 12 relative singular values above the QR's n * eps
    # (1.3e-14): the first QR of the sketch reads 9, and later QRs count
    # noise from Householder completion columns and read 15.  The one
    # warning names the smallest rank, the first QR's.
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    points = np.repeat(centers, 20, axis=0) + rng.normal(scale=1e-7, size=(60, 3))
    src = tmp_path / "clusters.csv"
    save_csv(str(src), DataMatrix(points))
    out = tmp_path / "out"
    code = main([
        "run", "--method", "nys-rp", "--dataset", "csv", "--csv-path", str(src),
        "--n", "0", "--rank", "10", "--sigma", "0.5", "--oversample", "5",
        "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    warnings = _report(out / "report.json")["warnings"]
    assert [w for w in warnings if "sketch rank" in w] == ["sketch rank collapsed to 9 of 15"]


def test_partial_outputs_removed_on_write_failure(tmp_path, monkeypatch):
    # spectrum.csv is written after the three embedding CSVs; all go.
    written = []

    def fail_on_spectrum(path, values, header=None):
        if os.path.basename(path) == "spectrum.csv":
            raise OSError("disk full")
        save_csv(path, values, header)
        written.append(os.path.basename(path))

    monkeypatch.setattr("nydmap.runner.save_csv", fail_on_spectrum)
    config = _cfg(tmp_path, n=120, d=4, oversampling=4)
    with pytest.raises(OSError):
        compare_methods(config)
    assert len(written) == 3
    out = tmp_path / "out"
    assert os.listdir(out) == []


class _HalfWriter:
    """A text file whose first write stores half its text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("disk full")


@pytest.mark.parametrize("target", ["embedding.csv", "report.json"])
def test_half_written_output_removed_on_write_failure(tmp_path, monkeypatch, target):
    def half_save_csv(path, values, header=None):
        with open(path, "wb") as fh:
            fh.write(b"c1,c2\n0.5,")
        raise OSError("disk full")

    def half_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _HalfWriter(fh) if os.path.basename(path) == target else fh

    if target == "embedding.csv":
        monkeypatch.setattr("nydmap.runner.save_csv", half_save_csv)
    else:
        monkeypatch.setattr("nydmap.runner.open", half_open, raising=False)
    config = _cfg(tmp_path, n=120, d=4, oversampling=4)
    with pytest.raises(OSError):
        run_experiment(config)
    assert os.listdir(tmp_path / "out") == []


def test_every_cli_flag_sets_its_field():
    argv = [
        "run",
        "--dataset", "swiss",
        "--csv-path", "points.csv",
        "--csv-skip-header",
        "--n", "123",
        "--sigma", "0.7",
        "--rank", "9",
        "--t", "2.5",
        "--method", "nys-rp",
        "--oversample", "4",
        "--power-iters", "3",
        "--seed", "5",
        "--out", "elsewhere",
        "--drop-trivial",
        "--classic-weighting",
        "--cluster", "3",
        "--noise-std", "0.01",
    ]
    expected = ExperimentConfig(
        dataset="swiss_roll",
        csv_path="points.csv",
        csv_skip_header=True,
        n=123,
        sigma=0.7,
        d=9,
        t=2.5,
        method="nystrom_projection",
        oversampling=4,
        power_iterations=3,
        seed=5,
        output_dir="elsewhere",
        drop_trivial=True,
        classic_weighting=True,
        cluster_k=3,
        noise_std=0.01,
    )
    # Every field differs from its default, so a flag that maps nowhere shows.
    defaults = ExperimentConfig()
    for f in fields(ExperimentConfig):
        assert getattr(expected, f.name) != getattr(defaults, f.name), f.name
    assert _config_from_args(build_parser().parse_args(argv)) == expected
    # Flags left unset leave every default in place.
    for command in ("run", "compare"):
        assert _config_from_args(build_parser().parse_args([command])) == defaults


def test_main_success_and_aliases(tmp_path, capsys):
    out = str(tmp_path / "cli")
    code = main(
        [
            "run",
            "--dataset",
            "helix",
            "--n",
            "120",
            "--rank",
            "5",
            "--method",
            "det",
            "--out",
            out,
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "stages:" in text and "report.json" in text
    config = _report(os.path.join(out, "report.json"))["config"]
    assert config["method"] == "deterministic"
    assert config["dataset"] == "helix"


def test_main_swiss_alias_and_compare(tmp_path, capsys):
    out = str(tmp_path / "cmp")
    code = main(
        [
            "compare",
            "--dataset",
            "swiss",
            "--n",
            "150",
            "--rank",
            "4",
            "--oversample",
            "4",
            "--out",
            out,
        ]
    )
    assert code == 0
    assert "speedup" in capsys.readouterr().out
    report = _report(os.path.join(out, "report.json"))
    assert report["config"]["dataset"] == "swiss_roll"
    assert set(report["comparison"]) == {"nystrom_projection", "nystrom_columns"}


def test_main_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "override.cfg"
    cfg.write_text("n = 150\nrank = 4\n")
    out = str(tmp_path / "cli")
    code = main(
        [
            "run",
            "--dataset",
            "helix",
            "--n",
            "99",
            "--rank",
            "6",
            "--method",
            "det",
            "--config",
            str(cfg),
            "--out",
            out,
        ]
    )
    assert code == 0
    capsys.readouterr()
    config = _report(os.path.join(out, "report.json"))["config"]
    assert config["n"] == 150
    assert config["d"] == 4
    assert config["dataset"] == "helix"


def test_config_file_accepts_value_aliases(tmp_path):
    cfg = tmp_path / "aliases.cfg"
    cfg.write_text("method = nys-rp\ndataset = swiss\n")
    from_file = _config_from_args(build_parser().parse_args(["run", "--config", str(cfg)]))
    from_flags = _config_from_args(
        build_parser().parse_args(["run", "--method", "nys-rp", "--dataset", "swiss"])
    )
    assert from_file == from_flags
    assert (from_file.method, from_file.dataset) == ("nystrom_projection", "swiss_roll")


def test_load_config_file_resolves_value_aliases(tmp_path):
    cfg = tmp_path / "aliases.cfg"
    cfg.write_text("method = nys-rp\ndataset = swiss\n")
    loaded = ExperimentConfig.from_dict(load_config_file(str(cfg)))
    loaded.validate()
    from_flags = _config_from_args(
        build_parser().parse_args(["run", "--method", "nys-rp", "--dataset", "swiss"])
    )
    assert loaded == from_flags


def test_main_exit_code_2_on_bad_config(tmp_path, capsys, kernel_entries):
    # Each is rejected before the kernel pass and writes nothing; the n of a
    # csv file read whole is checked once the file is loaded.
    data = tmp_path / "points.csv"
    save_csv(str(data), generate_helix(30, 0.05, 0).values)
    csv = ["--dataset", "csv", "--csv-path", str(data), "--n", "0"]
    out = tmp_path / "x"
    for argv, message in (
        (["--n", "1"], "need n >= 2 observations"),
        (["--method", "det", "--n", "300", "--rank", "301"], "need 1 <= d <= n=300"),
        (["--n", "50", "--rank", "1", "--drop-trivial"], "no component of d=1"),
        (["--n", "50", "--rank", "5", "--cluster", "51"], "cluster_k <= n=50, got 51"),
        ([*csv, "--rank", "5", "--cluster", "31"], "cluster_k <= n=30, got 31"),
    ):
        assert main(["run", *argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert kernel_entries == []


def test_main_exit_code_2_on_negative_seed(tmp_path, capsys, kernel_entries):
    out = tmp_path / "x"
    code = main(["run", "--seed", "-1", "--n", "300", "--rank", "5", "--out", str(out)])
    assert code == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    assert kernel_entries == []


def test_main_exit_code_2_on_missing_file(tmp_path, capsys):
    code = main(
        [
            "run",
            "--dataset",
            "csv",
            "--csv-path",
            str(tmp_path / "absent.csv"),
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_main_exit_code_2_on_ragged_csv(tmp_path, capsys):
    bad = tmp_path / "ragged.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    code = main(
        [
            "run",
            "--dataset",
            "csv",
            "--csv-path",
            str(bad),
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--method", "det"], ["compare"]])
def test_main_exit_code_3_when_kernel_exceeds_available_memory(
    tmp_path, capsys, monkeypatch, command
):
    # The system reports 1 byte less than the 60^2 doubles the kernel needs.
    monkeypatch.setattr(kernel, "_available_memory_bytes", lambda: 8 * 60 * 60 - 1)
    out = str(tmp_path / "x")
    code = main(command + ["--n", "60", "--rank", "4", "--out", out])
    assert code == 3
    assert "needs 28800 bytes, but only 28799 bytes are available" in (
        capsys.readouterr().err
    )
    assert not os.path.exists(os.path.join(out, "report.json"))


@pytest.mark.parametrize(
    "method, needed",
    # l = 4 + 10 columns; the projection basis has q + 2 = 4 blocks of them.
    [("nys-cols", 8 * 60 * 14), ("nys-rp", 8 * 60 * 4 * 14)],
)
def test_main_exit_code_3_when_sketch_exceeds_available_memory(
    tmp_path, capsys, monkeypatch, method, needed
):
    monkeypatch.setattr(kernel, "_available_memory_bytes", lambda: needed - 1)
    out = tmp_path / "x"
    code = main(["run", "--method", method, "--n", "60", "--rank", "4", "--out", str(out)])
    assert code == 3
    assert f"n=60 needs {needed} bytes, but only {needed - 1} bytes are available" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_main_exit_code_3_on_degenerate_embedding(tmp_path, capsys):
    # Sixty copies of one point: the column sketch's rank collapses to 1,
    # and with the trivial component dropped no coordinates are left.
    same = tmp_path / "same.csv"
    same.write_text("1.0,1.0\n" * 60)
    code = main(
        [
            "run",
            "--dataset",
            "csv",
            "--csv-path",
            str(same),
            "--n",
            "0",
            "--rank",
            "2",
            "--oversample",
            "0",
            "--drop-trivial",
            "--method",
            "nys-cols",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 3
    assert "embedding" in capsys.readouterr().err


def test_main_exit_code_3_on_degenerate_exact_embedding(tmp_path, capsys):
    # Sixty copies of one point: the exact solve keeps only eigenvalue 1 and
    # says so, and with the trivial component dropped no coordinates are
    # left, as for the column sketch above.
    same = tmp_path / "same.csv"
    same.write_text("1.0,1.0\n" * 60)
    code = main(
        [
            "run",
            "--dataset",
            "csv",
            "--csv-path",
            str(same),
            "--n",
            "0",
            "--rank",
            "2",
            "--drop-trivial",
            "--method",
            "det",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 3
    assert "embedding" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_main_argparse_failures(capsys):
    for argv in (
        ["run", "--bogus"],
        [],
        ["run", "--dataset", "mnist"],
        ["run", "--method", "exact"],
        ["compare", "--method", "det"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["run", "--n", "abc"])
    assert "argument --n: invalid int value: 'abc'" in capsys.readouterr().err


def test_package_runs_as_module():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "nydmap", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("nydmap ")
    assert "RuntimeWarning" not in proc.stderr
