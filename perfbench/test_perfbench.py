"""Tests of the benchmark itself, on the smoke size (n = 500).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from tracer import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def _result(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        LAYER_METRICS
    )
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert spec["paths"] == ["perfbench"]


def test_smoke_untraced_reports_every_end_to_end_metric():
    code, lines = _bench("--workload", "all", "--smoke", "--seconds", "1", "--seed", "4")
    result = _result(lines)
    assert code == 0 and result["correct"] and result["failed"] == 0
    for name in WORKLOADS:
        for metric in ("wall_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][f"{name}/{metric}"]["value"] > 0
        assert any(line.startswith(f"metric {name} fail_frac = 0 ") for line in lines)
    printed = " ".join(lines)
    for metric in ("eig_rel_err.rp", "emb_rel_err.rp", "eig_rel_err.cols", "emb_rel_err.cols"):
        assert f"metric compare-6k {metric} =" in printed
        assert f"metric cols-cluster-15k {metric}" not in printed
    assert "metric rp-stream-6k emb_rel_err.rp =" in printed
    assert "metric rp-stream-6k emb_rel_err.cols" not in printed


def test_smoke_traced_reports_every_layer_metric():
    code, lines = _bench(
        "--workload", "all", "--smoke", "--seconds", "1", "--trace", "1", "--seed", "4"
    )
    result = _result(lines)
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    for name in WORKLOADS:
        for metric, unit, _ in LAYER_METRICS:
            assert metrics[f"{name}/{metric}"]["unit"] == unit
        assert metrics[f"{name}/trace.coverage"]["value"] == pytest.approx(1.0, abs=1e-6)
    # q = 2: one degree pass plus six operator multiplies.
    assert metrics["rp-stream-6k/kernel.passes"]["value"] == 7
    assert metrics["rp-stream-6k/spectral.matmat_calls"]["value"] == 6
    assert metrics["compare-6k/spectral.matmat_calls"]["value"] == 0
    assert metrics["compare-6k/spectral.eigensolve_s"]["value"] > 0
    assert metrics["rp-stream-6k/spectral.eigensolve_s"]["value"] == 0
    assert metrics["cols-cluster-15k/embedding.kmeans_iters"]["value"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    code, lines = _bench("--workload", "rp-stream-6k", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_refcheck_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/refcheck.py", "--smoke", "--seed", "4"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    from nydmap.runner import ExperimentConfig, run_experiment

    workload = WORKLOADS["rp-stream-6k"]
    out_dir = str(tmp_path_factory.mktemp("rp"))
    fields = workload.config_fields(5, True, out_dir)
    run_experiment(ExperimentConfig(**fields))
    ref = checks.reference(fields, str(tmp_path_factory.mktemp("refcache")))
    return workload, fields, out_dir, ref


def _check(smoke_outputs):
    workload, fields, out_dir, ref = smoke_outputs
    return checks.check_outputs(workload, fields, out_dir, lambda: ref)


def test_check_accepts_sound_outputs(smoke_outputs):
    problems, digest, accuracy, _ = _check(smoke_outputs)
    assert problems == []
    assert len(digest) == 16
    assert 0 < accuracy["emb_rel_err.rp"] < 1e-3


def test_check_flags_broken_embedding(smoke_outputs):
    _, _, out_dir, _ = smoke_outputs
    path = os.path.join(out_dir, "embedding.csv")
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    try:
        header, first, rest = original.split("\n", 2)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([header, ",".join(["nan"] * len(first.split(","))), rest]))
        problems, _, _, _ = _check(smoke_outputs)
        assert any("non-finite" in p for p in problems)
        values = np.loadtxt(original.splitlines()[1:], delimiter=",")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            np.savetxt(fh, values * 0.5, delimiter=",", fmt="%.17g")
        problems, _, _, _ = _check(smoke_outputs)
        assert any("emb_rel_err.rp" in p for p in problems)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)


def test_check_flags_ascending_eigenvalues(smoke_outputs):
    _, _, out_dir, _ = smoke_outputs
    path = os.path.join(out_dir, "report.json")
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    try:
        report = json.loads(original)
        report["eigenvalues"] = report["eigenvalues"][::-1]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        problems, _, _, _ = _check(smoke_outputs)
        assert any("not descending" in p for p in problems)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)


def test_layer_metrics_self_times_and_gaps():
    spans = [
        {"id": 0, "name": "kernel.degree_vector", "parent": None, "start": 1.0, "end": 3.0},
        {"id": 1, "name": "kernel.gaussian_kernel_block", "parent": 0, "start": 1.5, "end": 2.5,
         "entries": 100},
        {"id": 2, "name": "nystrom.gaussian_sketch_basis", "parent": None, "start": 4.0, "end": 8.0},
        {"id": 3, "name": "spectral.DiffusionOperator.matmat", "parent": 2, "start": 4.0, "end": 7.0},
        {"id": 4, "name": "kernel.gaussian_kernel_block", "parent": 3, "start": 4.0, "end": 6.0,
         "entries": 100},
    ]
    m = layer_metrics(spans, 10, 0.0, 10.0, ["sketch rank collapsed to 3 of 4"], 2 << 20)
    assert m["kernel.passes"] == 2
    assert m["kernel.block_s"] == 3.0
    assert m["kernel.degrees_s"] == 2.0
    assert m["spectral.matmat_calls"] == 1
    assert m["spectral.matmat_self_s"] == 1.0
    assert m["nystrom.basis_self_s"] == 1.0
    assert m["nystrom.rank_warnings"] == 1
    assert m["runner.self_s"] == 4.0  # 0-1, 3-4 and 8-10
    assert m["runner.write_s"] == 2.0
    assert m["runner.write_mb_per_s"] == 1.0
    assert m["trace.coverage"] == 1.0
