"""Acceptance gate: nine end-to-end checks of the library's core claims.

Each test evaluates one criterion, prints a single PASS/FAIL line (also
echoed in the terminal summary), and asserts it.  Tolerances are fixed
here on purpose; loosening them is not an option when a check fails.
"""

import time
import warnings

import numpy as np
import pytest

from nydmap import (
    DataMatrix,
    ExperimentConfig,
    LorenzParams,
    RankDeficiencyWarning,
    compare_methods,
    decompose,
    degree_vector,
    deterministic_model,
    diffusion_map,
    eigendecompose,
    gaussian_kernel_matrix,
    generate_helix,
    integrate_lorenz,
    kmeans_cluster,
    nystrom_eigs,
    project,
    relative_embedding_error,
    run_experiment,
    subsample_rows,
)
from nydmap.datasets import _lorenz_rhs
from nydmap.kernel import DegreeVector, _available_memory_bytes


def _verdict(log, num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    log(line)
    assert ok, line


def _helix_exact():
    X = generate_helix(2000, noise_std=0.05, seed=0)
    return X, decompose(X, 0.5, "deterministic", 50)


def _projection(X, sigma, d, seed):
    # The projection sketch that run and compare run, at l = d + 10, q = 2.
    return decompose(
        X, sigma, "nystrom_projection", d, oversampling=10, power_iterations=2, seed=seed
    )


def test_criterion_1_low_rank_exactness(acceptance_log):
    start = time.perf_counter()
    worst_recon = 0.0
    worst_eig = 0.0
    for case, (n, r) in enumerate([(400, 40), (300, 25), (120, 7), (50, 2), (220, 40)]):
        G = np.random.default_rng(case).normal(size=(n, r))
        A = G @ G.T
        deg = DegreeVector(np.ones(n))
        l = min(n, r + 8)
        with warnings.catch_warnings():
            # l > rank(A), so the sketch rank collapses here
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            Z = np.random.default_rng(case).standard_normal((n, l))
            Q, G = project(A, Z, A @ Z, 0)
            model = nystrom_eigs((Q, G), r, deg)
        F = Q @ G
        recon = np.linalg.norm(A - F @ F.T) / np.linalg.norm(A)
        dense_vals, _ = eigendecompose(A, r)
        eig_err = float((np.abs(model.eigenvalues - dense_vals) / dense_vals).max())
        worst_recon = max(worst_recon, recon)
        worst_eig = max(worst_eig, eig_err)
    elapsed = time.perf_counter() - start
    ok = worst_recon <= 1e-9 and worst_eig <= 1e-8 and elapsed < 30.0
    _verdict(
        acceptance_log,
        1,
        "low-rank exactness",
        ok,
        f"recon {worst_recon:.2e} <= 1e-9, eig {worst_eig:.2e} <= 1e-8, {elapsed:.1f}s < 30s",
    )


def test_criterion_2_spectrum_fidelity(acceptance_log):
    start = time.perf_counter()
    X, det_model = _helix_exact()
    det_vals = det_model.eigenvalues
    worst = 0.0
    for seed in range(5):
        model = _projection(X, 0.5, 50, seed)
        rel = np.abs(model.eigenvalues[:25] - det_vals[:25]) / det_vals[:25]
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict(
        acceptance_log,
        2,
        "spectrum fidelity, helix",
        ok,
        f"top-25 rel err {worst:.2e} <= 1e-6 over 5 seeds, {elapsed:.1f}s < 60s",
    )


def test_criterion_3_embedding_error_helix(acceptance_log):
    start = time.perf_counter()
    X, det_model = _helix_exact()
    det_emb = diffusion_map(det_model, 1.0)
    nys_emb = diffusion_map(_projection(X, 0.5, 50, 0), 1.0)
    err = relative_embedding_error(det_emb, nys_emb)
    elapsed = time.perf_counter() - start
    ok = err <= 1e-3 and elapsed < 60.0
    _verdict(
        acceptance_log,
        3,
        "embedding error, helix",
        ok,
        f"relative error {err:.2e} <= 1e-3, {elapsed:.1f}s < 60s",
    )


def test_criterion_4_embedding_error_lorenz(acceptance_log):
    start = time.perf_counter()
    trajectory = integrate_lorenz(LorenzParams())
    X = subsample_rows(trajectory, 3000)
    det_emb = diffusion_map(decompose(X, 10.0, "deterministic", 100), 1.0)
    err = max(
        relative_embedding_error(det_emb, diffusion_map(_projection(X, 10.0, 100, seed), 1.0))
        for seed in range(5)
    )
    elapsed = time.perf_counter() - start
    ok = err <= 0.15 and elapsed < 120.0
    _verdict(
        acceptance_log,
        4,
        "embedding error, Lorenz",
        ok,
        f"worst relative error {err:.2e} <= 0.15 over 5 seeds, {elapsed:.1f}s < 120s",
    )


@pytest.mark.slow
def test_criterion_5_speedup(acceptance_log, tmp_path):
    available = _available_memory_bytes()
    needed = int(15000 * 15000 * 8 * 1.35 + 7e8)
    if available is not None and available >= needed:
        config = ExperimentConfig(
            dataset="helix",
            n=15000,
            sigma=0.5,
            d=300,
            oversampling=10,
            power_iterations=2,
            seed=0,
            output_dir=str(tmp_path / "full"),
        )
        report = compare_methods(config)
        speedup = report.comparison["nystrom_projection"]["speedup_decomposition"]
        ok = speedup >= 1.5
        detail = f"full scale n=15000: decomposition speedup {speedup:.2f} >= 1.5"
    else:
        # Not enough headroom for the 15000^2 operator: check instead that
        # the Nystrom decomposition time grows slower with n.
        det_times = {}
        nys_times = {}
        for n in (2000, 4000, 8000):
            config = ExperimentConfig(
                dataset="helix",
                n=n,
                sigma=0.5,
                d=50,
                oversampling=10,
                power_iterations=2,
                seed=0,
                output_dir=str(tmp_path / f"n{n}"),
            )
            report = compare_methods(config)
            det_times[n] = report.wall_time_seconds["decomposition"]
            nys_times[n] = report.comparison["nystrom_projection"][
                "decomposition_seconds"
            ]
        det_growth = det_times[8000] / det_times[2000]
        nys_growth = nys_times[8000] / nys_times[2000]
        ok = nys_growth < det_growth
        detail = (
            f"growth fallback: time ratio 8000/2000 deterministic {det_growth:.1f}, "
            f"Nystrom {nys_growth:.1f}"
        )
    _verdict(acceptance_log, 5, "decomposition speedup", ok, detail)


def _criterion_6_datasets():
    """Criterion 6's 100 random graphs, in order: (X, sigma) pairs."""
    rng = np.random.default_rng(2026)
    for _ in range(100):
        n = int(rng.integers(20, 1001))
        p = int(rng.integers(1, 6))
        sigma = float(rng.uniform(0.3, 3.0))
        X = DataMatrix(rng.normal(size=(n, p)) * float(rng.uniform(0.5, 2.0)))
        yield X, sigma


def _markov_invariants(X, sigma):
    """Criterion 6's four measurements on one graph: worst row-sum error,
    |top eigenvalue - 1|, max |eigenvalue| - 1 and worst residual."""
    K = gaussian_kernel_matrix(X, sigma)
    deg = DegreeVector(K.sum(axis=1))
    P = K / deg.values[:, None]
    row = float(np.abs(P.sum(axis=1) - 1.0).max())
    model = deterministic_model(K, deg, min(X.n, 6))
    top = abs(model.eigenvalues[0] - 1.0)
    mag = float(np.abs(model.eigenvalues).max()) - 1.0
    # every operator norm of P is >= its spectral radius 1, so scaling
    # residuals by 1 is the conservative reading of 1e-8 * ||P||
    resid = P @ model.eigenvectors_markov - model.eigenvectors_markov * model.eigenvalues
    return row, top, mag, float(np.linalg.norm(resid, axis=0).max())


def _markov_invariants_hold(row, top, mag, res):
    return row <= 1e-12 and top <= 1e-10 and mag <= 1e-10 and res <= 1e-8


@pytest.mark.slow
def test_criterion_6_markov_invariants(acceptance_log):
    worst = [0.0, 0.0, 0.0, 0.0]
    for X, sigma in _criterion_6_datasets():
        worst = [max(w, m) for w, m in zip(worst, _markov_invariants(X, sigma))]
    worst_row, worst_top, worst_mag, worst_res = worst
    _verdict(
        acceptance_log,
        6,
        "Markov-operator invariants",
        _markov_invariants_hold(*worst),
        f"row sums {worst_row:.1e} <= 1e-12, top {worst_top:.1e} <= 1e-10, "
        f"|eig|-1 {worst_mag:.1e} <= 1e-10, residual {worst_res:.1e} <= 1e-8 "
        f"over 100 datasets",
    )


def test_criterion_6_stalled_graph_falls_back_quickly():
    # Criterion 6's n = 982 graph is disconnected (eigenvalue 1 repeated), so
    # the Lanczos iteration stalls; the restart cap must hand it to the
    # dense solver within seconds, not after 137,501 products.
    X, sigma = next((X, s) for X, s in _criterion_6_datasets() if X.n == 982)
    start = time.perf_counter()
    with pytest.warns(UserWarning, match="falling back to a dense solve"):
        invariants = _markov_invariants(X, sigma)
    assert time.perf_counter() - start < 5.0
    assert _markov_invariants_hold(*invariants), invariants


def test_repeated_eigenvalue_one_warns():
    # Criterion 6's n = 982 graph is disconnected, so its embedding is not
    # unique; a connected helix graph stays silent under every method.
    X, sigma = next((X, s) for X, s in _criterion_6_datasets() if X.n == 982)
    with pytest.warns(UserWarning) as caught:  # the ARPACK fallback warns too
        decompose(X, sigma, "deterministic", 6)
    assert sum("eigenvalue 1 repeats" in str(w.message) for w in caught) == 1
    helix = generate_helix(600, noise_std=0.05, seed=0)
    for method in ("deterministic", "nystrom_projection", "nystrom_columns"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decompose(helix, 0.5, method, 20)


def test_criterion_7_integrator_order(acceptance_log):
    ends = {}
    for dt in (1e-3, 5e-4, 1.25e-4):
        params = LorenzParams(t_end=1.0, dt=dt)
        ends[dt] = integrate_lorenz(params).values[-1]
    err_coarse = np.linalg.norm(ends[1e-3] - ends[1.25e-4])
    err_fine = np.linalg.norm(ends[5e-4] - ends[1.25e-4])
    ratio = err_coarse / err_fine
    params = LorenzParams()
    derivative = _lorenz_rhs(-8.0, 8.0, 27.0, params.sigma, params.rho, params.beta)
    exact = np.array_equal(derivative, np.array([160.0, -16.0, -136.0]))
    ok = 8.0 < ratio < 24.0 and exact
    _verdict(
        acceptance_log,
        7,
        "integrator order",
        ok,
        f"halving ratio {ratio:.2f} in (8, 24), derivative exact: {exact}",
    )


def test_criterion_8_clustering_sanity(acceptance_log):
    rng = np.random.default_rng(0)
    a = rng.normal(scale=0.3, size=(200, 2))
    b = rng.normal(scale=0.3, size=(200, 2))
    b[:, 0] += 4.0
    X = DataMatrix(np.vstack([a, b]))
    truth = np.repeat([0, 1], 200)
    K = gaussian_kernel_matrix(X, 0.5)
    deg = degree_vector(X, 0.5)
    model = deterministic_model(K, deg, 3)
    emb = diffusion_map(model, 100.0, d=2, drop_trivial=True)
    agreements = []
    for seed in range(5):
        labels = kmeans_cluster(emb, 2, seed=seed).labels
        agreements.append(
            max(float(np.mean(labels == truth)), float(np.mean(labels == 1 - truth)))
        )
    ok = all(a == 1.0 for a in agreements)
    _verdict(
        acceptance_log,
        8,
        "clustering sanity",
        ok,
        f"label agreement {min(agreements):.3f} == 1.0 across 5 seeds",
    )


def test_criterion_9_determinism(acceptance_log, tmp_path):
    ok = True
    details = []
    for method in ("deterministic", "nystrom_projection", "nystrom_columns"):
        reports = []
        csvs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{method}_{tag}"
            config = ExperimentConfig(
                dataset="helix",
                n=250,
                sigma=0.5,
                d=8,
                oversampling=8,
                power_iterations=1,
                seed=5,
                output_dir=str(out),
            )
            reports.append(run_experiment(config))
            csvs.append((out / "embedding.csv").read_bytes())
        same = reports[0].eigenvalues == reports[1].eigenvalues and csvs[0] == csvs[1]
        ok = ok and same
        details.append(f"{method}: {'stable' if same else 'UNSTABLE'}")
    cmp_reports = []
    cmp_csvs = []
    for tag in ("a", "b"):
        out = tmp_path / f"compare_{tag}"
        config = ExperimentConfig(
            dataset="helix",
            n=200,
            sigma=0.5,
            d=6,
            oversampling=6,
            power_iterations=1,
            seed=5,
            output_dir=str(out),
        )
        cmp_reports.append(compare_methods(config))
        cmp_csvs.append(
            b"".join(
                (out / name).read_bytes()
                for name in (
                    "embedding_deterministic.csv",
                    "embedding_nystrom_projection.csv",
                    "embedding_nystrom_columns.csv",
                    "spectrum.csv",
                )
            )
        )
    same = (
        cmp_reports[0].eigenvalues == cmp_reports[1].eigenvalues
        and {
            m: b["eigenvalues"] for m, b in cmp_reports[0].comparison.items()
        }
        == {m: b["eigenvalues"] for m, b in cmp_reports[1].comparison.items()}
        and cmp_csvs[0] == cmp_csvs[1]
    )
    ok = ok and same
    details.append(f"compare: {'stable' if same else 'UNSTABLE'}")
    _verdict(acceptance_log, 9, "determinism", ok, "; ".join(details))