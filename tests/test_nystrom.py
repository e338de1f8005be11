import contextlib
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from nydmap import (
    ContractError,
    DataMatrix,
    DegeneracyError,
    DimensionError,
    LorenzParams,
    ParameterError,
    RankDeficiencyWarning,
    decompose,
    degree_vector,
    deterministic_model,
    diffusion_map,
    eigendecompose,
    fix_signs,
    gaussian_kernel_columns,
    gaussian_kernel_matrix,
    gaussian_sketch_basis,
    generate_helix,
    integrate_lorenz,
    nystrom_eigs,
    project,
    psd_inverse_sqrt,
    recover_markov_eigvecs,
    relative_embedding_error,
    runner,
    sample_columns,
    subsample_rows,
    symmetric_matrix,
)
from nydmap.kernel import DegreeVector
from nydmap.nystrom import RANK_TOL
from nydmap.spectral import SpectralModel


def _diffusion_A(n, seed, sigma=0.8, p=3):
    X = DataMatrix(np.random.default_rng(seed).normal(size=(n, p)))
    K = gaussian_kernel_matrix(X, sigma)
    deg = degree_vector(X, sigma)
    return X, symmetric_matrix(K, deg), deg


def _gaussian_project(A, l, q, seed):
    # project on a given operator from a plain Gaussian start block.
    Z = np.random.default_rng(seed).standard_normal((A.shape[0], l))
    return project(A, Z, A @ Z, q)


def _low_rank_psd(n, r, seed):
    G = np.random.default_rng(seed).normal(size=(n, r))
    return G @ G.T


def _pivoted(X, sigma, l, seed):
    provider = lambda J: gaussian_kernel_columns(X, sigma, J)
    return sample_columns(provider, X.n, l, seed)


def test_sample_columns_matches_materialized_operator():
    X, _, _ = _diffusion_A(300, 0)
    K = gaussian_kernel_matrix(X, 0.8)
    C, deg, J = _pivoted(X, 0.8, 50, seed=1)
    assert J.shape == (50,)
    assert np.unique(J).size == 50 and J.min() >= 0 and J.max() < 300
    # C = D^-1/2 F with the factor's own degrees deg = F (F^T 1).
    F = C * np.sqrt(deg.values)[:, None]
    assert np.allclose(deg.values, F @ F.sum(axis=0), rtol=1e-12, atol=0.0)
    # The Nystrom approximation interpolates the pivot columns.
    assert np.abs(F @ F[J].T - K[:, J]).max() <= 1e-12


def test_sample_columns_deterministic_and_validated():
    X, _, _ = _diffusion_A(100, 2)
    provider = lambda J: gaussian_kernel_columns(X, 0.8, J)
    f1, _, J1 = sample_columns(provider, 100, 20, 9)
    f2, _, J2 = sample_columns(provider, 100, 20, 9)
    assert np.array_equal(J1, J2) and np.array_equal(f1, f2)
    with pytest.raises(ParameterError):
        sample_columns(provider, 100, 101, 0)
    with pytest.raises(ParameterError):
        sample_columns(provider, 100, 0, 0)
    with pytest.raises(DimensionError):
        sample_columns(lambda J: np.zeros((7, len(J))), 100, 5, 0)


def test_sample_columns_complete_reconstruction():
    X, A, _ = _diffusion_A(150, 3, sigma=1.0)
    F, _, J = _pivoted(X, 1.0, 150, seed=4)
    assert np.unique(J).size == J.size
    recon = F @ F.T
    err = np.linalg.norm(recon - A) / np.linalg.norm(A)
    assert err <= 1e-9


@contextlib.contextmanager
def _ends_quickly():
    start = time.perf_counter()
    yield
    assert time.perf_counter() - start < 1.0


def _checked_model(F, deg, d):
    model = nystrom_eigs(F, d, deg, method="nystrom_columns")
    assert deg.values.min() > 0.0
    assert np.all(np.isfinite(model.eigenvectors_markov))
    assert model.eigenvalues.max() <= 1.0 + 1e-10
    return model


def test_sample_columns_duplicated_points():
    base = np.random.default_rng(20).normal(size=(50, 3))
    X = DataMatrix(np.repeat(base, 20, axis=0))
    with _ends_quickly(), pytest.warns(RankDeficiencyWarning, match="stopped at 50 of 60"):
        F, deg, J = _pivoted(X, 0.5, 60, seed=0)
    # One factor column per distinct point among the pivots: a copy drawn in
    # the same round as its twin is a pivot but adds no column.
    filled = np.count_nonzero(np.any(F != 0.0, axis=0))
    assert filled == np.unique(X.values[J], axis=0).shape[0] <= 50
    _checked_model(F, deg, 40)


def test_sample_columns_l_equal_to_n():
    X = generate_helix(400, noise_std=0.05, seed=0)
    with _ends_quickly(), pytest.warns(RankDeficiencyWarning, match="pivoting stopped"):
        F, deg, J = _pivoted(X, 0.5, 400, seed=0)
    assert J.size < 400
    assert np.all(F[:, J.size:] == 0.0)
    _checked_model(F, deg, 20)


def test_sample_columns_l_above_numerical_rank():
    X = DataMatrix(np.linspace(0.0, 1.0, 300)[:, None])
    with _ends_quickly(), pytest.warns(RankDeficiencyWarning, match="pivoting stopped"):
        F, deg, J = _pivoted(X, 10.0, 60, seed=0)
    assert J.size < 20
    with pytest.warns(RankDeficiencyWarning, match="effective rank"):
        model = _checked_model(F, deg, 50)
    assert model.rank_d <= J.size


def test_sample_columns_near_identity_kernel():
    X = generate_helix(2000, noise_std=0.05, seed=0)
    with _ends_quickly(), pytest.raises(DegeneracyError, match=r"leaves \d+ of 2000 points"):
        _pivoted(X, 1e-4, 60, seed=0)


@pytest.mark.parametrize("method", ["deterministic", "nystrom_projection"])
@pytest.mark.parametrize(
    "n, copies, sigma, d",
    [
        (300, 2, 0.5, 20),
        # K = I: every off-diagonal entry underflows.
        (600, 1, 1e-7, 20),
        # With oversampling 10: l = n, then l = n - 1.
        (60, 1, 0.5, 50),
        (61, 1, 0.5, 50),
    ],
    ids=["duplicated_points", "identity_kernel", "l_equal_to_n", "l_one_below_n"],
)
def test_degenerate_inputs_exact_and_projection(method, n, copies, sigma, d):
    points = generate_helix(n, noise_std=0.05, seed=0).values
    X = DataMatrix(np.repeat(points, copies, axis=0))
    with _ends_quickly(), warnings.catch_warnings():
        warnings.simplefilter("error")
        model = decompose(X, sigma, method, d, oversampling=10)
    assert model.rank_d == d
    assert model.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.isfinite(model.eigenvectors_markov))


@pytest.mark.parametrize("copies", [2, 1], ids=["repeated", "distinct"])
def test_projection_top_eigenpair_is_exact(copies):
    # A's top eigenpair is 1 and D^1/2 1; the ones column of the start
    # block spans it exactly.  A Gaussian start without it read 0.99980 on
    # both inputs.
    points = np.random.default_rng(21).normal(size=(600 // copies, 3))
    X = DataMatrix(np.tile(points, (copies, 1)))
    model = decompose(X, 0.5, "nystrom_projection", 20)
    assert abs(model.eigenvalues[0] - 1.0) <= 1e-12


def test_sketch_basis_orthonormal_on_identity():
    # I P_0 = P_0 leaves nothing to orthogonalise: the basis stops at its
    # start block.
    Q, _ = _gaussian_project(np.eye(50), 10, q=0, seed=0)
    assert Q.shape == (50, 10)
    assert np.abs(Q.T @ Q - np.eye(10)).max() <= 1e-10


def test_sketch_basis_captures_exact_low_rank_range():
    for seed in range(5):
        A = _low_rank_psd(200, 8, seed)
        with pytest.warns(RankDeficiencyWarning, match="sketch rank collapsed"):
            # l > rank(A): the sketch collapses, and the basis is still
            # orthonormal and spans range(A).
            Q, _ = _gaussian_project(A, 16, q=0, seed=seed)
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-10
        err = np.linalg.norm(A - Q @ (Q.T @ A)) / np.linalg.norm(A)
        assert err <= 1e-10


def test_sketch_basis_of_zero_operator_is_degenerate():
    # The basis stops at its orthonormal start block, which the operator
    # maps to zero: the sketch captured nothing.
    with pytest.warns(RankDeficiencyWarning, match="sketch rank collapsed to 0 of 6"):
        with pytest.raises(DegeneracyError):
            _gaussian_project(np.zeros((40, 40)), 6, q=1, seed=0)


def test_start_columns_of_many_decades_are_full_rank():
    # A well-conditioned operator and a start block whose columns range
    # over fifteen decades in norm: the product has full rank and must not
    # be reported as collapsed.  Unscaled, R's smallest relative singular
    # value is below the n * eps cutoff.
    n, l = 200, 12
    rng = np.random.default_rng(31)
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = (V * np.linspace(1.0, 2.0, n)) @ V.T
    Z = rng.normal(size=(n, l)) * np.logspace(0, -15, l)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankDeficiencyWarning)
        Q, _ = project(A, Z, A @ Z, 2)
    assert Q.shape == (n, 4 * l)
    assert np.abs(Q.T @ Q - np.eye(4 * l)).max() <= 1e-12


def test_project_basis_holds_every_product():
    # A Q = Q_+ B: every product the Krylov blocks make lies in the basis,
    # so F = Q_+ G = A Q (Q^T A Q)^-1/2 and F F^T = A Q T^+ Q^T A.
    _, A, _ = _diffusion_A(300, 13, sigma=0.5)
    S = np.random.default_rng(14).normal(size=(300, 20))
    Qp, G = project(A, S.copy(), A @ S, 2)
    Q = Qp[:, :G.shape[1]]
    assert Qp.shape == (300, 80) and G.shape == (80, 60)
    assert np.abs(Qp.T @ Qp - np.eye(80)).max() <= 1e-12
    norm = np.linalg.norm(A, 2)
    assert np.linalg.norm(A @ Q - Qp @ (Qp.T @ (A @ Q)), 2) <= 1e-12 * norm
    krylov = np.hstack((S, A @ S, A @ (A @ S)))
    krylov /= np.linalg.norm(krylov, axis=0)
    assert np.abs(krylov - Q @ (Q.T @ krylov)).max() <= 1e-10
    T = Q.T @ A @ Q
    M = psd_inverse_sqrt(0.5 * (T + T.T))
    F = Qp @ G
    assert np.abs(F @ F.T - A @ Q @ (M @ M) @ Q.T @ A).max() <= 1e-12


def test_projection_memory_is_the_basis_and_one_multiply():
    # The traced peak of a projection at q = 2 (l = 110) is the n-by-4l
    # basis Q_+ and one multiply's buffers: its scaled operand, its
    # result and a kernel block of 1.6 n*l floats here.  Keeping C = A Q,
    # or forming F = Q_+ G and taking its SVD, holds 3 n*l more.
    X = generate_helix(6000, noise_std=0.05, seed=1)
    n_l = 6000 * 110 * 8
    tracemalloc.start()
    try:
        decompose(X, 0.5, "nystrom_projection", 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 * n_l


def test_sketch_basis_deterministic():
    X, _, _ = _diffusion_A(120, 5)
    (Q1, G1), deg1 = gaussian_sketch_basis(X, 0.8, 15, 2, 42)
    (Q2, G2), deg2 = gaussian_sketch_basis(X, 0.8, 15, 2, 42)
    assert np.array_equal(Q1, Q2) and np.array_equal(G1, G2)
    assert np.array_equal(deg1.values, deg2.values)


def test_sketch_basis_validation(kernel_entries):
    X = DataMatrix(np.random.default_rng(0).normal(size=(10, 2)))
    for l, q in ((11, 0), (0, 0), (5, -1)):
        with pytest.raises(ParameterError):
            gaussian_sketch_basis(X, 0.8, l, q, 0)
    assert kernel_entries == []


def test_sketch_basis_is_decompose_projection():
    # decompose's projection is this start, its products and nystrom_eigs.
    X = generate_helix(500, noise_std=0.05, seed=2)
    factor, deg = gaussian_sketch_basis(X, 0.5, 30, 2, 4)
    model = nystrom_eigs(factor, 20, deg)
    expected = decompose(X, 0.5, "nystrom_projection", 20, oversampling=10, seed=4)
    assert np.array_equal(model.eigenvalues, expected.eigenvalues)
    assert np.array_equal(model.eigenvectors_markov, expected.eigenvectors_markov)
    assert np.array_equal(model.degrees.values, expected.degrees.values)


def test_project_coordinate_basis():
    # At q = 0 on the first 12 coordinates, F F^T = A[:, J] A[J, J]^+ A[J, :].
    _, A, _ = _diffusion_A(60, 6)
    S = np.eye(60)[:, :12]
    Q, G = project(A, S.copy(), A @ S, 0)
    F = Q @ G
    M = psd_inverse_sqrt(A[:12, :12])
    assert np.abs(F @ F.T - A[:, :12] @ (M @ M) @ A[:12, :]).max() <= 1e-12


def test_project_zero_operator():
    S = np.random.default_rng(0).normal(size=(30, 5))
    with pytest.warns(RankDeficiencyWarning), pytest.raises(DegeneracyError):
        project(np.zeros((30, 30)), S, np.zeros((30, 5)), 1)


def test_project_requires_square_operator():
    A = np.eye(20)
    S = np.eye(20)[:, :4]
    for bad in (object(), lambda B: A @ B, np.eye(21)):
        with pytest.raises(ParameterError):
            project(bad, S.copy(), S.copy(), 0)
    with pytest.raises(DimensionError):
        project(A, S.copy(), np.zeros((20, 3)), 0)


def test_project_agrees_with_direct_pseudo_inverse_route():
    # At q = 0 the sketch is plain Nystrom on the Gaussian start block S,
    # F F^T = A S (S^T A S)^+ S^T A to rounding, from one multiply.  The
    # factored F and this direct reconstruction are two routes to the same
    # projected operator.
    _, A, deg = _diffusion_A(200, 8)
    Q, G = _gaussian_project(A, 30, q=0, seed=3)
    F = Q @ G
    S = np.random.default_rng(3).standard_normal((200, 30))
    C = A @ S
    W = S.T @ C
    M = psd_inverse_sqrt(0.5 * (W + W.T))
    direct = C @ (M @ M) @ C.T
    assert np.abs(F @ F.T - direct).max() <= 1e-8


def test_psd_inverse_sqrt_scalar_and_diagonal():
    assert np.allclose(psd_inverse_sqrt(4.0 * np.eye(3)), 0.5 * np.eye(3), atol=1e-15)
    got = psd_inverse_sqrt(np.diag([1.0, 0.0]))
    assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-15)


def test_psd_inverse_sqrt_projects_onto_range():
    rng = np.random.default_rng(4)
    # full rank: W M M recovers the identity
    B = rng.normal(size=(12, 12))
    W = B @ B.T + 12.0 * np.eye(12)
    M = psd_inverse_sqrt(W)
    assert np.abs(W @ M @ M - np.eye(12)).max() <= 1e-8
    # rank deficient: W M M is the orthogonal projector onto range(W)
    G = rng.normal(size=(12, 5))
    W = G @ G.T
    M = psd_inverse_sqrt(W)
    Qg = np.linalg.qr(G)[0]
    assert np.abs(W @ M @ M - Qg @ Qg.T).max() <= 1e-8


def test_psd_inverse_sqrt_errors():
    with pytest.raises(DegeneracyError):
        psd_inverse_sqrt(np.zeros((3, 3)))
    with pytest.raises(DegeneracyError):
        psd_inverse_sqrt(-np.eye(3))
    asym = np.eye(3)
    asym[0, 2] = 1e-5
    with pytest.raises(ContractError):
        psd_inverse_sqrt(asym)
    with pytest.raises(DimensionError):
        psd_inverse_sqrt(np.zeros((2, 3)))


def test_nystrom_eigs_exact_on_low_rank():
    for seed in range(4):
        n, r = 250, 10
        A = _low_rank_psd(n, r, seed)
        with pytest.warns(RankDeficiencyWarning):
            F = _gaussian_project(A, r + 8, q=0, seed=seed)
        with pytest.warns(RankDeficiencyWarning):
            model = nystrom_eigs(F, r + 8, DegreeVector(np.ones(n)))
        dense_vals, _ = eigendecompose(A, r)
        assert model.rank_d == r
        rel = np.abs(model.eigenvalues - dense_vals) / dense_vals
        assert rel.max() <= 1e-8


def test_nystrom_eigs_identity_w_uses_c_unchanged():
    # The column factor's Gram matrix is taken as it is; its eigenvalues
    # are F's squared singular values to rounding: lam_30 / lam_1 is 0.14,
    # so the Gram's floor l * eps * lam_1 is 6e-14 of lam_30, 16 times
    # below the 1e-12 allowed.
    X, _, _ = _diffusion_A(300, 2)
    F, deg, _ = _pivoted(X, 0.8, 40, seed=3)
    model = nystrom_eigs(F, 30, deg, method="nystrom_columns")
    assert np.array_equal(model.eigenvalues, np.linalg.eigh(F.T @ F)[0][::-1][:30])
    svals = np.linalg.svd(F, compute_uv=False)
    np.testing.assert_allclose(model.eigenvalues, svals[:30] ** 2, rtol=1e-12, atol=0.0)


def test_nystrom_eigs_scaled_identity_complete():
    n = 40
    F = 3.0 * np.eye(n) @ psd_inverse_sqrt(3.0 * np.eye(n))
    model = nystrom_eigs(F, n, DegreeVector(np.ones(n)), method="nystrom_columns")
    assert model.method == "nystrom_columns"
    assert np.allclose(model.eigenvalues, 3.0, rtol=0.0, atol=1e-12)


def test_nystrom_eigs_truncates_with_warning():
    A = _low_rank_psd(150, 3, 0)
    with pytest.warns(RankDeficiencyWarning):
        F = _gaussian_project(A, 10, q=0, seed=0)
    with pytest.warns(RankDeficiencyWarning, match="effective rank"):
        model = nystrom_eigs(F, 8, DegreeVector(np.ones(150)))
    assert model.rank_d == 3
    assert model.eigenvalues.shape == (3,)


def test_nystrom_eigs_validation():
    F = np.eye(10)
    deg = DegreeVector(np.ones(10))
    with pytest.raises(ParameterError):
        nystrom_eigs(F, 11, deg)
    with pytest.raises(DimensionError):
        nystrom_eigs(F, 2, DegreeVector(np.ones(9)))
    with pytest.raises(DimensionError):
        nystrom_eigs(np.ones(10), 1, deg)
    with pytest.raises(ParameterError, match="unknown sketch method"):
        nystrom_eigs(F, 2, deg, method="bogus")
    # W's shape and symmetry are psd_inverse_sqrt's checks.
    W = np.eye(3)
    W[0, 1] = 1e-6
    with pytest.raises(ContractError):
        psd_inverse_sqrt(W)
    with pytest.raises(DimensionError):
        psd_inverse_sqrt(np.zeros((4, 3)))


def test_nystrom_diffusion_eigenvalue_bounds():
    X, _, _ = _diffusion_A(300, 9, sigma=0.5)
    for method in ("nystrom_projection", "nystrom_columns"):
        model = decompose(X, 0.5, method, 20, oversampling=10, seed=2)
        assert model.method == method
        assert model.eigenvalues.min() >= -1e-8
        assert model.eigenvalues.max() <= 1.0 + 1e-8
        assert np.all(np.diff(model.eigenvalues) <= 1e-15)


def test_nystrom_matches_deterministic_on_helix():
    X = generate_helix(400, noise_std=0.05, seed=0)
    K = gaussian_kernel_matrix(X, 0.5)
    deg = degree_vector(X, 0.5)
    A = symmetric_matrix(K, deg)
    det_vals, _ = eigendecompose(A, 12)
    model = nystrom_eigs(_gaussian_project(A, 22, q=2, seed=3), 12, deg)
    rel = np.abs(model.eigenvalues[:6] - det_vals[:6]) / det_vals[:6]
    assert rel.max() <= 1e-6


def test_more_power_iterations_do_not_hurt_on_average():
    # Statistical property: mean reconstruction error over seeds is
    # non-increasing in q.  Individual seeds may disagree.
    X = generate_helix(400, noise_std=0.05, seed=1)
    K = gaussian_kernel_matrix(X, 0.5)
    deg = degree_vector(X, 0.5)
    A = symmetric_matrix(K, deg)
    means = []
    for q in (0, 1, 2):
        errs = []
        for seed in range(20):
            Q, G = _gaussian_project(A, 12, q=q, seed=seed)
            F = Q @ G
            errs.append(np.linalg.norm(A - F @ F.T) / np.linalg.norm(A))
        means.append(np.mean(errs))
    assert means[0] >= means[1] >= means[2]


def test_nystrom_model_bitwise_deterministic():
    X, _, _ = _diffusion_A(200, 11, sigma=0.5)
    for method in ("nystrom_projection", "nystrom_columns"):
        a = decompose(X, 0.5, method, 15, oversampling=5, seed=7)
        b = decompose(X, 0.5, method, 15, oversampling=5, seed=7)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors_markov, b.eigenvectors_markov)
        assert a.method == b.method and a.rank_d == b.rank_d


def test_decompose_deterministic_matches_deterministic_model():
    X = generate_helix(300, noise_std=0.05, seed=4)
    K = gaussian_kernel_matrix(X, 0.5)
    expected = deterministic_model(K, degree_vector(X, 0.5), 12)
    model = decompose(X, 0.5, "deterministic", 12)
    assert model.method == "deterministic" and model.rank_d == 12
    assert np.array_equal(model.degrees.values, expected.degrees.values)
    assert np.array_equal(model.eigenvalues, expected.eigenvalues)
    assert np.array_equal(model.eigenvectors_markov, expected.eigenvectors_markov)


def _nystrom_eigs_signs_first(F, d, deg, method="nystrom_projection"):
    # nystrom_eigs's former route, kept as the reference: it sign-fixed
    # A's eigenvectors before recovering the Markov ones.  A pair (Q, G) is
    # the factor F = Q G with Q orthonormal.
    Q, F = F if isinstance(F, tuple) else (None, F)
    lam, V = np.linalg.eigh(F.T @ F)
    lam, V = lam[::-1], V[:, ::-1]
    keep = min(d, int(np.count_nonzero(lam > lam[0] * RANK_TOL)))
    U = F @ (V[:, :keep] / np.sqrt(lam[:keep]))
    U = U if Q is None else Q @ U
    markov = recover_markov_eigvecs(fix_signs(U), deg)
    return SpectralModel(lam[:keep], markov, deg, method)


def test_markov_vectors_match_sign_fixed_route(monkeypatch):
    X, A, deg = _diffusion_A(300, 12, sigma=0.5)
    F = _gaussian_project(A, 25, q=1, seed=1)
    col_F, col_deg, _ = _pivoted(X, 0.5, 25, seed=1)
    sketches = ((F, deg, "nystrom_projection"), (col_F, col_deg, "nystrom_columns"))
    for F, dv, method in sketches:
        model = nystrom_eigs(F, 15, dv, method=method)
        expected = _nystrom_eigs_signs_first(F, 15, dv, method=method)
        assert np.array_equal(model.eigenvalues, expected.eigenvalues)
        assert np.array_equal(model.eigenvectors_markov, expected.eigenvectors_markov)
    for method in ("nystrom_projection", "nystrom_columns"):
        model = decompose(X, 0.5, method, 15, seed=1)
        with monkeypatch.context() as patch:
            patch.setattr(runner, "nystrom_eigs", _nystrom_eigs_signs_first)
            expected = decompose(X, 0.5, method, 15, seed=1)
        assert np.array_equal(model.eigenvalues, expected.eigenvalues)
        assert np.array_equal(model.eigenvectors_markov, expected.eigenvectors_markov)


def _nystrom_eigs_svd(F, d, deg, method="nystrom_projection"):
    # nystrom_eigs's tall-SVD route, kept as the reference for the Gram
    # route: eigenvalues are F's squared singular values, eigenvectors its
    # left singular vectors, with the same rank cutoff on sigma^2.
    Q, F = F if isinstance(F, tuple) else (None, F)
    U, svals, _ = np.linalg.svd(F, full_matrices=False)
    keep = min(d, int(np.count_nonzero(svals > svals[0] * np.sqrt(RANK_TOL))))
    U = U[:, :keep] if Q is None else Q @ U[:, :keep]
    return SpectralModel(svals[:keep] ** 2, recover_markov_eigvecs(U, deg), deg, method)


def _graded_factor(n, ratios, seed):
    # An n-by-l factor whose squared singular values are ratios.
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(n, ratios.size)))
    W, _ = np.linalg.qr(rng.normal(size=(ratios.size, ratios.size)))
    return (U * np.sqrt(ratios)) @ W.T


def test_gram_route_matches_svd_on_graded_and_deficient_factors():
    rng = np.random.default_rng(0)
    factors = [
        _graded_factor(1000, np.logspace(0.0, -16.0, 40), seed=1),
        _graded_factor(1000, np.r_[np.logspace(0.0, -10.5, 30), np.logspace(-13.5, -16.0, 10)], 2),
        rng.normal(size=(1000, 10)) @ rng.normal(size=(10, 30)),
    ]
    # Column draws that stopped early: 50 distinct points (10 zero columns)
    # and a line whose kernel has numerical rank about 6.
    twins = DataMatrix(np.repeat(rng.normal(size=(50, 3)), 20, axis=0))
    line = DataMatrix(np.linspace(0.0, 1.0, 300)[:, None])
    for X, sigma in ((twins, 0.5), (line, 10.0)):
        with pytest.warns(RankDeficiencyWarning, match="pivoting stopped"):
            F, _, _ = _pivoted(X, sigma, 60, seed=0)
        assert np.all(F[:, -10:] == 0.0)
        factors.append(F)
    eps = np.finfo(float).eps
    for F in factors:
        n, l = F.shape
        deg = DegreeVector(np.ones(n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            model = nystrom_eigs(F, l, deg, method="nystrom_columns")
            expected = _nystrom_eigs_svd(F, l, deg, method="nystrom_columns")
        svals = np.linalg.svd(F, compute_uv=False)
        ratios = svals ** 2 / svals[0] ** 2
        if not np.any((ratios > RANK_TOL / 10) & (ratios < RANK_TOL * 10)):
            assert model.rank_d == expected.rank_d
        k = min(model.rank_d, expected.rank_d)
        err = np.abs(model.eigenvalues[:k] - expected.eigenvalues[:k]).max()
        assert err <= l * eps * svals[0] ** 2
        assert np.all(np.isfinite(model.eigenvalues))
        assert np.all(np.isfinite(model.eigenvectors_markov))


def test_gram_route_embedding_matches_svd_route(monkeypatch):
    X = generate_helix(2000, noise_std=0.05, seed=0)
    emb = diffusion_map(decompose(X, 0.5, "nystrom_columns", 50), 1.0)
    monkeypatch.setattr(runner, "nystrom_eigs", _nystrom_eigs_svd)
    expected = diffusion_map(decompose(X, 0.5, "nystrom_columns", 50), 1.0)
    assert relative_embedding_error(expected, emb) <= 1e-10


def test_no_svd_of_a_matrix_with_n_rows(monkeypatch):
    # The eigenpairs come from l-by-l problems; a tall SVD costs n l^2
    # flops and an n-by-l workspace (most of the column sketch's time and
    # memory at n = 60000).
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    n = 2000
    X = generate_helix(n, noise_std=0.05, seed=0)
    for method in ("nystrom_projection", "nystrom_columns"):
        decompose(X, 0.5, method, 20, seed=1)
    assert shapes
    assert all(shape[0] != n for shape in shapes), shapes


@pytest.fixture(scope="module")
def lorenz_3000():
    """Acceptance criterion 4's Lorenz data and its exact top-100 embedding."""
    X = subsample_rows(integrate_lorenz(LorenzParams()), 3000)
    return X, diffusion_map(decompose(X, 10.0, "deterministic", 100), 1.0)


def test_sample_columns_near_numerical_rank_lorenz(lorenz_3000):
    # The kernel's numerical rank is about 560, so near and past it the
    # pivots of a round are nearly dependent.  A triangular solve against
    # their Cholesky factor carried rounding into F (max |K - F F^T| up to
    # 2e5, or points left with no factor degree).
    X, _ = lorenz_3000
    K = gaussian_kernel_matrix(X, 10.0)
    for l, seed in [(500, 1), (600, 2), (650, 1), (700, 2), (1000, 1)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            F, deg, _ = _pivoted(X, 10.0, l, seed)
        F_K = F * np.sqrt(deg.values)[:, None]
        assert np.abs(K - F_K @ F_K.T).max() <= 1e-6


def test_column_path_embedding_error_near_numerical_rank_lorenz(lorenz_3000):
    X, exact = lorenz_3000
    for oversampling in (450, 500, 540, 560, 580):
        for seed in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankDeficiencyWarning)
                model = decompose(
                    X, 10.0, "nystrom_columns", 100, oversampling=oversampling, seed=seed
                )
            assert relative_embedding_error(exact, diffusion_map(model, 1.0)) <= 1e-6
