import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas

from nydmap import (
    CapacityError,
    ContractError,
    DataMatrix,
    DimensionError,
    ParameterError,
    decompose,
    deterministic_model,
    degree_vector,
    eigendecompose,
    gaussian_kernel_matrix,
    generate_helix,
    generate_swiss_roll,
    recover_markov_eigvecs,
    symmetric_matrix,
)
from nydmap import kernel, spectral
from nydmap.kernel import DegreeVector
from nydmap.spectral import DiffusionOperator, SpectralModel, fix_signs, max_asymmetry


def _diffusion_parts(n, p, seed, sigma=0.8):
    X = DataMatrix(np.random.default_rng(seed).normal(size=(n, p)))
    K = gaussian_kernel_matrix(X, sigma)
    deg = degree_vector(X, sigma)
    return X, K, deg


def test_symmetric_far_points_is_identity():
    X = DataMatrix(np.array([[0.0], [1000.0], [2000.0]]))
    K = gaussian_kernel_matrix(X, 0.5)
    deg = degree_vector(X, 0.5)
    A = symmetric_matrix(K, deg)
    assert np.array_equal(A, np.eye(3))


def test_symmetric_all_ones_kernel_spectrum():
    n = 6
    K = np.ones((n, n))
    deg = DegreeVector(np.full(n, float(n)))
    A = symmetric_matrix(K, deg)
    assert np.allclose(A, 1.0 / n, rtol=0.0, atol=1e-16)
    vals, _ = eigendecompose(A, n)
    assert abs(vals[0] - 1.0) < 1e-12
    assert np.abs(vals[1:]).max() < 1e-12


def test_symmetric_sqrt_degree_fixed_vector():
    _, K, deg = _diffusion_parts(120, 3, 2)
    A = symmetric_matrix(K, deg)
    v = np.sqrt(deg.values)
    assert np.linalg.norm(A @ v - v) <= 1e-12 * np.linalg.norm(v)


def test_symmetric_exactly_symmetric_and_overwrite(block_rows):
    _, K, deg = _diffusion_parts(150, 3, 3)
    A = symmetric_matrix(K.copy(), deg)
    assert np.abs(A - A.T).max() == 0.0
    # normalizing consumes the kernel buffer, with the same bits each time
    A2 = symmetric_matrix(K, deg)
    assert A2 is K
    assert np.array_equal(A, A2)
    block_rows(32, 150)
    assert max_asymmetry(A) == 0.0


def test_eigendecompose_identity_and_diagonal():
    vals, vecs = eigendecompose(np.eye(5), 3)
    assert np.allclose(vals, 1.0, rtol=0.0, atol=1e-14)
    vals, vecs = eigendecompose(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(vals, [3.0, 2.0], rtol=0.0, atol=1e-14)
    assert np.allclose(np.abs(vecs), np.eye(3)[:, :2], atol=1e-14)
    # sign fix makes the largest-magnitude entries positive
    assert vecs[0, 0] > 0 and vecs[1, 1] > 0


def test_eigendecompose_helix_top_eigenvalue_is_one():
    X = generate_helix(500, noise_std=0.05, seed=0)
    K = gaussian_kernel_matrix(X, 0.5)
    deg = degree_vector(X, 0.5)
    A = symmetric_matrix(K, deg)
    vals, _ = eigendecompose(A, 10)  # iterative path: n=500 >> 3*d
    assert abs(vals[0] - 1.0) <= 1e-10
    assert np.all(np.diff(vals) <= 1e-15)


def test_eigendecompose_residuals_both_paths():
    # dense path (small n) and iterative path (larger n)
    for n, d in ((120, 10), (400, 8)):
        _, K, deg = _diffusion_parts(n, 3, n)
        A = symmetric_matrix(K, deg)
        vals, vecs = eigendecompose(A, d)
        scale = np.abs(vals).max()
        for i in range(d):
            residual = np.linalg.norm(A @ vecs[:, i] - vals[i] * vecs[:, i])
            assert residual <= 1e-8 * scale
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(d)).max() <= 1e-8


def test_eigendecompose_rejects_asymmetric():
    A = np.eye(4)
    A[0, 1] = 1e-6
    with pytest.raises(ContractError):
        eigendecompose(A, 2)
    # explicit opt-out skips the check
    vals, _ = eigendecompose(A, 2, check_symmetry=False)
    assert vals.shape == (2,)


def test_eigendecompose_reads_only_lower_triangle():
    # NaN above the diagonal must not reach either solver: the dense path
    # (n = 120) and ARPACK's dsymv products (n = 400), for C- and F-ordered
    # storage (each layout has its own summation order).
    for n, d in ((120, 10), (400, 8)):
        _, K, deg = _diffusion_parts(n, 3, n)
        for order in ("C", "F"):
            A = np.array(symmetric_matrix(K.copy(), deg), order=order)
            vals, vecs = eigendecompose(A, d, check_symmetry=False)
            A[np.triu_indices(n, 1)] = np.nan
            got_vals, got_vecs = eigendecompose(A, d, check_symmetry=False)
            assert np.array_equal(got_vals, vals)
            assert np.array_equal(got_vecs, vecs)
            with pytest.raises(ContractError, match="not finite"):
                eigendecompose(A, d)


def test_eigendecompose_iterative_path_copies_no_matrix():
    n = 1500
    _, K, deg = _diffusion_parts(n, 3, 7)
    A = symmetric_matrix(K, deg)
    tracemalloc.start()
    try:
        eigendecompose(A, 10, check_symmetry=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


def test_eigendecompose_dense_copy_checks_available_memory_first(monkeypatch):
    # The dense solver (n = 120) works on an n-by-n copy of A, checked
    # against MemAvailable like the kernel matrix; ARPACK (n = 400) copies
    # no matrix and is not checked.
    for n, d, dense in ((120, 10, True), (400, 8, False)):
        _, K, deg = _diffusion_parts(n, 3, n)
        A = symmetric_matrix(K, deg)
        needed = 8 * n * n
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_available_memory_bytes", lambda: needed - 1)
            if dense:
                with pytest.raises(CapacityError, match=f"copy for n={n} needs {needed} bytes"):
                    eigendecompose(A, d)
                patch.setattr(kernel, "_available_memory_bytes", lambda: needed)
            assert eigendecompose(A, d)[0].shape == (d,)


@pytest.mark.parametrize(
    "points, sigma, d, products",
    [
        # An easy spectrum: every pair converges within the first
        # factorization, so a smaller basis stops sooner (102 products
        # with scipy's default basis, 90 with d // 2 + 1 spare vectors).
        (lambda: generate_helix(2000, 0.05, 0), 0.5, 50, 91),
        # A hard spectrum, where the basis differs from scipy's default
        # (90 vectors against 101; 479 products with the default).
        (lambda: generate_swiss_roll(600, 0.05, 0)[0], 1.0, 50, 462),
        # A hard spectrum at small d keeps scipy's default basis and its
        # 657 products; d // 2 + 1 spare vectors took 1,423.
        (lambda: generate_swiss_roll(600, 0.05, 0)[0], 1.0, 14, 657),
    ],
)
def test_exact_solve_product_count(monkeypatch, points, sigma, d, products):
    dsymv = scipy.linalg.blas.dsymv
    calls = []

    def counting_dsymv(*args, **kwargs):
        calls.append(1)
        return dsymv(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "dsymv", counting_dsymv)
    X = points()
    model = decompose(X, sigma, "deterministic", d)
    assert len(calls) == products
    K = gaussian_kernel_matrix(X, sigma)
    A = symmetric_matrix(K, DegreeVector(K.sum(axis=1)))
    reference = np.linalg.eigvalsh(A)[::-1][:d]
    assert np.abs(model.eigenvalues - reference).max() <= 1e-12


def test_eigendecompose_parameter_validation():
    A = np.eye(4)
    with pytest.raises(ParameterError):
        eigendecompose(A, 0)
    with pytest.raises(ParameterError):
        eigendecompose(A, 5)
    with pytest.raises(DimensionError):
        eigendecompose(np.zeros((3, 4)), 1)


def test_eigendecompose_permutation_invariance():
    for n in (150, 400):  # dense and iterative paths
        _, K, deg = _diffusion_parts(n, 3, n + 1)
        A = symmetric_matrix(K, deg)
        rng = np.random.default_rng(0)
        perm = rng.permutation(n)
        vals, _ = eigendecompose(A, 6)
        vals_perm, _ = eigendecompose(A[np.ix_(perm, perm)], 6)
        assert np.abs(vals - vals_perm).max() <= 1e-10


def test_fix_signs_convention():
    U = np.array([[0.5, -0.3], [-2.0, 0.1], [1.0, 0.2]])
    fixed = fix_signs(U)
    cols = np.argmax(np.abs(fixed), axis=0)
    assert all(fixed[cols[j], j] > 0 for j in range(2))
    # idempotent
    assert np.array_equal(fix_signs(fixed), fixed)


def _fix_signs_by_argmax(U):
    # The argmax-over-|U| form fix_signs replaced, kept as its reference.
    U = np.array(U, dtype=float)
    if U.shape[1] == 0:
        return U
    rows = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[rows, np.arange(U.shape[1])])
    signs[signs == 0.0] = 1.0
    return U * signs


def test_fix_signs_matches_argmax_reference():
    rng = np.random.default_rng(3)
    cases = [rng.normal(size=(n, d)) for n, d in ((1, 1), (7, 3), (500, 40))]
    cases.append(np.zeros((6, 0)))
    ties = rng.normal(size=(9, 6))
    ties[:, 4:] = 0.0  # zero columns
    ties[2, 0], ties[5, 0] = 4.0, -4.0  # +a before -a
    ties[1, 1], ties[3, 1] = -4.0, 4.0  # -a before +a
    ties[0, 2], ties[8, 2] = 4.0, -4.0
    ties[4, 3], ties[6, 3] = -4.0, 4.0
    ties[7, 4] = -0.0
    cases.append(ties)
    for U in cases:
        before = U.copy()
        fixed = fix_signs(U)
        assert np.array_equal(fixed, _fix_signs_by_argmax(U))
        assert np.array_equal(np.signbit(fixed), np.signbit(_fix_signs_by_argmax(U)))
        assert np.array_equal(U, before)
    # The first maximal entry decides: +a, -a, +a, -a.
    assert np.array_equal(fix_signs(ties)[[2, 1, 0, 4], [0, 1, 2, 3]], [4.0, 4.0, 4.0, 4.0])


def test_recover_markov_identity_degrees():
    U = np.linalg.qr(np.random.default_rng(1).normal(size=(30, 4)))[0]
    deg = DegreeVector(np.ones(30))
    V = recover_markov_eigvecs(U, deg)
    assert np.allclose(V, fix_signs(U), rtol=0.0, atol=1e-14)


def test_recover_markov_ignores_column_signs():
    # nystrom_eigs hands over unsigned singular vectors: their sign fix
    # must not change the Markov vectors.
    rng = np.random.default_rng(4)
    ties = rng.normal(size=(9, 5))
    ties[2, 0], ties[5, 0] = 4.0, -4.0  # +a before -a
    ties[1, 1], ties[3, 1] = -4.0, 4.0  # -a before +a
    zeros = rng.normal(size=(9, 4))
    zeros[:, [1, 3]] = 0.0
    cases = [
        (rng.normal(size=(7, 3)), rng.uniform(0.5, 3.0, 7)),
        (rng.normal(size=(500, 40)), rng.uniform(0.5, 3.0, 500)),
        (ties, np.ones(9)),  # unit degrees keep the ties in V
        (zeros, rng.uniform(0.5, 3.0, 9)),
    ]
    for U, values in cases:
        deg = DegreeVector(values)
        before = U.copy()
        V = recover_markov_eigvecs(U, deg)
        assert np.array_equal(U, before)
        assert np.array_equal(V, recover_markov_eigvecs(fix_signs(U), deg))
        assert np.array_equal(V, recover_markov_eigvecs(-U, deg))


def test_recover_markov_residuals_helix():
    X = generate_helix(500, noise_std=0.05, seed=1)
    K = gaussian_kernel_matrix(X, 0.5)
    deg = degree_vector(X, 0.5)
    model = deterministic_model(K.copy(), deg, 10)
    P = K / deg.values[:, None]
    p_norm = np.linalg.norm(P, 2)
    for i in range(10):
        v = model.eigenvectors_markov[:, i]
        residual = np.linalg.norm(P @ v - model.eigenvalues[i] * v)
        assert residual <= 1e-8 * p_norm
    # the eigenvalue-1 eigenvector of a row-stochastic matrix is constant
    lead = model.eigenvectors_markov[:, 0]
    assert np.abs(lead - lead.mean()).max() <= 1e-8


def test_similar_matrices_share_eigenvalues():
    for seed in (0, 1):
        _, K, deg = _diffusion_parts(200, 3, seed)
        A = symmetric_matrix(K.copy(), deg)
        P = K / deg.values[:, None]
        vals_A, _ = eigendecompose(A, 8)
        vals_P = np.sort(np.real(scipy.linalg.eigvals(P)))[::-1][:8]
        assert np.abs(vals_A - vals_P).max() <= 1e-8


def test_deterministic_model_fields():
    X, K, deg = _diffusion_parts(100, 3, 5)
    model = deterministic_model(K, deg, 7)
    assert model.method == "deterministic"
    assert model.rank_d == 7
    assert model.eigenvalues.shape == (7,)
    assert model.eigenvectors_markov.shape == (100, 7)
    assert -1e-10 <= model.eigenvalues.min() and model.eigenvalues.max() <= 1 + 1e-10


def test_spectral_model_validation():
    deg = DegreeVector(np.ones(4))
    U = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 2)))[0]
    with pytest.raises(ParameterError):
        SpectralModel(np.array([1.0, 0.5]), U, deg, "bogus")
    with pytest.raises(DimensionError):
        SpectralModel(np.array([1.0]), U, deg, "deterministic")
    assert SpectralModel(np.array([1.0, 0.5]), U, deg, "deterministic").rank_d == 2


def test_diffusion_operator_matches_dense(block_rows):
    X, K, deg = _diffusion_parts(200, 3, 6)
    A = symmetric_matrix(K, deg)
    block_rows(64, 200)
    op = DiffusionOperator(X, 0.8, deg)
    B = np.random.default_rng(7).normal(size=(200, 5))
    dense = A @ B
    blocked = op.matmat(B)
    assert np.abs(dense - blocked).max() <= 1e-13 * np.abs(dense).max()
    assert np.array_equal(op @ B, op.matmat(B))


def test_diffusion_operator_block_sizes(kernel_entries, block_rows):
    n = 137  # prime: no block size below n divides it
    X, K, deg = _diffusion_parts(n, 3, 9)
    A = symmetric_matrix(K, deg)
    B = np.random.default_rng(10).normal(size=(n, 4))
    for rows in (1, 7, 64, n, n + 5):
        block_rows(rows, n)
        op = DiffusionOperator(X, 0.8, deg)
        dense = A @ B
        kernel_entries.clear()
        first = op.matmat(B)
        # symmetry halves the kernel entries a multiply evaluates
        assert sum(kernel_entries) <= (n * n + n * rows) / 2 + n
        assert first.shape == dense.shape
        assert np.abs(dense - first).max() <= 1e-13 * np.abs(dense).max()
        assert np.array_equal(op.matmat(B), first)


def test_diffusion_operator_validation():
    X, _, deg = _diffusion_parts(50, 2, 8)
    op = DiffusionOperator(X, 0.8, deg)
    with pytest.raises(DimensionError):
        op.matmat(np.ones((49, 2)))
    with pytest.raises(DimensionError):
        op.matmat(np.ones(50))
    with pytest.raises(ParameterError):
        DiffusionOperator(X, -1.0, deg)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_matmat_transposed_products_use_a_small_scratch(monkeypatch):
    # The transposed products go through a scratch of at most
    # MATMAT_CHUNK_ENTRIES: past the kernel block, the multiply holds its
    # scaled operand and its result, where it held a third n-by-k buffer.
    n = 6000
    X = DataMatrix(np.random.default_rng(16).normal(size=(n, 3)))
    op = DiffusionOperator(X, 0.5, degree_vector(X, 0.5))
    B = np.random.default_rng(17).normal(size=(n, 110))
    out, peak = _traced_peak(lambda: op.matmat(B))
    assert out.shape == B.shape
    assert peak < kernel.BLOCK_ENTRIES * 8 + 2 * B.nbytes + (1 << 20)
    # Chunks of five rows give the dense product to rounding.
    X, K, deg = _diffusion_parts(137, 3, 9)
    B = np.random.default_rng(10).normal(size=(137, 4))
    monkeypatch.setattr(spectral, "MATMAT_CHUNK_ENTRIES", 5 * 4)
    dense = symmetric_matrix(K, deg) @ B
    got = DiffusionOperator(X, 0.8, deg) @ B
    assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


def test_unit_degree_multiply_skips_both_scalings():
    # With unit degrees the multiply is by K and scales nothing.  x * 1.0
    # == x, so its bits are those of the scaled route, which degrees of 4
    # scale exactly: (K (B / 2)) / 2 = K B / 4.
    X, _, _ = _diffusion_parts(300, 3, 11)
    B = np.random.default_rng(12).normal(size=(300, 7))
    unit = DiffusionOperator(X, 0.8, DegreeVector(np.ones(300))) @ B
    four = DiffusionOperator(X, 0.8, DegreeVector(np.full(300, 4.0))) @ B
    assert np.array_equal(unit, 4.0 * four)
    # No scaled copy of the operand: past the kernel block, only the result.
    n = 6000
    X = DataMatrix(np.random.default_rng(16).normal(size=(n, 3)))
    op = DiffusionOperator(X, 0.5, DegreeVector(np.ones(n)))
    B = np.random.default_rng(17).normal(size=(n, 110))
    _, peak = _traced_peak(lambda: op.matmat(B))
    assert peak < kernel.BLOCK_ENTRIES * 8 + B.nbytes + (1 << 20)
