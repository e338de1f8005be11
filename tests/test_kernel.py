import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nydmap import (
    CapacityError,
    DataMatrix,
    DegeneracyError,
    IndexingError,
    NumericError,
    ParameterError,
    gaussian_kernel_columns,
    gaussian_kernel_matrix,
)
from nydmap import kernel
from nydmap.kernel import (
    BLOCK_ENTRIES,
    DegreeVector,
    degree_vector,
    gaussian_kernel_block,
)
from nydmap.spectral import DiffusionOperator


def _random_data(n, p, seed):
    return DataMatrix(np.random.default_rng(seed).normal(size=(n, p)))


def test_unit_diagonal_and_entry_range():
    for seed in range(5):
        X = _random_data(60, 3, seed)
        K = gaussian_kernel_matrix(X, 0.7)
        assert np.all(np.diag(K) == 1.0)
        assert K.min() >= 0.0 and K.max() <= 1.0


def test_two_points_at_distance_sqrt_sigma():
    sigma = 0.37
    X = DataMatrix(np.array([[0.0], [math.sqrt(sigma)]]))
    K = gaussian_kernel_matrix(X, sigma)
    assert abs(K[0, 1] - 0.36787944117144233) < 1e-15


def test_three_point_hand_table():
    # Pairwise squared distances 1, 4 and 5 at sigma = 0.5 give entries
    # exp(-2), exp(-8), exp(-10); decimals below were computed separately.
    X = DataMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    K = gaussian_kernel_matrix(X, 0.5)
    expected = np.array(
        [
            [1.0, 0.1353352832366127, 0.00033546262790251185],
            [0.1353352832366127, 1.0, 4.5399929762484854e-05],
            [0.00033546262790251185, 4.5399929762484854e-05, 1.0],
        ]
    )
    assert np.allclose(K, expected, rtol=1e-15, atol=0.0)


def test_exact_symmetry_across_blockings(block_rows):
    X = _random_data(300, 4, 0)
    block_rows(64, 300)
    K_small_blocks = gaussian_kernel_matrix(X, 1.1)
    block_rows(1024, 300)
    K_one_block = gaussian_kernel_matrix(X, 1.1)
    assert np.abs(K_small_blocks - K_small_blocks.T).max() == 0.0
    assert np.array_equal(K_small_blocks, K_one_block)


def test_kernel_is_positive_semidefinite():
    for seed, n in ((0, 120), (1, 300), (2, 500)):
        X = _random_data(n, 3, seed)
        K = gaussian_kernel_matrix(X, 0.9)
        vals = np.linalg.eigvalsh(K)
        assert vals[0] >= -1e-10 * vals[-1]


def test_columns_match_full_matrix():
    X = _random_data(200, 3, 3)
    K = gaussian_kernel_matrix(X, 0.5)
    J = np.random.default_rng(4).choice(200, size=40, replace=False)
    cols = gaussian_kernel_columns(X, 0.5, J)
    assert np.array_equal(cols, K[:, J])


def test_columns_complete_and_single():
    X = _random_data(50, 2, 5)
    K = gaussian_kernel_matrix(X, 0.8)
    assert np.array_equal(gaussian_kernel_columns(X, 0.8, np.arange(50)), K)
    single = gaussian_kernel_columns(X, 0.8, np.array([17]))
    assert single.shape == (50, 1)
    assert single[17, 0] == 1.0


def test_columns_index_validation():
    X = _random_data(20, 2, 6)
    with pytest.raises(IndexingError):
        gaussian_kernel_columns(X, 0.5, np.array([1, 1]))
    with pytest.raises(IndexingError):
        gaussian_kernel_columns(X, 0.5, np.array([20]))
    with pytest.raises(IndexingError):
        gaussian_kernel_columns(X, 0.5, np.array([-1]))
    with pytest.raises(IndexingError):
        gaussian_kernel_columns(X, 0.5, np.array([0.0, 1.0]))
    with pytest.raises(IndexingError):
        gaussian_kernel_columns(X, 0.5, np.array([], dtype=int))


def test_degrees_match_materialized_rowsums(block_rows):
    for seed, p in ((0, 3), (1, 3), (2, 3), (3, 3), (4, 1), (5, 7)):
        X = _random_data(200, p, seed)
        K = gaussian_kernel_matrix(X, 0.6)
        deg = degree_vector(X, 0.6).values
        assert np.array_equal(deg, K.sum(axis=1))
    # multi-block streaming agrees with the single-block path bitwise
    X = _random_data(300, 3, 9)
    block_rows(64, 300)
    a = degree_vector(X, 0.6).values
    block_rows(1024, 300)
    b = degree_vector(X, 0.6).values
    assert np.array_equal(a, b)


def test_degree_pass_with_product(block_rows):
    # Over several row blocks, the streamed degrees are the materialized row
    # sums bitwise, and the unit-degree operator multiplies by K itself.
    X = _random_data(300, 3, 10)
    Z = np.random.default_rng(11).normal(size=(300, 7))
    K = gaussian_kernel_matrix(X, 0.6)
    block_rows(64, 300)
    assert np.array_equal(degree_vector(X, 0.6).values, K.sum(axis=1))
    KZ = DiffusionOperator(X, 0.6, DegreeVector(np.ones(300))) @ Z
    dense = K @ Z
    assert np.linalg.norm(KZ - dense) <= 1e-13 * np.linalg.norm(dense)


def test_degrees_identical_points():
    X = DataMatrix(np.ones((5, 3)))
    assert np.all(degree_vector(X, 0.5).values == 5.0)


def test_degrees_far_points():
    X = DataMatrix(np.array([[0.0], [1000.0]]))
    # exp(-2e6) underflows to zero, leaving only the diagonal contribution
    assert np.all(degree_vector(X, 0.5).values == 1.0)


def test_sigma_validation():
    X = _random_data(10, 2, 7)
    deg = degree_vector(X, 1.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            gaussian_kernel_matrix(X, bad)
        with pytest.raises(ParameterError):
            gaussian_kernel_columns(X, bad, np.array([0]))
        with pytest.raises(ParameterError):
            degree_vector(X, bad)
        with pytest.raises(ParameterError):
            DiffusionOperator(X, bad, deg)


def test_block_rows_does_not_change_results(block_rows):
    for p in (3, 1, 7):
        X = _random_data(137, p, 8)
        block_rows(137, 137)
        K_ref = gaussian_kernel_matrix(X, 0.5)
        for block in (1, 7, 64, 100):
            block_rows(block, 137)
            assert np.array_equal(gaussian_kernel_matrix(X, 0.5), K_ref)


def test_default_blocks_split_large_n(kernel_entries, block_rows):
    n = 2003  # prime, and above BLOCK_ENTRIES // n rows: several blocks
    X = _random_data(n, 3, 14)
    deg = degree_vector(X, 0.5)
    K = gaussian_kernel_matrix(X, 0.5)
    J = np.random.default_rng(15).choice(n, size=60, replace=False)
    cols = gaussian_kernel_columns(X, 0.5, J)
    DiffusionOperator(X, 0.5, deg).matmat(np.ones((n, 2)))
    blocks = -(-n // (BLOCK_ENTRIES // n))
    # Column blocks are sized from len(J): all 60 columns fit in one block.
    assert blocks > 1 and len(kernel_entries) == 3 * blocks + 1
    assert max(kernel_entries) <= BLOCK_ENTRIES

    block_rows(n, n)
    K_one_block = gaussian_kernel_matrix(X, 0.5)
    assert np.array_equal(deg.values, K.sum(axis=1))
    assert np.array_equal(K, K_one_block)
    assert np.abs(K - K.T).max() == 0.0
    assert np.all(np.diag(K) == 1.0)
    assert np.array_equal(cols, K[:, J])


def test_column_blocks_match_full_matrix(kernel_entries, block_rows):
    n = 200
    X = _random_data(n, 3, 18)
    K = gaussian_kernel_matrix(X, 0.5)
    J = np.random.default_rng(19).choice(n, size=40, replace=False)
    block_rows(7, J.size)
    kernel_entries.clear()
    cols = gaussian_kernel_columns(X, 0.5, J)
    assert np.array_equal(cols, K[:, J])
    assert len(kernel_entries) == -(-n // 7)
    assert max(kernel_entries) <= kernel.BLOCK_ENTRIES


def test_default_blocks_bound_peak_memory():
    # The budget caps each block at 8 MB; a 1024-row block was 47 MB here.
    n = 6000
    X = _random_data(n, 3, 16)
    budget = BLOCK_ENTRIES * 8
    tracemalloc.start()
    try:
        deg = degree_vector(X, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * budget + 8 * n
    op = DiffusionOperator(X, 0.5, deg)
    B = np.random.default_rng(17).normal(size=(n, 110))
    tracemalloc.start()
    try:
        out = op.matmat(B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == B.shape
    assert peak < 3 * budget + 3 * B.nbytes


def _einsum_block(Xa, Xb, sigma):
    # The (b, m, p) difference-tensor form the accumulating kernel replaced.
    diff = Xa[:, None, :] - Xb[None, :, :]
    return np.exp(np.einsum("abk,abk->ab", diff, diff) / -sigma)


def test_block_matches_difference_tensor_reference():
    # Entries lie in [0, 1] and only the order of the p-term sum differs.
    tol = 8 * np.finfo(float).eps
    rng = np.random.default_rng(11)
    for p in (1, 3, 7):
        Xa = rng.normal(size=(90, p))
        Xb = rng.normal(size=(130, p))
        for a, b in ((Xa, Xb), (np.asfortranarray(Xa), np.asfortranarray(Xb))):
            block = gaussian_kernel_block(a, b, 0.7)
            assert block.shape == (90, 130)
            assert np.abs(block - _einsum_block(Xa, Xb, 0.7)).max() <= tol
    # column-sliced inputs are strided views
    wide = rng.normal(size=(100, 9))
    a, b = wide[:40, 1:8:2], wide[40:, 0:8:2]
    assert not a.flags.c_contiguous and not b.flags.c_contiguous
    assert np.abs(gaussian_kernel_block(a, b, 0.7) - _einsum_block(a, b, 0.7)).max() <= tol


def test_block_memory_is_two_output_buffers():
    # 1024 x 6000 at p = 3: the old difference tensor alone was 3 buffers.
    X = np.random.default_rng(12).normal(size=(6000, 3))
    rows = X[:1024]
    tracemalloc.start()
    try:
        block = gaussian_kernel_block(rows, X, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (1024, 6000)
    assert peak < 2.5 * 1024 * 6000 * 8


def _layouts(values):
    """The same points C-ordered, F-ordered and as a strided column view."""
    wide = np.zeros((values.shape[0], 2 * values.shape[1]))
    wide[:, ::2] = values
    return np.ascontiguousarray(values), np.asfortranarray(values), wide[:, ::2]


def _tiled_results(values):
    # Every layer that evaluates kernel blocks, on points with any layout:
    # DataMatrix would copy them to C order, so a bare holder of .values
    # and .n stands in for it.
    pts = SimpleNamespace(values=values, n=len(values))
    n = len(values)
    rng = np.random.default_rng(23)
    Z, B = rng.normal(size=(n, 5)), rng.normal(size=(n, 4))
    J = rng.choice(n, size=17, replace=False)
    deg = degree_vector(pts, 0.6)
    return [
        gaussian_kernel_block(values[:90], values, 0.6),
        gaussian_kernel_matrix(pts, 0.6),
        gaussian_kernel_columns(pts, 0.6, J),
        deg.values,
        DiffusionOperator(pts, 0.6, DegreeVector(np.ones(n))).matmat(Z),
        DiffusionOperator(pts, 0.6, deg).matmat(B),
    ]


def test_tiles_do_not_change_bits(monkeypatch, block_rows):
    n = 130
    block_rows(40, n)  # several row blocks, and strips of shrinking width
    # One row per tile; 7-row tiles of a 130-wide block, which leave a
    # ragged last tile of 90 % 7 and 40 % 7 rows; one tile per block.  At
    # this n the default is one tile per block too, so the reference is
    # the untiled evaluation order.
    settings = (1, 7 * n, 1 << 40)
    assert 90 % 7 and 40 % 7
    default = kernel.TILE_ENTRIES
    for p in (1, 3, 7):
        points = np.random.default_rng(p).normal(size=(n, p))
        monkeypatch.setattr(kernel, "TILE_ENTRIES", default)
        reference = _tiled_results(points)
        for tile_entries in settings:
            monkeypatch.setattr(kernel, "TILE_ENTRIES", tile_entries)
            for values in _layouts(points):
                for got, want in zip(_tiled_results(values), reference):
                    assert np.array_equal(got, want)


def test_block_memory_is_one_buffer_and_a_tile():
    # 1024 x 6000 at p = 3: the result and a tile scratch, one allocation.
    X = np.random.default_rng(12).normal(size=(6000, 3))
    block_bytes = 1024 * 6000 * 8
    tracemalloc.start()
    try:
        block = gaussian_kernel_block(X[:1024], X, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (1024, 6000)
    assert peak < 1.25 * block_bytes + 8 * kernel.TILE_ENTRIES


def test_oversized_kernel_raises_capacity_error():
    # 200000^2 doubles is 320 GB; the allocation must fail fast and be
    # reported as a capacity problem, not a bare MemoryError.
    X = DataMatrix(np.zeros((200000, 1)))
    with pytest.raises(CapacityError) as excinfo:
        gaussian_kernel_matrix(X, 0.5)
    assert "bytes" in str(excinfo.value)


def test_kernel_matrix_checks_available_memory_first(monkeypatch):
    # Under overcommit an allocation beyond MemAvailable can succeed and
    # the process be killed while it is filled, so the request is checked
    # against the reported figure before any allocation.
    X = DataMatrix(np.zeros((100, 1)))
    needed = 8 * 100 * 100
    monkeypatch.setattr(kernel, "_available_memory_bytes", lambda: needed - 1)
    with pytest.raises(CapacityError, match=f"needs {needed} bytes, but only"):
        gaussian_kernel_matrix(X, 0.5)
    for available in (needed, None):  # enough, or unreadable: no check
        monkeypatch.setattr(kernel, "_available_memory_bytes", lambda: available)
        assert gaussian_kernel_matrix(X, 0.5).shape[0] == 100


def test_available_memory_reads_meminfo():
    available = kernel._available_memory_bytes()
    if os.path.exists("/proc/meminfo"):
        assert available > 0
    else:
        assert available is None


def test_degree_vector_type_validation():
    with pytest.raises(DegeneracyError):
        DegreeVector(np.array([1.0, 0.0]))
    with pytest.raises(DegeneracyError):
        DegreeVector(np.array([1.0, -2.0]))
    with pytest.raises(NumericError):
        DegreeVector(np.array([1.0, np.nan]))
