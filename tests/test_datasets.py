import io
import tracemalloc

import numpy as np
import pytest

from nydmap import (
    DataFormatError,
    DataMatrix,
    IntegrationError,
    LorenzParams,
    ParameterError,
    generate_helix,
    generate_swiss_roll,
    integrate_lorenz,
    load_csv,
    lorenz_derivative,
    save_csv,
    subsample_rows,
)
from nydmap.datasets import CSV_CHUNK_VALUES


def test_helix_zero_noise_lies_on_manifold():
    X = generate_helix(100, noise_std=0.0, seed=0).values
    assert X.shape == (100, 3)
    radius_residual = np.abs(X[:, 0] ** 2 + X[:, 1] ** 2 - 1.0)
    assert radius_residual.max() < 1e-12
    assert np.all(np.diff(X[:, 2]) > 0)  # z monotone along the curve
    assert X[0, 2] == 0.0 and X[-1, 2] == 1.0


def test_helix_seeded_determinism():
    a = generate_helix(100, noise_std=0.05, seed=7).values
    b = generate_helix(100, noise_std=0.05, seed=7).values
    assert np.array_equal(a, b)
    c = generate_helix(100, noise_std=0.05, seed=8).values
    assert not np.array_equal(a, c)


def test_helix_large_sample_means():
    # cos and sin integrate to zero over two full turns, and the noise has
    # zero mean, so the x/y column means should sit within 3 standard errors.
    X = generate_helix(15000, noise_std=0.05, seed=1).values
    for col in (0, 1):
        se = X[:, col].std() / np.sqrt(X.shape[0])
        assert abs(X[:, col].mean()) < 3.0 * se


def test_helix_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        generate_helix(1, noise_std=0.0, seed=0)
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ParameterError):
            generate_helix(100, noise_std=bad, seed=0)


def test_swiss_roll_zero_noise_identity():
    points, s = generate_swiss_roll(50, noise_std=0.0, seed=0)
    X = points.values
    residual = np.abs(X[:, 0] ** 2 + X[:, 2] ** 2 - s**2) / s**2
    assert residual.max() < 1e-12


def test_swiss_roll_shape_contract():
    points, s = generate_swiss_roll(20000, noise_std=0.05, seed=3)
    assert points.values.shape == (20000, 3)
    assert s.shape == (20000,)
    assert np.all(np.isfinite(points.values))


def test_swiss_roll_determinism_and_validation():
    a, sa = generate_swiss_roll(64, noise_std=0.02, seed=11)
    b, sb = generate_swiss_roll(64, noise_std=0.02, seed=11)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(sa, sb)
    with pytest.raises(ParameterError):
        generate_swiss_roll(1, noise_std=0.0, seed=0)


def test_swiss_roll_neighbors_follow_parameter():
    # In the (x, z) plane the roll is an unrolled spiral: each point's
    # nearest neighbor should be adjacent in the s-ordering for nearly
    # every point.
    points, s = generate_swiss_roll(1000, noise_std=0.0, seed=5)
    plane = points.values[:, [0, 2]]
    diff = plane[:, None, :] - plane[None, :, :]
    dist = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(dist, np.inf)
    neighbor = dist.argmin(axis=1)
    rank = np.empty_like(s, dtype=int)
    rank[np.argsort(s)] = np.arange(s.size)
    adjacent = np.abs(rank - rank[neighbor]) == 1
    assert adjacent.mean() >= 0.99


def test_lorenz_origin_is_fixed_point():
    traj = integrate_lorenz(LorenzParams(x0=(0.0, 0.0, 0.0), t_end=0.05, dt=1e-3))
    assert np.all(traj.values == 0.0)


def test_lorenz_derivative_hand_value():
    d = lorenz_derivative((-8.0, 8.0, 27.0), LorenzParams())
    # 10*(8-(-8)) = 160; -8*(28-27)-8 = -16; (-8*8) - (8/3)*27 = -136,
    # all exactly representable.
    assert d[0] == 160.0 and d[1] == -16.0 and d[2] == -136.0


def test_lorenz_row_counts():
    assert integrate_lorenz(LorenzParams(t_end=1.0, dt=1e-3)).n == 1001
    assert integrate_lorenz(LorenzParams(t_end=0.01, dt=1e-4)).n == 101
    # 0.3/0.1 evaluates below 3.0 in floating point; the count must still
    # treat it as an exact multiple.
    assert integrate_lorenz(LorenzParams(t_end=0.3, dt=0.1)).n == 4


def test_lorenz_step_halving_is_fourth_order():
    def terminal(dt):
        return integrate_lorenz(LorenzParams(t_end=1.0, dt=dt)).values[-1]

    coarse = np.linalg.norm(terminal(1e-3) - terminal(5e-4))
    fine = np.linalg.norm(terminal(5e-4) - terminal(2.5e-4))
    ratio = coarse / fine
    assert 8.0 < ratio < 24.0


def test_lorenz_divergence_reports_step():
    with pytest.raises(IntegrationError) as excinfo:
        integrate_lorenz(LorenzParams(x0=(1e200, 1e200, 1e200), t_end=0.01, dt=1e-3))
    assert "step 1" in str(excinfo.value)


def test_lorenz_params_validation():
    with pytest.raises(ParameterError):
        LorenzParams(dt=0.0)
    with pytest.raises(ParameterError):
        LorenzParams(t_end=-1.0)
    with pytest.raises(ParameterError):
        LorenzParams(dt=2.0, t_end=1.0)
    with pytest.raises(ParameterError):
        LorenzParams(x0=(1.0, 2.0))


def test_data_matrix_validation():
    with pytest.raises(DataFormatError):
        DataMatrix(np.zeros(5))
    with pytest.raises(ParameterError):
        DataMatrix(np.zeros((1, 3)))
    with pytest.raises(DataFormatError):
        DataMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_subsample_rows_spacing():
    data = DataMatrix(np.arange(20.0)[:, None])
    sub = subsample_rows(data, 5)
    idx = sub.values[:, 0]
    assert idx[0] == 0.0 and idx[-1] == 19.0
    assert np.all(np.diff(idx) > 0)
    assert subsample_rows(data, 20).values.shape == (20, 1)
    with pytest.raises(ParameterError):
        subsample_rows(data, 21)
    with pytest.raises(ParameterError):
        subsample_rows(data, 1)


def test_load_csv_basic(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1,2\n3,4\n")
    X = load_csv(path).values
    assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_header_and_crlf(tmp_path):
    path = tmp_path / "header.csv"
    path.write_bytes(b"a,b\r\n1,2\r\n3,4\r\n")
    X = load_csv(path, skip_header=True).values
    assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(DataFormatError) as excinfo:
        load_csv(path)
    assert "2" in str(excinfo.value)  # parser names the offending row


def test_load_csv_rejects_bad_cells(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,abc\n2,3\n")
    with pytest.raises(DataFormatError):
        load_csv(bad)
    nonfinite = tmp_path / "nan.csv"
    nonfinite.write_text("1,nan\n2,3\n")
    with pytest.raises(DataFormatError):
        load_csv(nonfinite)


def test_load_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_csv_roundtrip_is_exact(tmp_path):
    X = generate_helix(50, noise_std=0.05, seed=2).values.copy()
    X[::7, 0] = -0.0
    X[3::7, 1] = 0.0
    path = tmp_path / "helix.csv"
    save_csv(path, X)
    back = load_csv(path).values
    # 17 significant digits round-trip float64 exactly, the sign of zero too.
    assert np.array_equal(back.view(np.uint64), X.view(np.uint64))


def _savetxt_bytes(values):
    buf = io.BytesIO()
    np.savetxt(buf, values, fmt="%.16e", delimiter=",")
    return buf.getvalue()


def _save_csv_bytes(tmp_path, values, header=None):
    path = tmp_path / "values.csv"
    save_csv(path, values, header=header)
    return path.read_bytes()


def _adversarial_values():
    rng = np.random.default_rng(23)
    # Every exponent, subnormals, nan and +-inf.
    bits = rng.integers(0, 2**64, size=30000, dtype=np.uint64).view(np.float64)
    # Short binary fractions m * 2**-k: exact decimal ties at 17 digits.
    ties = rng.integers(1, 2**20, size=8000) * 2.0 ** -rng.integers(1, 80, size=8000)
    tens = np.array([float(f"1e{e}") for e in range(-330, 309)])
    tens = np.concatenate([tens, np.nextafter(tens, np.inf), np.nextafter(tens, 0.0)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    labels = rng.integers(0, 9, size=2000).astype(float)
    signed = np.concatenate([ties, tens, twos, labels, [0.0]])
    return np.concatenate([bits, signed, -signed])


def test_save_csv_bytes_match_savetxt(tmp_path):
    rng = np.random.default_rng(29)
    pool = _adversarial_values()
    for cols in (1, 7, 301):
        # Several full chunks, then a ragged one.
        chunk_rows = max(1, CSV_CHUNK_VALUES // cols)
        full = max(3, pool.size // (chunk_rows * cols))
        rows = full * chunk_rows + chunk_rows // 2 + 1
        values = np.resize(rng.permutation(pool), (rows, cols))
        expected = _savetxt_bytes(values)
        assert _save_csv_bytes(tmp_path, values) == expected
        assert _save_csv_bytes(tmp_path, np.asfortranarray(values)) == expected
    wide = np.resize(rng.permutation(pool), (60, 14))
    sliced = wide[:, 1::2]
    assert not sliced.flags.c_contiguous
    assert _save_csv_bytes(tmp_path, sliced) == _savetxt_bytes(sliced)
    finite = pool[np.isfinite(pool)]
    data = DataMatrix(np.resize(rng.permutation(finite), (500, 3)))
    assert _save_csv_bytes(tmp_path, data, ["a", "b", "c"]) == (
        b"a,b,c\n" + _savetxt_bytes(data.values)
    )


def test_save_csv_exponent_boundaries_and_ties(tmp_path):
    cases = [
        # log10 says -280; the value lies below 1e-280.
        (float("1e-280"), b"9.9999999999999996e-281"),
        # At exponent -4 the 17-digit significand would round up to 1e16.
        (9.999999999999999e-05, b"9.9999999999999991e-05"),
        # True 17-digit ties round to even: down here, up in the next.
        (2.0**-25, b"2.9802322387695312e-08"),
        (11 * 2.0**-23, b"1.3113021850585938e-06"),
        (0.0, b"0.0000000000000000e+00"),
        (-0.0, b"-0.0000000000000000e+00"),
        (3.0, b"3.0000000000000000e+00"),
        (-1e16, b"-1.0000000000000000e+16"),
        (1e17, b"1.0000000000000000e+17"),
        (1e-5, b"1.0000000000000001e-05"),
        (0.0001, b"1.0000000000000000e-04"),
        (1.5e300, b"1.5000000000000001e+300"),
        (float("nan"), b"nan"),
        (float("-inf"), b"-inf"),
    ]
    for value, text in cases:
        assert ("%.16e" % value).encode() == text
    values = np.array([[v for v, _ in cases]])
    expected = b",".join(text for _, text in cases) + b"\n"
    assert _save_csv_bytes(tmp_path, values) == expected


def test_save_csv_memory_does_not_grow_with_rows(tmp_path):
    path = tmp_path / "big.csv"
    save_csv(path, np.ones((2, 2)))  # lookup tables are built on first use
    values = np.random.default_rng(31).normal(size=(15000, 301))
    tracemalloc.start()
    try:
        save_csv(path, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A fixed bound, a small fraction of the 106.1 MB written; formatting
    # the whole matrix at once would take more than the file itself.
    assert peak < 1024 * CSV_CHUNK_VALUES
    assert peak * 20 < path.stat().st_size


def test_save_csv_with_header(tmp_path):
    path = tmp_path / "h.csv"
    save_csv(path, np.array([[1.5, 2.5], [3.25, -4.0]]), header=["a", "b"])
    text = path.read_text()
    assert text.splitlines()[0] == "a,b"
    loaded = load_csv(path, skip_header=True).values
    assert np.array_equal(loaded, [[1.5, 2.5], [3.25, -4.0]])
