import warnings

import numpy as np
import pytest

from nydmap import (
    DegeneracyError,
    DiffusionEmbedding,
    DimensionError,
    IndexingError,
    NumericError,
    ParameterError,
    degree_vector,
    deterministic_model,
    diffusion_distance,
    diffusion_map,
    gaussian_kernel_matrix,
    generate_helix,
    kmeans_cluster,
    relative_embedding_error,
)
from nydmap import embedding
from nydmap.embedding import ClusterLabels, eigenvalue_power
from nydmap.kernel import DegreeVector
from nydmap.spectral import SpectralModel


def _helix_model(n=200, d=6, sigma=0.5, seed=0):
    X = generate_helix(n, noise_std=0.05, seed=seed)
    K = gaussian_kernel_matrix(X, sigma)
    deg = degree_vector(X, sigma)
    return deterministic_model(K, deg, d)


def _hand_model(vals, n=8, seed=0):
    vals = np.asarray(vals, dtype=float)
    d = vals.size
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, d)))[0]
    return SpectralModel(vals, Q, DegreeVector(np.ones(n)), "deterministic")


def _flat_embedding(coords):
    coords = np.asarray(coords, dtype=float)
    return DiffusionEmbedding(coords, 1.0, np.ones(coords.shape[1]))


def test_embedding_matches_definition_at_unit_time():
    model = _helix_model()
    emb = diffusion_map(model, 1.0)
    expected = model.eigenvectors_markov * np.sqrt(model.eigenvalues)[None, :]
    assert np.array_equal(emb.coords, expected)
    assert np.array_equal(emb.component_eigenvalues, model.eigenvalues)
    assert emb.t == 1.0 and emb.n == 200 and emb.d == 6


def test_zero_eigenvalue_gives_zero_column():
    model = _hand_model([1.0, 0.0])
    emb = diffusion_map(model, 3.0)
    assert np.all(emb.coords[:, 1] == 0.0)
    assert np.any(emb.coords[:, 0] != 0.0)


def test_doubling_time_scales_column_norms_by_eigenvalue():
    model = _helix_model()
    e2 = diffusion_map(model, 2.0)
    e4 = diffusion_map(model, 4.0)
    norms2 = np.linalg.norm(e2.coords, axis=0)
    norms4 = np.linalg.norm(e4.coords, axis=0)
    ratio = norms4 / norms2
    rel = np.abs(ratio - model.eigenvalues) / model.eigenvalues
    assert rel.max() <= 1e-12


def test_drop_trivial_skips_constant_component():
    model = _helix_model()
    full = diffusion_map(model, 1.0)
    col0 = full.coords[:, 0]
    assert np.std(col0) / np.abs(np.mean(col0)) < 1e-6
    emb = diffusion_map(model, 1.0, d=5, drop_trivial=True)
    assert np.array_equal(emb.coords, full.coords[:, 1:6])
    assert np.array_equal(emb.component_eigenvalues, model.eigenvalues[1:6])


def test_classic_weighting_uses_full_eigenvalue_power():
    model = _helix_model()
    emb = diffusion_map(model, 2.0, classic_weighting=True)
    expected = model.eigenvectors_markov * (model.eigenvalues ** 2.0)[None, :]
    assert np.array_equal(emb.coords, expected)


def test_eigenvalue_power_rules():
    assert np.array_equal(eigenvalue_power(np.array([4.0]), 0.5), [2.0])
    # rounding-noise negatives clamp to zero
    assert np.array_equal(eigenvalue_power(np.array([-5e-11, 0.25]), 2.0), [0.0, 0.0625])
    with pytest.raises(NumericError):
        eigenvalue_power(np.array([1.0, -1e-6]), 2.0)


def test_diffusion_map_validation():
    model = _hand_model([1.0, 0.5, 0.25])
    with pytest.raises(ParameterError):
        diffusion_map(model, 0.0)
    with pytest.raises(ParameterError):
        diffusion_map(model, -1.0)
    with pytest.raises(ParameterError):
        diffusion_map(model, 1.0, d=4)
    with pytest.raises(ParameterError):
        diffusion_map(model, 1.0, d=3, drop_trivial=True)
    with pytest.raises(ParameterError):
        diffusion_map(model, 1.0, d=0)
    with pytest.raises(NumericError):
        diffusion_map(_hand_model([1.0, -1e-6]), 1.0)


def test_diffusion_distance_basic_properties():
    emb = diffusion_map(_helix_model(), 1.5)
    assert diffusion_distance(emb, 7, 7) == 0.0
    assert diffusion_distance(emb, 3, 11) == diffusion_distance(emb, 11, 3)
    for bad in (-1, emb.n):
        with pytest.raises(IndexingError):
            diffusion_distance(emb, 0, bad)


def test_diffusion_distance_termwise_oracle():
    model = _helix_model()
    t = 2.5
    emb = diffusion_map(model, t)
    powered = model.eigenvalues ** t
    rng = np.random.default_rng(0)
    for _ in range(25):
        i, j = rng.integers(emb.n, size=2)
        want = sum(
            powered[c] * (model.eigenvectors_markov[i, c] - model.eigenvectors_markov[j, c]) ** 2
            for c in range(emb.d)
        )
        got = diffusion_distance(emb, int(i), int(j))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_diffusion_distance_triangle_inequality():
    emb = diffusion_map(_helix_model(), 1.0)
    rng = np.random.default_rng(1)
    for _ in range(30):
        i, j, k = (int(v) for v in rng.integers(emb.n, size=3))
        dik = np.sqrt(diffusion_distance(emb, i, k))
        dij = np.sqrt(diffusion_distance(emb, i, j))
        djk = np.sqrt(diffusion_distance(emb, j, k))
        assert dik <= dij + djk + 1e-12


def test_relative_error_zero_for_identical_and_sign_flipped():
    ref = diffusion_map(_helix_model(), 1.0)
    assert relative_embedding_error(ref, ref) == 0.0
    flipped = DiffusionEmbedding(-ref.coords, ref.t, ref.component_eigenvalues)
    assert relative_embedding_error(ref, flipped) == 0.0


def test_relative_error_of_zeroed_column():
    ref = diffusion_map(_helix_model(), 1.0)
    coords = ref.coords.copy()
    coords[:, 2] = 0.0
    approx = DiffusionEmbedding(coords, ref.t, ref.component_eigenvalues)
    want = np.linalg.norm(ref.coords[:, 2]) / np.linalg.norm(ref.coords)
    assert relative_embedding_error(ref, approx) == pytest.approx(want, rel=1e-12)


def test_relative_error_validation():
    ref = diffusion_map(_helix_model(), 1.0)
    narrow = diffusion_map(_helix_model(), 1.0, d=3)
    with pytest.raises(DimensionError):
        relative_embedding_error(ref, narrow)
    later = diffusion_map(_helix_model(), 2.0)
    with pytest.raises(ParameterError):
        relative_embedding_error(ref, later)
    zero = _flat_embedding(np.zeros((5, 2)))
    other = _flat_embedding(np.ones((5, 2)))
    with pytest.raises(DegeneracyError):
        relative_embedding_error(zero, other)


def test_embedding_validation():
    with pytest.raises(DimensionError):
        DiffusionEmbedding(np.zeros(5), 1.0, np.ones(1))
    with pytest.raises(DimensionError):
        DiffusionEmbedding(np.zeros((5, 2)), 1.0, np.ones(3))
    with pytest.raises(ParameterError):
        DiffusionEmbedding(np.zeros((5, 2)), 0.0, np.ones(2))
    bad = np.zeros((5, 2))
    bad[0, 0] = np.nan
    with pytest.raises(NumericError):
        DiffusionEmbedding(bad, 1.0, np.ones(2))


def test_kmeans_recovers_two_separated_blobs():
    rng = np.random.default_rng(2)
    a = rng.normal(scale=0.2, size=(50, 2))
    b = rng.normal(scale=0.2, size=(50, 2)) + 4.0
    emb = _flat_embedding(np.vstack([a, b]))
    for seed in range(5):
        res = kmeans_cluster(emb, 2, seed=seed)
        first, second = res.labels[:50], res.labels[50:]
        assert np.all(first == first[0]) and np.all(second == second[0])
        assert first[0] != second[0]
        assert res.inertia == pytest.approx(res.inertia_history[-1])


def test_kmeans_k_equals_n_is_exact():
    coords = np.random.default_rng(3).normal(size=(12, 3))
    res = kmeans_cluster(_flat_embedding(coords), 12)
    # expanded-form distances leave rounding noise, not exact zeros
    assert 0.0 <= res.inertia <= 1e-12
    assert np.array_equal(np.sort(res.labels), np.arange(12))


def test_kmeans_deterministic_per_seed():
    coords = np.random.default_rng(4).normal(size=(80, 2))
    emb = _flat_embedding(coords)
    r1 = kmeans_cluster(emb, 4, seed=11)
    r2 = kmeans_cluster(emb, 4, seed=11)
    assert np.array_equal(r1.labels, r2.labels)
    assert np.array_equal(r1.inertia_history, r2.inertia_history)


def test_kmeans_inertia_never_increases():
    for seed in range(20):
        coords = np.random.default_rng(seed).normal(size=(60, 2))
        res = kmeans_cluster(_flat_embedding(coords), 5, seed=seed)
        assert np.all(np.diff(res.inertia_history) <= 1e-12)


def _reference_kmeans(coords, k, seed, max_iters=100):
    """Lloyd's loop with per-iteration norms and per-cluster mean copies.

    The straightforward form of kmeans_cluster, kept as an oracle for its
    labels and inertia history; also counts the empty-cluster reseeds.
    """
    n = coords.shape[0]
    centers = embedding._plus_plus_centers(coords, k, np.random.default_rng(seed))
    rows = np.arange(n)
    labels = None
    history = []
    reseeds = 0
    for _ in range(max_iters):
        x2 = np.einsum("ij,ij->i", coords, coords)
        c2 = np.einsum("ij,ij->i", centers, centers)
        d2 = np.maximum(x2[:, None] + c2[None, :] - 2.0 * (coords @ centers.T), 0.0)
        new_labels = d2.argmin(axis=1)
        closest = d2[rows, new_labels]
        for c in range(k):
            if not np.any(new_labels == c):
                reseeds += 1
                centers[c] = coords[int(np.argmax(closest))]
                d2[:, c] = ((coords - centers[c]) ** 2).sum(axis=1)
                new_labels = d2.argmin(axis=1)
                closest = d2[rows, new_labels]
        history.append(float(closest.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            if np.any(labels == c):
                centers[c] = coords[labels == c].mean(axis=0)
    return labels, np.array(history), reseeds


def test_kmeans_matches_reference_loop(monkeypatch):
    rng = np.random.default_rng(21)
    coords = np.vstack([rng.normal(size=(400, 5)) + 3.0 * c for c in range(6)])
    emb = _flat_embedding(coords)
    for seed in range(3):
        got = kmeans_cluster(emb, 8, seed=seed)
        labels, history, _ = _reference_kmeans(coords, 8, seed)
        assert np.array_equal(got.labels, labels)
        np.testing.assert_allclose(got.inertia_history, history, rtol=1e-12, atol=0.0)

    # A start with one center far from every point leaves its cluster
    # empty on the first pass, so the reseed path runs.
    plus_plus = embedding._plus_plus_centers

    def with_far_center(coords, k, rng):
        centers = plus_plus(coords, k, rng)
        centers[-1] = 1e3
        return centers

    monkeypatch.setattr(embedding, "_plus_plus_centers", with_far_center)
    for seed in range(3):
        got = kmeans_cluster(emb, 8, seed=seed)
        labels, history, reseeds = _reference_kmeans(coords, 8, seed)
        assert reseeds >= 1
        assert np.array_equal(got.labels, labels)
        np.testing.assert_allclose(got.inertia_history, history, rtol=1e-12, atol=0.0)


def test_kmeans_degenerate_when_fewer_distinct_points_than_k():
    coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegeneracyError):
        kmeans_cluster(_flat_embedding(coords), 3)


def test_kmeans_validation():
    emb = _flat_embedding(np.random.default_rng(5).normal(size=(10, 2)))
    with pytest.raises(ParameterError):
        kmeans_cluster(emb, 0)
    with pytest.raises(ParameterError):
        kmeans_cluster(emb, 11)


def test_kmeans_reports_whether_it_converged(monkeypatch):
    emb = _flat_embedding(np.random.default_rng(5).normal(size=(200, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        settled = kmeans_cluster(emb, 4, seed=0)
    assert settled.converged
    assert 1 < len(settled.inertia_history) < embedding.KMEANS_MAX_ITERS
    # One round cannot see the assignment settle: the cap is hit and said.
    monkeypatch.setattr(embedding, "KMEANS_MAX_ITERS", 1)
    with pytest.warns(UserWarning, match="k-means stopped at its cap of 1 rounds"):
        capped = kmeans_cluster(emb, 4, seed=0)
    assert not capped.converged
    assert len(capped.inertia_history) == 1


def test_cluster_labels_validation():
    with pytest.raises(DegeneracyError):
        ClusterLabels(np.array([0, 0, 1]), 3, 0.0, np.zeros(1), True)
    with pytest.raises(DimensionError):
        ClusterLabels(np.zeros((2, 2), dtype=int), 2, 0.0, np.zeros(1), True)