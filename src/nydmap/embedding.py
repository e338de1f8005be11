"""Diffusion-map coordinates, diffusion distances, clustering and scoring.

The embedding at diffusion time t maps point i to the row
(sqrt(lam_1^t) v_1[i], ..., sqrt(lam_d^t) v_d[i]) built from the Markov
eigenvectors v_c of a SpectralModel.  Squared Euclidean distance between
rows is the diffusion distance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneracyError,
    DimensionError,
    IndexingError,
    NumericError,
    ParameterError,
)

EIGENVALUE_CLAMP = -1e-10


@dataclass(frozen=True)
class DiffusionEmbedding:
    """n-by-d diffusion coordinates at time t.

    component_eigenvalues holds the (unpowered) eigenvalue of each retained
    component, in column order.
    """

    coords: np.ndarray
    t: float
    component_eigenvalues: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        vals = np.asarray(self.component_eigenvalues, dtype=float)
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise DimensionError(f"coords must be n-by-d, got shape {coords.shape}")
        if vals.shape != (coords.shape[1],):
            raise DimensionError(
                f"need one eigenvalue per column, got {vals.shape} for d={coords.shape[1]}"
            )
        if not self.t > 0.0:
            raise ParameterError(f"diffusion time must be > 0, got {self.t}")
        if not np.all(np.isfinite(coords)):
            raise NumericError("embedding coordinates contain non-finite entries")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "component_eigenvalues", vals)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self):
        return self.coords.shape[0]

    @property
    def d(self):
        return self.coords.shape[1]


@dataclass(frozen=True)
class ClusterLabels:
    """k-means result: labels in [0, k), every cluster nonempty."""

    labels: np.ndarray
    k: int
    inertia: float
    inertia_history: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise DimensionError("labels must be a vector")
        if np.unique(labels).size != self.k:
            raise DegeneracyError(f"expected {self.k} nonempty clusters")
        object.__setattr__(self, "labels", labels.astype(int))
        object.__setattr__(
            self, "inertia_history", np.asarray(self.inertia_history, dtype=float)
        )


def eigenvalue_power(values, t):
    """lam^t with the clamping rule used throughout the package.

    Eigenvalues in [-1e-10, 0) are rounding noise and clamp to 0; anything
    more negative cannot be raised to a real power and raises NumericError.
    """
    values = np.asarray(values, dtype=float)
    worst = values.min() if values.size else 0.0
    if worst < EIGENVALUE_CLAMP:
        raise NumericError(
            f"eigenvalue {worst:.6e} is too negative for a real power t={t}"
        )
    return np.where(values > 0.0, values, 0.0) ** float(t)


def diffusion_map(model, t, d=None, drop_trivial=False, classic_weighting=False):
    """Diffusion-map coordinates at time t from a SpectralModel.

    Column c is sqrt(lam_c^t) times the Markov eigenvector c.  With
    ``drop_trivial`` the first component (eigenvalue 1, constant
    eigenvector) is skipped and components 2..d+1 are used instead, so the
    model must hold at least d+1 pairs.  ``classic_weighting`` switches the
    column weights from sqrt(lam^t) to lam^t, the convention used by
    classical diffusion maps.

    Parameters
    ----------
    model : SpectralModel
    t : float, > 0
    d : int or None
        Number of coordinates; defaults to every available component.
    drop_trivial : bool
    classic_weighting : bool
    """
    if not t > 0.0:
        raise ParameterError(f"diffusion time must be > 0, got {t}")
    offset = 1 if drop_trivial else 0
    if d is None:
        d = model.rank_d - offset
    if d < 1:
        raise ParameterError(f"need at least one embedding component, got d={d}")
    if d + offset > model.rank_d:
        raise ParameterError(
            f"model holds {model.rank_d} components, cannot embed with d={d}"
            + (" after dropping the trivial component" if drop_trivial else "")
        )
    cols = slice(offset, offset + d)
    vals = model.eigenvalues[cols].copy()
    powered = eigenvalue_power(vals, t)
    weights = powered if classic_weighting else np.sqrt(powered)
    coords = model.eigenvectors_markov[:, cols] * weights[None, :]
    return DiffusionEmbedding(coords, float(t), vals)


def diffusion_distance(emb, i, j):
    """Squared diffusion distance between points i and j.

    This is the squared Euclidean distance between embedding rows, per the
    definition D_t^2(x, y) = ||Psi_t(x) - Psi_t(y)||^2.
    """
    n = emb.n
    for idx in (i, j):
        if not 0 <= idx < n:
            raise IndexingError(f"index {idx} out of range [0, {n})")
    diff = emb.coords[i] - emb.coords[j]
    return float(diff @ diff)


def relative_embedding_error(ref, approx):
    """Frobenius error || |ref| - |approx| ||_F / || |ref| ||_F.

    Entrywise absolute values make the score blind to eigenvector sign
    indeterminacy.  Both embeddings must share shape and diffusion time.
    """
    if ref.coords.shape != approx.coords.shape:
        raise DimensionError(
            f"shape mismatch: {ref.coords.shape} vs {approx.coords.shape}"
        )
    if ref.t != approx.t:
        raise ParameterError(
            f"embeddings were taken at different diffusion times: {ref.t} vs {approx.t}"
        )
    denom = float(np.linalg.norm(np.abs(ref.coords)))
    if denom == 0.0:
        raise DegeneracyError("reference embedding is identically zero")
    num = float(np.linalg.norm(np.abs(ref.coords) - np.abs(approx.coords)))
    return num / denom


def _sq_dists_to_centers(coords, x2, centers):
    # Expanded form is fine here: k-means only needs argmin, not exact
    # symmetric distances.  x2 holds the squared row norms of coords.
    c2 = np.einsum("ij,ij->i", centers, centers)
    d2 = x2[:, None] + c2[None, :] - 2.0 * (coords @ centers.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _plus_plus_centers(coords, k, rng):
    """Seeded k-means++ initialization (squared-distance weighted draws)."""
    n = coords.shape[0]
    chosen = np.empty(k, dtype=int)
    chosen[0] = int(rng.integers(n))
    centers = np.empty((k, coords.shape[1]))
    centers[0] = coords[chosen[0]]
    d2 = ((coords - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # All remaining points coincide with chosen centers; pick any
            # index not yet used so clusters stay distinct.
            remaining = np.setdiff1d(np.arange(n), chosen[:c])
            idx = int(remaining[rng.integers(remaining.size)])
        chosen[c] = idx
        centers[c] = coords[idx]
        d2 = np.minimum(d2, ((coords - centers[c]) ** 2).sum(axis=1))
    return centers


def kmeans_cluster(emb, k, seed=0, max_iters=100):
    """Lloyd's k-means on the embedding coordinates.

    Deterministic per seed (k-means++ initialization included).  An empty
    cluster is re-seeded at the point farthest from its assigned center.
    The recorded inertia history is non-increasing; iteration stops when
    the assignment stops changing or after max_iters rounds.
    """
    coords = emb.coords
    n = coords.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n={n}, got k={k}")
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    rng = np.random.default_rng(seed)
    centers = _plus_plus_centers(coords, k, rng)
    rows = np.arange(n)
    x2 = np.einsum("ij,ij->i", coords, coords)
    onehot = np.zeros((k, n))
    labels = None
    history = []
    for _ in range(max_iters):
        d2 = _sq_dists_to_centers(coords, x2, centers)
        new_labels = d2.argmin(axis=1)
        closest = d2[rows, new_labels]
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(closest))
                centers[c] = coords[far]
                d2[:, c] = ((coords - centers[c]) ** 2).sum(axis=1)
                new_labels = d2.argmin(axis=1)
                closest = d2[rows, new_labels]
        history.append(float(closest.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # Every center is its members' mean, from one product.  A cluster
        # that reseeding could not fill keeps its center; the ClusterLabels
        # constructor reports the degeneracy at the end.
        onehot.fill(0.0)
        onehot[labels, rows] = 1.0
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        centers[filled] = (onehot @ coords)[filled] / counts[filled, None]
    return ClusterLabels(labels, k, history[-1], np.array(history))
