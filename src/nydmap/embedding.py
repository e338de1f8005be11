"""Diffusion-map coordinates, diffusion distances, clustering and scoring.

The embedding at diffusion time t maps point i to the row
(sqrt(lam_1^t) v_1[i], ..., sqrt(lam_d^t) v_d[i]) built from the Markov
eigenvectors v_c of a SpectralModel.  Squared Euclidean distance between
rows is the diffusion distance.
"""

import warnings
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
KMEANS_MAX_ITERS = 400

# Bytes of coordinates k-means touches at a time: seeding, the bounds'
# distance evaluations and the center sums work in row chunks this large.
KMEANS_CHUNK_BYTES = 1 << 19

# The Hamerly bounds' margin, relative to (|x| + max |c|)^2: far above
# the expanded form's rounding, about (d + 2) eps relative (7e-14 at
# d = 300), and the bounds' own drift over the rounds, yet far below any
# gap that matters.  A point within it of a tie is evaluated.
_BOUND_SLACK = 1e-10


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
    """k-means result: labels in [0, k), every cluster nonempty.

    ``converged`` is true when the last round left the assignment unchanged.
    """

    labels: np.ndarray
    k: int
    inertia: float
    inertia_history: np.ndarray
    converged: bool

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


def _chunk_rows(d):
    """Rows of d coordinates in one KMEANS_CHUNK_BYTES chunk."""
    return max(1, KMEANS_CHUNK_BYTES // (8 * d))


def _direct_sq_dists(coords, center, out, buf):
    """out[i] = ((coords[i] - center) ** 2).sum(), one chunk of buf's rows at a time.

    Each row is reduced exactly as the whole-array expression reduces it,
    so the result has the same bits without its two n-by-d temporaries.
    """
    step = buf.shape[0]
    for a in range(0, coords.shape[0], step):
        diff = np.subtract(coords[a:a + step], center, out=buf[:coords.shape[0] - a])
        np.square(diff, out=diff)
        diff.sum(axis=1, out=out[a:a + step])
    return out


def _sq_dists_to_centers(rows, x2, centers, c2):
    # Expanded form is fine here: k-means only needs argmin, not exact
    # symmetric distances.  x2 and c2 hold the squared row norms of rows
    # and centers.
    d2 = x2[:, None] + c2[None, :] - 2.0 * (rows @ centers.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _plus_plus_centers(coords, k, rng):
    """Seeded k-means++ initialization (squared-distance weighted draws)."""
    n, d = coords.shape
    buf = np.empty((min(n, _chunk_rows(d)), d))
    chosen = np.empty(k, dtype=int)
    chosen[0] = int(rng.integers(n))
    centers = np.empty((k, d))
    centers[0] = coords[chosen[0]]
    d2 = _direct_sq_dists(coords, centers[0], np.empty(n), buf)
    near = np.empty(n)
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
        np.minimum(d2, _direct_sq_dists(coords, centers[c], near, buf), out=d2)
    return centers


def _two_nearest(d2):
    """Each row's nearest center, with its squared distance and the next one's.

    Ties go to the lower index, as argmin breaks them.  d2 is overwritten.
    """
    rows = np.arange(d2.shape[0])
    labels = d2.argmin(axis=1)
    first = d2[rows, labels]
    d2[rows, labels] = np.inf
    return labels, first, d2.min(axis=1)


def _nearest_in_chunks(coords, x2, centers, c2, idx, step):
    """_two_nearest for the points idx, gathered step rows at a time.

    An empty idx still makes one (empty) part, so the result is three arrays.
    """
    parts = [
        _two_nearest(_sq_dists_to_centers(coords[part], x2[part], centers, c2))
        for part in (idx[a:a + step] for a in range(0, max(idx.size, 1), step))
    ]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _reseeded(coords, x2, centers, c2, counts, buf):
    """Lloyd's assignment of every point, with each empty cluster reseeded.

    An empty cluster's center moves to the point farthest from its own
    center, and every point is assigned again.  centers and counts are
    updated in place.  Returns _two_nearest's result for every point.
    """
    d2 = _sq_dists_to_centers(coords, x2, centers, c2)
    rows = np.arange(coords.shape[0])
    labels = d2.argmin(axis=1)
    closest = d2[rows, labels]
    counts[:] = np.bincount(labels, minlength=counts.size)
    for c in range(counts.size):
        if counts[c] == 0:
            far = int(np.argmax(closest))
            centers[c] = coords[far]
            _direct_sq_dists(coords, centers[c], d2[:, c], buf)
            labels = d2.argmin(axis=1)
            closest = d2[rows, labels]
            counts[:] = np.bincount(labels, minlength=counts.size)
    return _two_nearest(d2)


def _add_rows(sums, coords, idx, old, new, step):
    """sums[new[i]] += coords[idx[i]] and, where old is given, sums[old[i]] -= it.

    One signed k-by-m indicator product per chunk of step rows.
    """
    k = sums.shape[0]
    for a in range(0, idx.size, step):
        part = idx[a:a + step]
        cols = np.arange(part.size)
        signs = np.zeros((k, part.size))
        signs[new[a:a + step], cols] = 1.0
        if old is not None:
            signs[old[a:a + step], cols] = -1.0
        sums += signs @ coords[part]


def kmeans_cluster(emb, k, seed=0):
    """Lloyd's k-means on the embedding coordinates.

    Deterministic per seed (k-means++ initialization included).  An empty
    cluster is re-seeded at the point farthest from its assigned center.
    The recorded inertia history is non-increasing; iteration stops when
    the assignment stops changing (``converged``) or after
    KMEANS_MAX_ITERS rounds, which a UserWarning reports.

    Rounds after the first follow Hamerly (SDM 2010): each point keeps an
    upper bound on its distance to its own center and a lower bound on
    its distance to every other, moved by how far the centers moved.  A
    point whose bounds are apart by more than the expanded form's rounding
    cannot change cluster and is not evaluated, so the labels are Lloyd's.
    Per-cluster sums change only by the points that moved, and the inertia
    comes from them: sum |x|^2 + sum n_c |c|^2 - 2 sum c . S_c, at least 0.
    """
    coords = emb.coords
    n, d = coords.shape
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n={n}, got k={k}")
    rng = np.random.default_rng(seed)
    centers = _plus_plus_centers(coords, k, rng)
    step = _chunk_rows(d)
    buf = np.empty((min(n, step), d))
    x2 = np.einsum("ij,ij->i", coords, coords)
    x2_total = x2.sum()
    # Centers are means of points or points themselves after the first
    # round, so no center is farther from the origin than this.
    radius = np.sqrt(max(x2.max(), np.einsum("ij,ij->i", centers, centers).max()))
    # Bounds this far apart in squared distance order the expanded form's
    # distances as they order the exact ones.
    slack = _BOUND_SLACK * (np.sqrt(x2) + radius) ** 2
    every = np.arange(n)
    upper = np.empty(n)  # >= the distance to the point's own center
    lower = np.empty(n)  # <= the distance to every other center
    sums = np.zeros((k, d))
    labels = None
    history = []
    converged = False
    for _ in range(KMEANS_MAX_ITERS):
        c2 = np.einsum("ij,ij->i", centers, centers)
        if labels is None:
            idx = every
        else:
            idx = np.flatnonzero(lower * lower - upper * upper <= 2.0 * slack)
        near, first, second = _nearest_in_chunks(coords, x2, centers, c2, idx, step)
        new_labels = np.empty(n, dtype=np.intp) if labels is None else labels.copy()
        new_labels[idx] = near
        counts = np.bincount(new_labels, minlength=k)
        full = labels is None
        if not counts.all():
            new_labels, first, second = _reseeded(coords, x2, centers, c2, counts, buf)
            idx, full = every, True
        upper[idx] = np.sqrt(first + slack[idx])
        lower[idx] = np.sqrt(np.maximum(second - slack[idx], 0.0))
        if full:
            history.append(float(first.sum()))
            sums.fill(0.0)
            _add_rows(sums, coords, every, None, new_labels, step)
            moved = labels is None or not np.array_equal(new_labels, labels)
        else:
            changed = idx[near != labels[idx]]
            _add_rows(sums, coords, changed, labels[changed], new_labels[changed], step)
            inertia = x2_total + counts @ c2 - 2.0 * np.einsum("ij,ij->", centers, sums)
            history.append(max(float(inertia), 0.0))
            moved = changed.size > 0
        if not moved:
            converged = True
            break
        labels = new_labels
        # Every center is its members' mean.  A cluster that reseeding
        # could not fill keeps its center; the ClusterLabels constructor
        # reports the degeneracy at the end.
        filled = counts > 0
        old = centers.copy()
        centers[filled] = sums[filled] / counts[filled, None]
        shift = np.sqrt(((centers - old) ** 2).sum(axis=1))
        upper += shift[labels]
        # Each lower bound drops by the largest move among the other centers.
        top = int(np.argmax(shift))
        runner_up = np.delete(shift, top).max() if k > 1 else 0.0
        lower -= np.where(labels == top, runner_up, shift[top])
        np.maximum(lower, 0.0, out=lower)
    if not converged:
        warnings.warn(
            f"k-means stopped at its cap of {KMEANS_MAX_ITERS} rounds with the "
            "assignment still changing",
            stacklevel=2,
        )
    return ClusterLabels(labels, k, history[-1], np.array(history), converged)
