"""Nystrom low-rank approximation of the symmetric diffusion operator.

Both sketches reduce A ~= C W^+ C^T to one n-by-l factor F with
A ~= F F^T:

* pivoted column sampling: block randomly pivoted Cholesky picks the
  kernel columns J and builds K ~= F_K F_K^T from them alone, each block
  of pivots adding the Nystrom factor of its residual columns through an
  eigendecomposition of its small pivot block; the degrees are taken from
  the factor, deg ~= F_K (F_K^T 1), and F = D^-1/2 F_K, so no step
  touches all n^2 kernel entries;
* random projection: an orthonormal sketch basis Q is computed by
  subspace iteration, then C = AQ, W = Q^T C and F = C W^-1/2.
  gaussian_sketch_basis starts it from Gaussian noise;
  ``runner.decompose`` starts it from Gaussian noise with a ones first
  column, and the ones column of its first product, K Z, gives the
  degrees.

Eigenpairs are recovered from the thin SVD of F: the squared singular
values approximate the eigenvalues of A and the left singular vectors
approximate its eigenvectors.  ``runner.decompose`` runs either sketch, or
the exact solve, from data to SpectralModel.
"""

import warnings

import numpy as np

from .errors import (
    ContractError,
    DegeneracyError,
    DimensionError,
    ParameterError,
    RankDeficiencyWarning,
)
from .kernel import DegreeVector
from .spectral import SYMMETRY_TOL, SpectralModel, recover_markov_eigvecs

# The pivoted Cholesky column sampler draws its l pivots in about this
# many rounds of ceil(l / PIVOT_ROUNDS).  Its first round is a uniform draw
# and larger blocks adapt less: at n = 6000, l = 110, blocks of 32 (four
# rounds) left the top-25 eigenvalues about 1.5x less accurate than blocks
# of 10.
PIVOT_ROUNDS = 12

# The numerical-rank cutoff of both sketches; each function's docstring
# states the form it takes there.
RANK_TOL = 1e-12


def sample_columns(kernel_columns, n, l, seed):
    """Column-sampling factor of A by block randomly pivoted Cholesky.

    K ~= F_K F_K^T from at most l kernel columns (Chen, Epperly, Tropp and
    Webber, arXiv:2207.06503).  K must have a unit diagonal, as the
    Gaussian kernel has, so the first round draws uniformly.  Each round
    draws up to ceil(l / PIVOT_ROUNDS) pivots S with probability
    proportional to the residual diagonal diag(K - F_K F_K^T), fetches
    their columns through ``kernel_columns(S)`` (S unique, ascending),
    subtracts what the factor already explains and appends the Nystrom
    factor of the residual columns G: G V Lambda^-1/2, with (Lambda, V) the
    eigenpairs of the pivot block G[S] whose eigenvalues exceed the
    absolute RANK_TOL.  Directions the factor already holds drop out,
    such as a copy of a point drawn in the same round as its twin.
    Pivoting stops once l columns are filled, or earlier, with a
    RankDeficiencyWarning, once the residual trace is at most
    RANK_TOL * n; the unused columns of F stay zero.  The degrees come
    from the factor, deg = F_K (F_K^T 1) (Fowlkes, Belongie, Chung and
    Malik, TPAMI 2004), so no step touches all n^2 kernel entries.
    F = D^-1/2 F_K, with A ~= F F^T.

    Returns
    -------
    (F, DegreeVector, J): the n-by-l factor, its degrees and J the pivots
    of every round that added a column, in draw order; J may hold more
    pivots than F has filled columns.

    Raises
    ------
    DegeneracyError
        If some factor degree is not a positive normal float: the sketch
        leaves those points unconnected (the kernel is near the identity
        for this sketch size).
    """
    if not 1 <= l <= n:
        raise ParameterError(f"need 1 <= l <= n={n}, got l={l}")
    rng = np.random.default_rng(seed)
    per_round = -(-l // PIVOT_ROUNDS)
    F = np.zeros((n, l))
    residual = np.ones(n)
    J = []
    r = 0
    while r < l:
        cumulative = np.cumsum(residual)
        if cumulative[-1] <= RANK_TOL * n:
            break
        # side="right" never lands on an index whose residual is zero.
        u = rng.random(min(per_round, l - r)) * cumulative[-1]
        S = np.unique(np.minimum(np.searchsorted(cumulative, u, side="right"), n - 1))
        G = np.asarray(kernel_columns(S), dtype=float)
        if G.shape != (n, S.size):
            raise DimensionError(
                f"kernel_columns returned shape {G.shape}, expected ({n}, {S.size})"
            )
        G -= F[:, :r] @ F[S, :r].T
        # eigh reads only the lower triangle of the pivot block.
        vals, vecs = np.linalg.eigh(G[S])
        keep = vals > RANK_TOL
        if keep.any():
            block = G @ (vecs[:, keep] / np.sqrt(vals[keep]))
            F[:, r:r + block.shape[1]] = block
            r += block.shape[1]
            residual -= np.einsum("ij,ij->i", block, block)
            np.maximum(residual, 0.0, out=residual)
            J.extend(S.tolist())
        residual[S] = 0.0
    if r < l:
        warnings.warn(
            f"column pivoting stopped at {r} of {l} columns: the residual "
            f"trace {residual.sum():.3e} is at most RANK_TOL * n",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    deg = F @ F.sum(axis=0)
    unconnected = int(np.count_nonzero(~(deg > np.finfo(float).tiny)))
    if unconnected:
        raise DegeneracyError(
            f"the column sketch leaves {unconnected} of {n} points unconnected "
            "(no positive factor degree); widen sigma or enlarge the sketch"
        )
    F /= np.sqrt(deg)[:, None]
    return F, DegreeVector(deg), np.array(J)


def gaussian_sketch_basis(A, n, l, q, seed):
    """Orthonormal basis capturing the dominant range of a symmetric operator.

    ``A`` is an n-by-n ndarray or DiffusionOperator; only the products
    ``A @ block`` are used.  Forms S = A Omega with Omega an n-by-l standard
    normal matrix drawn from ``seed``, then runs q subspace-iteration
    passes.  A is symmetric, so one pass multiplies by A twice,
    re-orthonormalizing after every multiply to prevent the basis from
    collapsing onto the top eigenvector; the result spans the range of
    (A A^T)^q A Omega.

    Returns
    -------
    Q : ndarray of shape (n, l) with Q^T Q = I to machine precision.
    """
    if not 1 <= l <= n:
        raise ParameterError(f"need 1 <= l <= n={n}, got l={l}")
    if q < 0:
        raise ParameterError(f"power iteration count must be >= 0, got {q}")
    if getattr(A, "shape", None) != (n, n):
        raise ParameterError(f"A must be an n-by-n ndarray or DiffusionOperator, n={n}")
    omega = np.random.default_rng(seed).standard_normal((n, l))
    return subspace_iteration(A, A @ omega, 2 * q)


def subspace_iteration(A, Y, steps):
    """Orthonormal basis for range(A^steps Y), re-orthonormalized after each multiply.

    Y is the first product of the sketch (A times a start block); its
    Householder QR is followed by ``steps`` multiplies by A, each with its
    own.  Q is orthonormal whatever the rank, and its columns span
    range(A^steps Y) and more.  The numerical rank of a product is the
    count of singular values above n * eps relative to the largest, taken
    from R with its columns scaled to unit norm (a zero column keeps norm
    1): scaling columns does not change their span, so a start block whose
    columns differ in size by many decades is not mistaken for a
    rank-deficient one.  If the smallest rank across the QRs falls short
    of the column count, one RankDeficiencyWarning names it; a later
    product's rank can also count noise-level directions that A draws
    from the columns Householder QR completes.
    """
    n, l = Y.shape
    rank = l
    for step in range(steps + 1):
        Q, R = np.linalg.qr(Y if step == 0 else A @ Q)
        norms = np.linalg.norm(R, axis=0)
        norms[norms == 0.0] = 1.0
        svals = np.linalg.svd(R / norms, compute_uv=False)
        cutoff = svals[0] * n * np.finfo(float).eps
        rank = min(rank, int(np.count_nonzero(svals > cutoff)))
    if rank < l:
        warnings.warn(
            f"sketch rank collapsed to {rank} of {l}",
            RankDeficiencyWarning,
            stacklevel=3,
        )
    return Q


def project(A, Q):
    """Projection factor F = C W^-1/2 of A, with C = AQ and W = Q^T C.

    Q must be an orthonormal basis.  W is symmetrized as (W + W^T)/2 before
    its inverse root (psd_inverse_sqrt); for symmetric A the asymmetry is
    pure rounding noise.  A ~= F F^T = C W^+ C^T.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2:
        raise DimensionError(f"Q must be a matrix, got shape {Q.shape}")
    n = Q.shape[0]
    if getattr(A, "shape", None) != (n, n):
        raise ParameterError(f"A must be an n-by-n ndarray or DiffusionOperator, n={n}")
    gram = Q.T @ Q
    gram.flat[::Q.shape[1] + 1] -= 1.0
    drift = float(np.abs(gram).max())
    if drift > 1e-8:
        raise ContractError(
            f"Q is not orthonormal: max |Q^T Q - I| = {drift:.3e} > 1e-8"
        )
    C = A @ Q
    W = Q.T @ C
    return C @ psd_inverse_sqrt(0.5 * (W + W.T))


def psd_inverse_sqrt(W):
    """Spectral pseudo-inverse square root of a symmetric PSD matrix.

    Eigenvalues at or below RANK_TOL * lambda_max are treated as zero, the
    rest are mapped to 1/sqrt(lambda).  Raises DegeneracyError when the
    largest eigenvalue is not positive, meaning the sketch captured nothing.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DimensionError(f"W must be square, got shape {W.shape}")
    if W.size and float(np.abs(W - W.T).max()) > SYMMETRY_TOL:
        raise ContractError(f"W is not symmetric within {SYMMETRY_TOL}")
    vals, vecs = np.linalg.eigh(W)
    lam_max = vals[-1]
    if not lam_max > 0.0:
        raise DegeneracyError(
            f"W has no positive spectrum (largest eigenvalue {lam_max:.3e}); "
            "the sketch captured nothing"
        )
    inv_root = np.zeros_like(vals)
    keep = vals > RANK_TOL * lam_max
    inv_root[keep] = 1.0 / np.sqrt(vals[keep])
    M = (vecs * inv_root) @ vecs.T
    return 0.5 * (M + M.T)


def nystrom_eigs(F, d, deg, method="nystrom_projection"):
    """Approximate top-d eigenpairs of A ~= F F^T from the thin SVD of F.

    Eigenvalues are the squared singular values (guaranteeing the diffusion
    spectrum stays nonnegative) and the left singular vectors, eigenvectors
    of A, give the Markov eigenvectors.  If the numerical rank of F
    (singular values above sqrt(RANK_TOL) times the largest) is below d,
    the result is truncated and a RankDeficiencyWarning records the
    effective rank.  Returns a SpectralModel tagged ``method``, the sketch
    that built F: ``nystrom_projection`` or ``nystrom_columns``.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise DimensionError(f"F must be a matrix, got shape {F.shape}")
    n, l = F.shape
    if not 1 <= d <= l:
        raise ParameterError(f"need 1 <= d <= sketch size {l}, got d={d}")
    if n != deg.n:
        raise DimensionError(f"F is for n={n} but degrees have length {deg.n}")
    if method not in ("nystrom_columns", "nystrom_projection"):
        raise ParameterError(f"unknown sketch method {method!r}")
    U, svals, _ = np.linalg.svd(F, full_matrices=False)
    if not svals[0] > 0.0:
        raise DegeneracyError("approximate factor F is identically zero")
    effective_rank = int(np.count_nonzero(svals > svals[0] * np.sqrt(RANK_TOL)))
    keep = min(d, effective_rank)
    if keep < d:
        warnings.warn(
            f"requested {d} eigenpairs but the factor has effective rank "
            f"{effective_rank}; returning {keep}",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    markov = recover_markov_eigvecs(U[:, :keep], deg)
    return SpectralModel(svals[:keep] ** 2, markov, deg, method)
