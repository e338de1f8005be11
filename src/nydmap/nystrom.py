"""Nystrom low-rank approximation of the symmetric diffusion operator.

Both sketches reduce A ~= C W^+ C^T to one factor F with A ~= F F^T:

* pivoted column sampling: block randomly pivoted Cholesky picks the
  kernel columns J and builds K ~= F_K F_K^T from them alone, each block
  of pivots adding the Nystrom factor of its residual columns through an
  eigendecomposition of its small pivot block; the degrees are taken from
  the factor, deg ~= F_K (F_K^T 1), and F = D^-1/2 F_K, so no step
  touches all n^2 kernel entries;
* random projection (gaussian_sketch_basis): a block Krylov basis
  Q = [P_0 ... P_q] of A from a Gaussian start block with a ones first
  column keeps every product A P_k (project), and with the next block it
  spans them all, A Q = Q_+ B, so F = A Q (Q^T A Q)^-1/2 = Q_+ G comes
  from q + 1 matrix-free multiplies and is kept factored, G small; the
  ones column of the first product, K Z, gives the degrees.

Eigenpairs are recovered from the l-by-l Gram matrix F^T F (G^T G, for
the factored form): its eigenpairs (lam, V) give A's eigenvalues lam and
eigenvectors F V lam^-1/2, with no SVD of a matrix with n rows.
``runner.decompose`` runs either sketch, or the exact solve, from data
to SpectralModel.
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
from .kernel import DegreeVector, _check_fits
from .spectral import (
    RANK_TOL,
    SYMMETRY_TOL,
    DiffusionOperator,
    SpectralModel,
    recover_markov_eigvecs,
)

# The pivoted Cholesky column sampler draws its l pivots in about this
# many rounds of ceil(l / PIVOT_ROUNDS).  Its first round is a uniform draw
# and larger blocks adapt less: at n = 6000, l = 110, blocks of 32 (four
# rounds) left the top-25 eigenvalues about 1.5x less accurate than blocks
# of 10.
PIVOT_ROUNDS = 12


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
    CapacityError
        If F's 8 n l bytes exceed the available memory (kernel._check_fits).
    DegeneracyError
        If some factor degree is not a positive normal float: the sketch
        leaves those points unconnected (the kernel is near the identity
        for this sketch size).
    """
    if not 1 <= l <= n:
        raise ParameterError(f"need 1 <= l <= n={n}, got l={l}")
    rng = np.random.default_rng(seed)
    per_round = -(-l // PIVOT_ROUNDS)
    _check_fits(8 * n * l, n, "column factor")
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


def gaussian_sketch_basis(X, sigma, l, q, seed):
    """Projection sketch of X's diffusion operator A = D^-1/2 K D^-1/2.

    Draws an n-by-l standard normal start block Z from ``seed`` and sets
    its first column to ones: A's top eigenvector is D^1/2 1, so the
    sketch holds it exactly.  The first product is K Z, one multiply by a
    DiffusionOperator with unit degrees (about half a kernel pass): its
    ones column K 1 gives the degrees, equal to the exact row sums to
    rounding, and D^-1/2 K Z = A S with S = D^1/2 Z.  project continues
    the block Krylov basis of S on a matrix-free DiffusionOperator for q
    blocks after the start, one multiply each, q + 1 in all with the
    first; at q = 0 the sketch is plain Nystrom on S.  l and q are checked
    before any kernel entry is evaluated.

    Returns
    -------
    ((Q, G), DegreeVector): the factored form of F = Q G, A ~= F F^T (see
    project), and the degrees taken from the first product.
    """
    if not 1 <= l <= X.n:
        raise ParameterError(f"need 1 <= l <= n={X.n}, got l={l}")
    if q < 0:
        raise ParameterError(f"power iteration count must be >= 0, got {q}")
    Z = np.random.default_rng(seed).standard_normal((X.n, l))
    Z[:, 0] = 1.0
    # A multiply by K itself; Z's ones column gives K 1, the degrees,
    # copied out before Y = D^-1/2 K Z is formed in place.
    Y = DiffusionOperator(X, sigma, DegreeVector(np.ones(X.n))) @ Z
    deg = DegreeVector(Y[:, 0].copy())
    Y /= np.sqrt(deg.values)[:, None]
    Z *= np.sqrt(deg.values)[:, None]
    # S = D^1/2 Z and Y = A S are popped into project's call, S first, so
    # that it holds the only references and frees both after its first
    # block (11 MB of peak RSS at n = 6000, l = 110).
    start_and_product = [Y, Z]
    del Z, Y
    factor = project(
        DiffusionOperator(X, sigma, deg),
        start_and_product.pop(),
        start_and_product.pop(),
        q,
    )
    return factor, deg


def project(A, S, Y, q):
    """Block Krylov Nystrom factor of A from a start block S and Y = A S.

    The basis Q = [P_0 ... P_q] spans span{S, A S, ..., A^q S} (Musco and
    Musco, NeurIPS 2015; Tropp and Webber, arXiv:2306.12418).  With
    S = P_0 R_0, A P_0 = Y R_0^-1 costs no multiply, and each later block
    one, W_k = A P_k: q + 1 in all, Y's counted.  Each product is
    orthogonalised against all earlier blocks; of what is left, directions
    whose singular value (from its Householder R) is at most n * eps times
    the largest product column so far are rounding noise and are dropped,
    and the rest are orthogonalised again and finished by one Cholesky QR
    into the next block.  An empty block ends the iteration early.  The
    coefficients form a block upper Hessenberg B with A Q = Q_+ B,
    Q_+ = [Q, P_(q+1)] orthonormal, so the Nystrom factor on range(Q) is
    F = A Q (Q^T A Q)^-1/2 = Q_+ G, G = B psd_inverse_sqrt(T) with T the
    symmetrized top square of B.  Only Q_+ and small matrices are held.
    S and Y are overwritten, and freed after the first block if the
    caller holds no other reference to them.

    One RankDeficiencyWarning reports a numerical rank of Y below l: the
    count of its singular values above n * eps relative to the largest,
    taken from Y's coefficients before any drop, [P_0^T W_0; R] R_0, with
    their columns scaled to unit norm (a zero column keeps norm 1), so a
    start block whose columns differ in size by many decades is not
    mistaken for a rank-deficient one.

    Returns (Q_+, G), the factored form of F = Q_+ G, with Q_+ n-by-r
    orthonormal and r <= (q + 2) l.  Raises CapacityError if the basis's
    8 n (q + 2) l bytes exceed the available memory (kernel._check_fits).
    """
    n, l = S.shape
    if getattr(A, "shape", None) != (n, n):
        raise ParameterError(f"A must be an n-by-n ndarray or DiffusionOperator, n={n}")
    if Y.shape != (n, l):
        raise DimensionError(f"Y has shape {Y.shape}, expected ({n}, {l})")
    # Column-major, so a block's memory is touched only once it is used.
    # The columns after the last block filled are also scratch.
    _check_fits(8 * n * (q + 2) * l, n, "projection basis")
    basis = np.empty(((q + 2) * l, n)).T
    B = np.zeros(((q + 2) * l, (q + 1) * l))
    # Householder R is accurate column by column, so S R^-1 is nearly
    # orthonormal however the columns of S are scaled.
    R0 = np.linalg.qr(S, mode="r")
    P = np.matmul(S, np.linalg.inv(R0), out=basis[:, :l])
    R0 = _cholesky_qr(P, _scratch(S, l)) @ R0
    W = np.matmul(Y, np.linalg.inv(R0), out=_scratch(S, l))  # A P_0
    del S, Y  # freed with W, unless the caller still holds them
    noise = n * np.finfo(float).eps
    scale = 0.0
    k0, r = 0, l  # block k's first column, and the columns filled
    for k in range(q + 1):
        if k:
            W = A @ basis[:, k0:r]
        Q = basis[:, :r]
        h = Q.T @ W
        W -= np.matmul(Q, h, out=basis[:, r:r + W.shape[1]])
        R = np.linalg.qr(W, mode="r")
        coef = np.vstack((h, R))  # W's coefficients, before any drop
        scale = max(scale, np.linalg.norm(coef, axis=0).max())
        if k == 0:
            _warn_rank(coef @ R0, n, l)
        _, svals, Vt = np.linalg.svd(R)
        w = min(int(np.count_nonzero(svals > noise * scale)), n - r)
        P = np.matmul(W, Vt[:w].T / svals[:w], out=basis[:, r:r + w])
        W = _scratch(W, w)
        h2 = Q.T @ P
        P -= np.matmul(Q, h2, out=W)
        coef = svals[:w, None] * Vt[:w]  # W - Q h = (P before pass two) coef
        B[:r, k0:r] = h + h2 @ coef
        B[r:r + w, k0:r] = _cholesky_qr(P, W) @ coef
        W = None
        k0, r = r, r + w
        if w == 0:
            break
    T = B[:k0, :k0]
    return basis[:, :r], B[:r, :k0] @ psd_inverse_sqrt(0.5 * (T + T.T))


def _scratch(M, w):
    """A column-major n-by-w view of the memory of a contiguous array M.

    Products of the column-major basis go to column-major arrays: with a
    row-major ``out``, numpy's matmul grew the resident set by about the
    size of the product (5 MB at n = 6000, w = 110) on every call.
    """
    return M.ravel(order="K")[:M.shape[0] * w].reshape(w, M.shape[0]).T


def _cholesky_qr(P, scratch):
    """Orthonormalise P's nearly orthonormal columns in place by one
    Cholesky QR; returns R with P (before) = P (after) R.  ``scratch`` is
    an array of P's shape."""
    R = np.linalg.cholesky(P.T @ P).T
    P[...] = np.matmul(P, np.linalg.inv(R), out=scratch)
    return R


def _warn_rank(M, n, l):
    """One RankDeficiencyWarning if M's numerical rank is below l (see project)."""
    norms = np.linalg.norm(M, axis=0)
    norms[norms == 0.0] = 1.0
    svals = np.linalg.svd(M / norms, compute_uv=False)
    rank = int(np.count_nonzero(svals > svals[0] * n * np.finfo(float).eps))
    if rank < l:
        warnings.warn(
            f"sketch rank collapsed to {rank} of {l}",
            RankDeficiencyWarning,
            stacklevel=3,
        )


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


def nystrom_eigs(F, d, deg):
    """Approximate top-d eigenpairs of A ~= F F^T from the l-by-l Gram matrix.

    F is the n-by-l factor, or project's factored form, a pair (Q, G) with
    F = Q G and Q orthonormal; M is F, or the small G.  The eigenpairs
    (lam, V) of M^T M give A's eigenvalues lam (the kept ones are positive,
    so the diffusion spectrum stays nonnegative) and its eigenvectors
    U = M V lam^-1/2, times Q for the factored form (Williams and Seeger,
    NIPS 2001), so no SVD of a matrix with n rows is taken.  U is not
    reorthogonalised: recover_markov_eigvecs rescales each column.

    The effective rank counts lam above RANK_TOL times the largest, about
    15 times the Gram's rounding floor l * eps * lam_1 (7e-14 at l = 310);
    the zero columns of a column draw that stopped early give zero
    eigenvalues and drop out.  If it is below d, the result is truncated
    and a RankDeficiencyWarning records the effective rank.  Returns a
    SpectralModel.
    """
    Q = None
    if isinstance(F, tuple):
        Q, F = F
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or (Q is not None and Q.shape[1:] != F.shape[:1]):
        raise DimensionError(f"F must be a matrix, got shape {F.shape}")
    n = F.shape[0] if Q is None else Q.shape[0]
    l = F.shape[1]
    if not 1 <= d <= l:
        raise ParameterError(f"need 1 <= d <= sketch size {l}, got d={d}")
    if n != deg.n:
        raise DimensionError(f"F is for n={n} but degrees have length {deg.n}")
    lam, V = np.linalg.eigh(F.T @ F)
    lam, V = lam[::-1], V[:, ::-1]
    if not lam[0] > 0.0:
        raise DegeneracyError("approximate factor F is identically zero")
    effective_rank = int(np.count_nonzero(lam > lam[0] * RANK_TOL))
    keep = min(d, effective_rank)
    if keep < d:
        warnings.warn(
            f"requested {d} eigenpairs but the factor has effective rank "
            f"{effective_rank}; returning {keep}",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    U = F @ (V[:, :keep] / np.sqrt(lam[:keep]))
    U = U if Q is None else Q @ U
    markov = recover_markov_eigvecs(U, deg)
    return SpectralModel(lam[:keep], markov, deg)
