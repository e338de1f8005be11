"""Diffusion-operator construction and deterministic eigendecomposition.

From a kernel matrix K with degrees D the module builds the symmetric
operator A = D^-1/2 K D^-1/2, similar to the row-stochastic Markov matrix
P = D^-1 K, so the spectrum is computed on A with a symmetric solver and
Markov eigenvectors are recovered by scaling with D^-1/2.

The exact solve is the only user of scipy, and it imports scipy when it
runs (load_exact_solver), so importing the package and running either
sketch never loads scipy or its own OpenBLAS: about 0.3 s and 33 MB of
resident memory on a 2-core host.

The Lanczos basis holds ncv = d + p vectors, p = max(d // 2 + 1,
min(d + 1, 40)) spare ones, at least 20 and at most n in all.  scipy's
default is p = d + 1.  ARPACK tests convergence only once a Lanczos
factorization is complete, so on an easy spectrum a basis that large
computes products past the point where every pair has converged; on a
hard one the spare vectors are what each restart gains.  Products
counted with each p (helix and swiss roll noise 0.05, Lorenz sigma 10):

    input                          d     d + 1   d // 2 + 1   this rule
    helix 2000, seed 0            50       102           90          91
    helix 6000, seed 1           100       202          152         152
    Lorenz 3000                  100       202          178         178
    swiss roll 4000, sigma 0.5   100       662          671         671
    swiss roll 2000, sigma 0.5    60       735          795         746
    swiss roll 600, sigma 1       14       657        1,423         657
    swiss roll 600, sigma 0.5     14     2,951     stalled*       2,951

(*: past ARPACK_MAXITER restarts, to the dense fallback.)  Up to d = 39
the rule is scipy's default, and for d >= 78 it is d // 2 + 1.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, ParameterError, RankDeficiencyWarning
from .kernel import (
    DegreeVector,
    _check_sigma,
    _check_fits,
    gaussian_kernel_block,
    row_blocks,
)

SYMMETRY_TOL = 1e-10

# The numerical-rank cutoff of the exact solve and both sketches; each
# function's docstring states the form it takes there.  In nystrom_eigs it
# sits about 15 times above the Gram's relative rounding floor, l * eps
# (7e-14 at l = 310).
RANK_TOL = 1e-12

# Restart cap for the Lanczos iteration, from criterion 6's 100 random
# graphs (k = 6, so ncv = 20 as under scipy's default and still 14
# products per restart): converging calls needed a median of about 4
# restarts and at most 189, bar one slow graph at 2,344, and the
# disconnected ones stalled through ARPACK's default of 10 n restarts
# (137,501 products at n = 982).  500 leaves 2.6x headroom over 189 and
# sends the slow and stalled graphs to the dense fallback within about
# 7,000 products.
ARPACK_MAXITER = 500

# Entries of DiffusionOperator.matmat's scratch for the transposed
# products, 256 KB: the n-by-k buffer it replaced was 5.3 MB at n = 6000,
# k = 110.
MATMAT_CHUNK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SpectralModel:
    """Top-d eigenpairs of the symmetric diffusion operator.

    eigenvalues are sorted descending; eigenvectors_markov columns are the
    corresponding unit-norm eigenvectors of P, each sign-fixed: its
    largest-magnitude entry is positive.  The eigenvectors of A are
    sqrt(degrees) * v, normalized.
    """

    eigenvalues: np.ndarray
    eigenvectors_markov: np.ndarray
    degrees: DegreeVector

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        if vals.ndim != 1:
            raise DimensionError("eigenvalues must be a vector")
        d = vals.size
        markov = np.asarray(self.eigenvectors_markov, dtype=float)
        if markov.shape != (self.degrees.n, d):
            raise DimensionError(
                f"eigenvectors_markov must have shape ({self.degrees.n}, {d}), "
                f"got {markov.shape}"
            )
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors_markov", markov)

    @property
    def rank_d(self):
        """Number of stored eigenpairs."""
        return self.eigenvalues.size


def fix_signs(U):
    """Flip column signs so each column's largest-magnitude entry is positive.

    Eigenvectors are defined only up to sign; this pins a deterministic
    representative (ties broken by the first maximal entry).  The largest
    magnitude is a column's max or -min; only a column where the two tie
    (+a and -a, or all zeros) is searched for its first maximal entry.
    The result is the one copy made.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise DimensionError("expected a matrix of column vectors")
    top, bottom = U.max(axis=0), U.min(axis=0)
    signs = np.where(top < -bottom, -1.0, 1.0)
    # A NaN compares false both ways and is searched too, as argmax would.
    ties = np.flatnonzero(~((top > -bottom) | (top < -bottom)))
    if ties.size:
        rows = np.argmax(np.abs(U[:, ties]), axis=0)
        signs[ties] = np.sign(U[rows, ties])
        signs[signs == 0.0] = 1.0
    return U * signs


def symmetric_matrix(K, deg):
    """Symmetric operator A with A[i, j] = K[i, j] / sqrt(deg[i] * deg[j]).

    K is normalized in place and returned as A, so no second n-by-n array
    is allocated.  The denominator is formed as the product
    sqrt(deg[i]) * sqrt(deg[j]), which is commutative, so A is exactly as
    symmetric as K.  The temporary denominators are formed one row block
    at a time.
    """
    if K.shape != (deg.n, deg.n):
        raise DimensionError(f"kernel shape {K.shape} does not match degree length {deg.n}")
    root = np.sqrt(deg.values)
    for i0, i1 in row_blocks(deg.n, deg.n):
        np.divide(K[i0:i1], root[i0:i1, None] * root[None, :], out=K[i0:i1])
    return K


def max_asymmetry(A):
    """max |A - A^T|, computed in row blocks to avoid an n*n temporary.

    NaN when A has a non-finite entry.
    """
    n = A.shape[0]
    worst = 0.0
    for i0, i1 in row_blocks(n, n):
        worst = np.maximum(worst, np.abs(A[i0:i1, :] - A[:, i0:i1].T).max())
    return float(worst)


def load_exact_solver():
    """Import the exact solve's scipy modules and return the scipy package.

    The first call pays the import; later calls find the modules loaded.
    Callers that time stages call it before their first timed stage, so
    the import is charged to no stage.
    """
    import scipy.linalg.blas
    import scipy.sparse.linalg

    return scipy


def eigendecompose(A, d, check_symmetry=True):
    """Top-d eigenpairs of a symmetric matrix, descending, sign-fixed.

    Uses an implicitly restarted Lanczos iteration with a fixed start
    vector when d is well below n, and a dense solver otherwise.  The start
    vector is the constant unit vector rather than the solver's random
    default so that repeated runs are bitwise identical.  If the iteration
    stalls (tightly clustered spectrum) or runs past ARPACK_MAXITER
    restarts, the dense solver takes over and a UserWarning records the
    switch.  Both solvers read only the lower triangle of A.  The Lanczos
    basis is sized to d (see the module docstring).  The solvers are
    looked up in scipy at call time.

    Parameters
    ----------
    A : ndarray, symmetric n-by-n
    d : int, 1 <= d <= n
    check_symmetry : bool
        Verify max |A - A^T| <= 1e-10, which also rejects non-finite
        entries, before decomposing.  Without the check nothing above the
        diagonal is read.

    Returns
    -------
    (eigenvalues, eigenvectors) : (d,) descending and (n, d) orthonormal.

    Raises
    ------
    CapacityError
        If the dense solver is taken and its n-by-n copy of A exceeds the
        memory the system reports available.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if not 1 <= d <= n:
        raise ParameterError(f"need 1 <= d <= n={n}, got d={d}")
    if check_symmetry:
        asym = max_asymmetry(A)
        if not asym <= SYMMETRY_TOL:
            raise ContractError(
                f"matrix is asymmetric or not finite: max |A - A^T| = {asym:.3e}"
                f" > {SYMMETRY_TOL}"
            )
    scipy = load_exact_solver()
    vals = None
    # ARPACK needs k < n and room for its Krylov basis; below that it beats
    # the dense solver comfortably.
    if d <= n - 2 and n > max(256, 3 * d):
        # Each product reads only A's lower triangle: dsymv streams half the
        # matrix that a full GEMV would.  For a C-ordered A (what
        # symmetric_matrix returns), A.T is an F-ordered view whose upper
        # triangle is A's lower one, so nothing is copied.
        upper = np.ascontiguousarray(A).T
        blas, arpack = scipy.linalg.blas, scipy.sparse.linalg
        op = arpack.LinearOperator(
            (n, n), matvec=lambda x: blas.dsymv(1.0, upper, x), dtype=float
        )
        v0 = np.full(n, 1.0 / np.sqrt(n))
        ncv = min(n, max(20, d + max(d // 2 + 1, min(d + 1, 40))))
        try:
            vals, vecs = arpack.eigsh(
                op, k=d, which="LA", v0=v0, ncv=ncv, maxiter=ARPACK_MAXITER
            )
        except arpack.ArpackNoConvergence:
            # Tightly clustered spectra (kernel near identity, disconnected
            # graphs) can stall the Lanczos iteration; the dense solver
            # handles them, at an n*n memory cost that only this
            # pathological path pays.
            warnings.warn(
                "iterative eigensolver stalled on a clustered spectrum; "
                "falling back to a dense solve",
                UserWarning,
                stacklevel=2,
            )
    if vals is None:
        # scipy's eigh works on an n-by-n copy of A.
        _check_fits(8 * n * n, n, "dense eigensolver copy")
        vals, vecs = scipy.linalg.eigh(
            A, subset_by_index=[n - d, n - 1], check_finite=False
        )
    order = np.argsort(-vals, kind="stable")
    return vals[order], fix_signs(vecs[:, order])


def recover_markov_eigvecs(U_sym, deg):
    """Markov-operator eigenvectors from eigenvectors of A.

    P = D^-1/2 A D^1/2, so if A u = lam u then v = D^-1/2 u satisfies
    P v = lam v.  Columns are rescaled to unit norm and sign-fixed, so the
    sign of each column of U_sym does not matter: u and -u give the same
    column.
    """
    U_sym = np.asarray(U_sym, dtype=float)
    if U_sym.ndim != 2:
        raise DimensionError("U_sym must be a matrix of column vectors")
    if U_sym.shape[0] != deg.n:
        raise DimensionError(
            f"U_sym has {U_sym.shape[0]} rows but degrees have length {deg.n}"
        )
    V = U_sym / np.sqrt(deg.values)[:, None]
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0.0] = 1.0
    V /= norms
    return fix_signs(V)


def deterministic_model(K, deg, d):
    """Full deterministic pipeline from kernel to SpectralModel.

    Normalizes K in place into A (see symmetric_matrix), so K is consumed,
    decomposes A and recovers the Markov eigenvectors.  Only eigenvalues
    above RANK_TOL times the largest are kept: below it an eigenpair is
    rounding noise.  If fewer than d remain, the result is truncated and a
    RankDeficiencyWarning records the effective rank, as nystrom_eigs does.
    """
    A = symmetric_matrix(K, deg)
    vals, vecs = eigendecompose(A, d, check_symmetry=False)
    keep = int(np.count_nonzero(vals > RANK_TOL * vals[0]))
    if keep < d:
        warnings.warn(
            f"requested {d} eigenpairs but the operator has effective rank "
            f"{keep}; returning {keep}",
            RankDeficiencyWarning,
            stacklevel=2,
        )
        vals, vecs = vals[:keep], vecs[:, :keep]
    return SpectralModel(vals, recover_markov_eigvecs(vecs, deg), deg)


class DiffusionOperator:
    """Matrix-free block multiply by A = D^-1/2 K D^-1/2.

    Rebuilds the kernel's row blocks on demand, walked by kernel.row_blocks
    with b = BLOCK_ENTRIES // n rows, each one (b, m) buffer of at most 8 MB
    plus a tile scratch, whatever n is.  K is symmetric, so each multiply
    evaluates only the upper-triangle block row K[i0:i1, i0:] of every row
    block and applies it twice, to its own rows and, transposed, to the
    rows below, in row chunks through one scratch of MATMAT_CHUNK_ENTRIES:
    about half a kernel pass, (n^2 + n * b) / 2 entries at most.  Each
    multiply reads BLOCK_ENTRIES as it starts.  Products are bitwise
    repeatable for a given n and operand width, but their rounding depends
    on b and on the chunk rows.  With unit degrees it multiplies by K
    itself and scales nothing.  Every multiply of the projection sketch
    (nystrom.gaussian_sketch_basis) goes through it, so that sketch never
    materializes the kernel.
    """

    def __init__(self, data, sigma, deg):
        _check_sigma(sigma)
        if deg.n != data.n:
            raise DimensionError(
                f"degree length {deg.n} does not match n={data.n}"
            )
        self._points = data.values
        self._sigma = float(sigma)
        # Unit degrees scale by nothing: x * 1.0 == x, so skipping both
        # scalings leaves every bit of the product as it was.
        unit = bool(np.all(deg.values == 1.0))
        self._inv_root_deg = None if unit else 1.0 / np.sqrt(deg.values)
        self.shape = (data.n, data.n)

    def matmat(self, B):
        B = np.asarray(B, dtype=float)
        n = self.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise DimensionError(f"operand must have shape ({n}, k), got {B.shape}")
        inv_root = self._inv_root_deg
        scaled = B if inv_root is None else B * inv_root[:, None]
        k = B.shape[1]
        out = np.zeros((n, k))
        # The transposed products go through one scratch of at most
        # MATMAT_CHUNK_ENTRIES, max(1, MATMAT_CHUNK_ENTRIES // k) rows at a time.
        rows = max(1, MATMAT_CHUNK_ENTRIES // max(k, 1))
        lower = np.empty((min(rows, n), k))
        for i0, i1 in row_blocks(n, n):
            block = gaussian_kernel_block(
                self._points[i0:i1], self._points[i0:], self._sigma
            )
            out[i0:i1] += block @ scaled[i0:]
            for c0 in range(i1, n, rows):
                c1 = min(c0 + rows, n)
                chunk = lower[:c1 - c0]
                np.matmul(block[:, c0 - i0:c1 - i0].T, scaled[i0:i1], out=chunk)
                out[c0:c1] += chunk
            del block  # free it before the next block is allocated
        if inv_root is not None:
            out *= inv_root[:, None]
        return out

    def __matmul__(self, B):
        return self.matmat(B)
