"""Gaussian similarity kernel and graph degrees.

The kernel is kappa(x, y) = exp(-||x - y||^2 / sigma) with sigma a squared
distance scale.  Every pass walks its rows with row_blocks, in blocks of
b = max(1, BLOCK_ENTRIES // m) rows against m points: m = n for the full
matrix, the degrees and the matrix-free operator, m = l for l requested
kernel columns.  A block then holds at most BLOCK_ENTRIES float64 values
(8 MB) whatever n is, and BLOCK_ENTRIES is the only block-size setting.
Blocks that size stay below glibc's 32 MB mmap threshold ceiling, so a
pass reuses the same heap pages for every block instead of faulting in a
fresh mapping.  The full matrix, a plain (n, n) array, evaluates its upper
triangle once, (n^2 + n*b)/2 entries in strips K[i0:i0+b, i0:], and mirrors it.

A block of b-by-m entries needs one (b, m) float buffer plus a tile
scratch, whatever the point dimension p, in one allocation.  It is
evaluated in row tiles of max(1, TILE_ENTRIES // m) rows: each tile
accumulates its squared distances one coordinate at a time, from a
contiguous (p, m) copy of the second point set, and is turned into kernel
values in place while it is still in L2.  TILE_ENTRIES = 2^15 (256 KB a
tile, 512 KB with its scratch) sits in the flat bottom of a sweep of the
kernel blocks of one half pass (174-row strips, helix, n = 6000, p = 3; a
Xeon with 2 MB of L2 per core; seconds, min of 5): 2^12 0.121, 2^13 0.114,
2^14 0.101, 2^15 0.089, 2^16 0.085, 2^17 0.093, 2^18 0.103, 2^20 0.118,
against 0.121 untiled.  Each entry goes through the same operations in
the same order whatever the block and tile shapes, so the kernel's bitwise
contracts (exact symmetry, unit diagonal, block-size invariance, columns
equal to the matrix's columns, degrees equal to its row sums) hold by
construction.  The projection sketch (nystrom.gaussian_sketch_basis)
takes its degrees instead from the ones column of its Gaussian start
block's first multiply by K (spectral.DiffusionOperator), whose strip
sums agree with these to rounding.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    DegeneracyError,
    DimensionError,
    IndexingError,
    NumericError,
    ParameterError,
)

BLOCK_ENTRIES = 1 << 20
TILE_ENTRIES = 1 << 15


@dataclass(frozen=True)
class DegreeVector:
    """Row sums of a kernel matrix; strictly positive."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DimensionError(f"degrees must be a vector, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise NumericError("degrees contain non-finite entries")
        if values.size == 0 or values.min() <= 0.0:
            raise DegeneracyError("degrees must all be positive")
        object.__setattr__(self, "values", values)

    @property
    def n(self):
        return self.values.shape[0]


def gaussian_kernel_block(Xa, Xb, sigma, out=None):
    """Kernel evaluations between two point sets, exp(-||x-y||^2 / sigma).

    Xa and Xb are (b, p) and (m, p) point arrays.  The (b, m) result is
    written into ``out`` when given (any view with unit-stride rows, such
    as a strip of a larger matrix) and returned.
    """
    # Direct sum of (x_k - y_k)^2, one coordinate at a time.  The expanded
    # |x|^2 + |y|^2 - 2<x,y> form would be faster but loses precision for
    # near-duplicate points and is not exactly symmetric in floating
    # point; the direct form is both, since (x - y)^2 == (y - x)^2 bitwise
    # and every entry sums its p terms in the same order.
    # Each tile of about TILE_ENTRIES entries takes all its passes, then
    # the divide and exp, while it stays in L2.  The coordinates come from
    # a contiguous (p, m) copy of Xb: a column of a C-ordered Xb is a
    # strided view, about twice as slow to subtract from.
    # The result and the tile scratch are one allocation, freed at once
    # when the caller drops the block.  glibc raises its mmap threshold to
    # the first such chunk freed and trims the heap only when more than
    # twice that is free, so every later block of a pass reuses the same
    # heap pages; two separate frees can cross the trim threshold and
    # re-fault up to a block's worth of fresh pages per block.
    b, m = len(Xa), len(Xb)
    tile = max(1, min(b, TILE_ENTRIES // max(m, 1)))
    coords = np.ascontiguousarray(Xb.T)
    if out is None:
        buf = np.empty((b + tile) * m)
        out = buf[:b * m].reshape(b, m)
        scratch = buf[b * m:].reshape(tile, m)
    else:
        scratch = np.empty((tile, m))
    for r0 in range(0, b, tile):
        r1 = min(r0 + tile, b)
        t, s = out[r0:r1], scratch[:r1 - r0]
        np.subtract(Xa[r0:r1, :1], coords[0], out=t)
        np.multiply(t, t, out=t)
        for k in range(1, Xa.shape[1]):
            np.subtract(Xa[r0:r1, k, None], coords[k], out=s)
            np.multiply(s, s, out=s)
            t += s
        np.divide(t, -sigma, out=t)
        np.exp(t, out=t)
    return out


def _check_sigma(sigma):
    if not 0.0 < sigma < np.inf:
        raise ParameterError(f"kernel width sigma must be finite and > 0, got {sigma}")


def row_blocks(n, width):
    """Bounds (i0, i1) of n rows in blocks of max(1, BLOCK_ENTRIES // width)
    rows against ``width`` points; BLOCK_ENTRIES is read as the walk starts."""
    rows = max(1, BLOCK_ENTRIES // width)
    for i0 in range(0, n, rows):
        yield i0, min(i0 + rows, n)


def _available_memory_bytes():
    """MemAvailable from /proc/meminfo in bytes, or None where unreadable."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_fits(needed, n, what):
    """``needed`` bytes for ``what``, or a CapacityError naming ``what`` and n.

    Under overcommit an allocation beyond MemAvailable can succeed and the
    process be killed while it is filled, so every large request (the
    n-by-n kernel and dense-solver copy, the sketches' n-row factors and
    bases) is checked against MemAvailable first.
    """
    available = _available_memory_bytes()
    if available is not None and needed > available:
        raise CapacityError(
            f"{what} for n={n} needs {needed} bytes, "
            f"but only {available} bytes are available"
        )
    return needed


def gaussian_kernel_matrix(X, sigma):
    """Build the full n-by-n Gaussian kernel matrix.

    Each row strip K[i0:i1, i0:] of the upper triangle is evaluated once,
    straight into K, and mirrored below the diagonal, so the result is
    exactly symmetric and the diagonal is exactly 1.

    Parameters
    ----------
    X : DataMatrix
    sigma : float
        Kernel width (squared-distance units), > 0.

    Returns
    -------
    ndarray, (n, n), C-ordered

    Raises
    ------
    CapacityError
        If the n*n float64 buffer exceeds the memory the system reports
        available (see _check_fits), or cannot be allocated.
    """
    _check_sigma(sigma)
    n = X.n
    needed = _check_fits(8 * n * n, n, "kernel matrix")
    try:
        K = np.empty((n, n))
    except MemoryError as exc:
        raise CapacityError(f"kernel matrix for n={n} needs {needed} bytes") from exc
    values = X.values
    for i0, i1 in row_blocks(n, n):
        gaussian_kernel_block(values[i0:i1], values[i0:], sigma, out=K[i0:i1, i0:])
        K[i1:, i0:i1] = K[i0:i1, i1:].T
    return K


def gaussian_kernel_columns(X, sigma, J):
    """Columns J of the Gaussian kernel matrix without building the matrix.

    J must contain unique indices in [0, n).  Column order follows J.  Row
    blocks are sized against len(J) points, so a few columns take few blocks.
    """
    _check_sigma(sigma)
    n = X.n
    J = np.atleast_1d(np.asarray(J))
    if J.ndim != 1 or J.size == 0:
        raise IndexingError("J must be a non-empty index vector")
    if not np.issubdtype(J.dtype, np.integer):
        raise IndexingError(f"J must hold integers, got dtype {J.dtype}")
    if J.min() < 0 or J.max() >= n:
        raise IndexingError(f"column index out of range [0, {n})")
    if np.unique(J).size != J.size:
        raise IndexingError("J contains repeated indices")
    anchors = X.values[J]
    cols = np.empty((n, J.size))
    for i0, i1 in row_blocks(n, J.size):
        gaussian_kernel_block(X.values[i0:i1], anchors, sigma, out=cols[i0:i1])
    return cols


def degree_vector(X, sigma):
    """Exact kernel row sums, streamed in blocks of BLOCK_ENTRIES // n rows.

    Peak memory is one block, at most BLOCK_ENTRIES entries.  Row sums of a
    materialized kernel matrix reduce over the same contiguous axis in the
    same order, so both routes agree bitwise, whatever the block size.
    """
    _check_sigma(sigma)
    deg = np.empty(X.n)
    for i0, i1 in row_blocks(X.n, X.n):
        deg[i0:i1] = gaussian_kernel_block(X.values[i0:i1], X.values, sigma).sum(axis=1)
    return DegreeVector(deg)
