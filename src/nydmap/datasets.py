"""Dataset generation and CSV ingestion.

Three generators (noisy helix, noisy Swiss roll, Lorenz trajectory) plus
CSV load and save; save writes each value as ``"%.16e"``, which load reads
back bit for bit.  All randomness goes through ``numpy.random.default_rng``
(PCG64), so a fixed seed gives a bitwise-identical dataset on every platform
we target.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, IntegrationError, ParameterError

FULL_TURNS = 4.0 * math.pi


@dataclass(frozen=True)
class DataMatrix:
    """n observations by p variables, all entries finite.

    Any array-like is accepted and converted to a float64 C-ordered matrix.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DataFormatError(
                f"expected a 2-d observations-by-variables array, got shape {values.shape}"
            )
        if values.shape[0] < 2:
            raise ParameterError(
                f"need at least 2 observations, got {values.shape[0]}"
            )
        if values.shape[1] < 1:
            raise ParameterError("need at least 1 variable column")
        if not np.all(np.isfinite(values)):
            raise DataFormatError("data contains NaN or infinite entries")
        object.__setattr__(self, "values", values)

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class LorenzParams:
    """Parameters and grid for the Lorenz system

        dx/dt = sigma*(y - x)
        dy/dt = x*(rho - z) - y
        dz/dt = x*y - beta*z

    integrated with a fixed step dt from t=0 to t_end.
    """

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    x0: tuple = (-8.0, 8.0, 27.0)
    t_end: float = 5.0
    dt: float = 1e-4

    def __post_init__(self):
        x0 = tuple(float(v) for v in self.x0)
        if len(x0) != 3:
            raise ParameterError(f"x0 must have 3 components, got {len(x0)}")
        object.__setattr__(self, "x0", x0)
        if not (self.dt > 0.0 and self.t_end > 0.0 and self.dt < self.t_end):
            raise ParameterError(
                f"need 0 < dt < t_end, got dt={self.dt}, t_end={self.t_end}"
            )


def _check_generator_args(n, noise_std):
    if n < 2:
        raise ParameterError(f"need n >= 2 points, got {n}")
    if not 0.0 <= noise_std < math.inf:
        raise ParameterError(f"noise_std must be finite and >= 0, got {noise_std}")


def generate_helix(n, noise_std=0.05, seed=0):
    """Sample n points from a noisy helix in R^3.

    The parameter s runs uniformly over [0, 4*pi] (two turns); coordinates
    are (cos s, sin s, s/(4*pi)), so the curve has unit radius and unit
    height.  Gaussian noise with standard deviation ``noise_std`` is added
    to every coordinate.

    Parameters
    ----------
    n : int
        Number of points, at least 2.
    noise_std : float
        Noise standard deviation in manifold units; 0 gives the exact curve.
    seed : int
        Seed for the noise generator.

    Returns
    -------
    DataMatrix of shape (n, 3).
    """
    _check_generator_args(n, noise_std)
    s = np.linspace(0.0, FULL_TURNS, n)
    points = np.column_stack((np.cos(s), np.sin(s), s / FULL_TURNS))
    if noise_std > 0.0:
        rng = np.random.default_rng(seed)
        points = points + rng.normal(0.0, noise_std, size=points.shape)
    return DataMatrix(points)


def generate_swiss_roll(n, noise_std=0.05, seed=0):
    """Sample n points from a noisy Swiss roll in R^3.

    The roll parameter s is uniform on [1.5*pi, 4.5*pi], the height is
    uniform on [0, 10], and the coordinates are (s*cos s, height, s*sin s)
    plus Gaussian noise.  The generative parameter is returned alongside the
    data because tests and demos need the ground-truth ordering.

    Returns
    -------
    (DataMatrix of shape (n, 3), ndarray of shape (n,))
        The points and the roll parameter s per point.
    """
    _check_generator_args(n, noise_std)
    rng = np.random.default_rng(seed)
    s = rng.uniform(1.5 * np.pi, 4.5 * np.pi, size=n)
    height = rng.uniform(0.0, 10.0, size=n)
    points = np.column_stack((s * np.cos(s), height, s * np.sin(s)))
    if noise_std > 0.0:
        points = points + rng.normal(0.0, noise_std, size=points.shape)
    return DataMatrix(points), s


def _lorenz_rhs(x, y, z, sigma, rho, beta):
    return sigma * (y - x), x * (rho - z) - y, x * y - beta * z


def lorenz_derivative(state, params):
    """Right-hand side of the Lorenz system at a single state."""
    x, y, z = (float(v) for v in state)
    return np.array(_lorenz_rhs(x, y, z, params.sigma, params.rho, params.beta))


def integrate_lorenz(params):
    """Integrate the Lorenz system with fixed-step classical Runge-Kutta.

    Returns the whole trajectory, one row per step including the initial
    condition, so the row count is floor(t_end/dt) + 1.  The integrator is
    deterministic; there is no randomness to seed.

    Raises
    ------
    IntegrationError
        If any coordinate becomes non-finite, reporting the step index.
    """
    sigma, rho, beta = params.sigma, params.rho, params.beta
    dt = params.dt
    # The ratio t_end/dt can land one ulp below an exact integer (5.0/1e-4
    # does); nudge by a relative epsilon so exact multiples round up.
    steps = int(math.floor((params.t_end / dt) * (1.0 + 1e-12) + 1e-12))
    out = np.empty((steps + 1, 3))
    x, y, z = params.x0
    out[0] = (x, y, z)
    half = dt / 2.0
    sixth = dt / 6.0
    for k in range(1, steps + 1):
        ax1, ay1, az1 = _lorenz_rhs(x, y, z, sigma, rho, beta)
        x2, y2, z2 = x + half * ax1, y + half * ay1, z + half * az1
        ax2, ay2, az2 = _lorenz_rhs(x2, y2, z2, sigma, rho, beta)
        x3, y3, z3 = x + half * ax2, y + half * ay2, z + half * az2
        ax3, ay3, az3 = _lorenz_rhs(x3, y3, z3, sigma, rho, beta)
        x4, y4, z4 = x + dt * ax3, y + dt * ay3, z + dt * az3
        ax4, ay4, az4 = _lorenz_rhs(x4, y4, z4, sigma, rho, beta)
        x = x + sixth * (ax1 + 2.0 * (ax2 + ax3) + ax4)
        y = y + sixth * (ay1 + 2.0 * (ay2 + ay3) + ay4)
        z = z + sixth * (az1 + 2.0 * (az2 + az3) + az4)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise IntegrationError(
                f"trajectory became non-finite at step {k} (t={k * dt:.6g})"
            )
        out[k] = (x, y, z)
    return DataMatrix(out)


def subsample_rows(data, n):
    """Keep n rows of a DataMatrix, spaced uniformly, endpoints included."""
    total = data.n
    if not 2 <= n <= total:
        raise ParameterError(
            f"cannot subsample {n} rows from {total} (need 2 <= n <= {total})"
        )
    idx = np.round(np.linspace(0.0, total - 1, n)).astype(int)
    return DataMatrix(data.values[idx])


def load_csv(path, skip_header=False):
    """Load a rectangular numeric CSV file into a DataMatrix.

    Comma separated, '.' decimal point, UTF-8, LF or CRLF line endings.
    Ragged rows, non-numeric cells and empty files raise DataFormatError;
    the underlying parser reports the offending line.
    """
    try:
        with warnings.catch_warnings():
            # An empty file is reported as DataFormatError below; the
            # parser's extra warning about it is just noise.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(
                path,
                dtype=float,
                delimiter=",",
                skiprows=1 if skip_header else 0,
                ndmin=2,
            )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if values.size == 0:
        raise DataFormatError(f"{path}: no data rows")
    try:
        return DataMatrix(values)
    except ParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_csv(path, values, header=None):
    """Write a float matrix as CSV with LF newlines and 17 significant digits.

    17 digits round-trip float64 exactly, so save followed by load_csv
    reproduces the matrix.  Accepts a DataMatrix or any 2-d array-like.

    The bytes are exactly those of ``"%.16e" % v`` for every value, joined
    by commas, each row ending in a line feed: what
    ``np.savetxt(fmt="%.16e", delimiter=",")`` writes.  Rows are encoded
    ``CSV_CHUNK_VALUES`` values at a time with array arithmetic, so the
    writer's working set stays at about 1 MB whatever the matrix size.  A
    value whose digits the array arithmetic cannot prove (non-finite,
    subnormal or beyond the scale table, within a rounding tie, or
    rounding up to 10**17) is formatted on its own with ``"%.16e"``.
    """
    if isinstance(values, DataMatrix):
        values = values.values
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DataFormatError(f"expected a 2-d array, got shape {values.shape}")
    rows, cols = values.shape
    with open(path, "wb") as fh:
        if header is not None:
            fh.write((",".join(header) + "\n").encode("utf-8"))
        if cols == 0:
            fh.write(b"\n" * rows)
            return
        step = max(1, CSV_CHUNK_VALUES // cols)
        for r0 in range(0, rows, step):
            fh.write(_encode_rows(values[r0 : r0 + step]))


# save_csv encodes this many values at a time; a chunk's temporaries take
# about 250 bytes per value.
CSV_CHUNK_VALUES = 1 << 12

# Magnitudes whose digits come from the scale table, and the exponents k of
# the table's 10**k: those that scale such a magnitude to 17 integer digits.
_FAST_MIN, _FAST_MAX = 1e-290, 1e299
_K_MIN, _K_MAX = -283, 308
# A scaled fraction this close to .5 goes to "%.16e"; the double-double
# product is accurate to about 1e-14 at 1e17.
_TIE_TOL = 1e-6

# Each value's field, in output order with NUL pad bytes: sign, leading
# digit, ".", digits 2-17 of the significand as four 4-digit words, "e",
# the exponent as a 4-digit word with its sign over the thousands digit
# and its hundreds digit dropped below 100, then the separator.
_RECORD = np.frombuffer(
    b"\0\0.\0" + b"0" * 16 + b"e\0\0\0" + b"\0\0\0\0" + b",\0\0\0", dtype=np.uint8
)
_SEP = 28


@functools.cache
def _csv_tables():
    """Lookup tables of the CSV encoder, built on first use.

    - text4: the 4-byte text of 0-9999;
    - scale: each 10**k, k from _K_MIN, as a double-double hi + lo, with hi
      split into halves of at most 27 bits for Dekker's exact product.
      Python's int true division rounds correctly.
    """
    group = np.arange(10000)
    text = group[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48
    text4 = np.ascontiguousarray(text, dtype=np.uint8).view(np.uint32).ravel()
    scale = np.empty((4, _K_MAX - _K_MIN + 1))
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        mant, exp = math.frexp(hi)
        bits = int(mant * 2**53)
        top = bits >> 27 << 27
        scale[:, i] = (hi, math.ldexp(top, exp - 53), math.ldexp(bits - top, exp - 53), lo)
    return text4, tuple(scale)


def _scaled(a, k, scale):
    """a * 10**k as a double-double (hi, lo), exact to about 1e-31 relative."""
    th, bh, bl, tl = (column.take(k - _K_MIN) for column in scale)
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    p = a * th
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * tl
    hi = p + err
    return hi, err - (hi - p)


def _exponent_off(hi, lo):
    """+1 where hi + lo >= 1e17, -1 where it is below 1e16, else 0."""
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    return high.astype(np.intp) - low


def _encode_rows(values):
    """CSV bytes of a block of rows, one "%.16e" field per value."""
    text4, scale = _csv_tables()
    rows, cols = values.shape
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    zero = x == 0
    a[~fast] = 1.0
    fast |= zero
    # The decimal exponent X is the one that puts a * 10**(16 - X) in
    # [1e16, 1e17), judged on the unrounded product; log10 can be one off.
    exp = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, 16 - exp, scale)
    off = _exponent_off(hi, lo)
    fix = np.flatnonzero(off)
    if fix.size:
        exp[fix] += off[fix]
        hi[fix], lo[fix] = _scaled(a[fix], 16 - exp[fix], scale)
        fast[fix] &= _exponent_off(hi[fix], lo[fix]) == 0
    # The 17-digit significand, rounded to nearest; near-ties are not proven.
    floor = np.floor(lo)
    frac = lo - floor
    sig = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > _TIE_TOL) & (sig < 10**17)
    sig[zero] = 0

    # Each value's field in _RECORD's layout; the pad bytes go at the end.
    src = np.empty((x.size, _RECORD.size), dtype=np.uint8)
    src[:] = _RECORD
    words = src.view(np.uint32)
    lead = sig // 10**16
    rest = sig - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g0, g2 = upper // 10**4, lower // 10**4
    g1, g3 = upper - g0 * 10**4, lower - g2 * 10**4
    for i, g in enumerate((g0, g1, g2, g3)):
        words[:, i + 1] = text4.take(g)
    mag = np.abs(exp)
    words[:, 6] = text4.take(mag)
    src[:, 24] = np.where(exp < 0, 45, 43)
    src[:, 25] *= mag >= 100
    src[:, 1] = lead + 48
    src[:, 0] = np.signbit(x) * 45
    src.reshape(rows, cols, -1)[:, -1, _SEP] = 10
    for i in np.flatnonzero(~fast):
        text = ("%.16e" % x[i]).encode("ascii")
        src[i, :_SEP] = 0
        src[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    out = src.ravel()
    return out[out != 0]
