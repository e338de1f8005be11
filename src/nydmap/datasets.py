"""Dataset generation and CSV ingestion.

Three generators (noisy helix, noisy Swiss roll, Lorenz trajectory) plus
plain CSV load/save.  All randomness goes through ``numpy.random.default_rng``
(PCG64), so a fixed seed gives a bitwise-identical dataset on every platform
we target.
"""

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
    if noise_std < 0.0:
        raise ParameterError(f"noise_std must be >= 0, got {noise_std}")


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


def lorenz_derivative(state, params):
    """Right-hand side of the Lorenz system at a single state."""
    x, y, z = (float(v) for v in state)
    return np.array([
        params.sigma * (y - x),
        x * (params.rho - z) - y,
        x * y - params.beta * z,
    ])


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
        ax1 = sigma * (y - x)
        ay1 = x * (rho - z) - y
        az1 = x * y - beta * z

        x2 = x + half * ax1
        y2 = y + half * ay1
        z2 = z + half * az1
        ax2 = sigma * (y2 - x2)
        ay2 = x2 * (rho - z2) - y2
        az2 = x2 * y2 - beta * z2

        x3 = x + half * ax2
        y3 = y + half * ay2
        z3 = z + half * az2
        ax3 = sigma * (y3 - x3)
        ay3 = x3 * (rho - z3) - y3
        az3 = x3 * y3 - beta * z3

        x4 = x + dt * ax3
        y4 = y + dt * ay3
        z4 = z + dt * az3
        ax4 = sigma * (y4 - x4)
        ay4 = x4 * (rho - z4) - y4
        az4 = x4 * y4 - beta * z4

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
    """
    if isinstance(values, DataMatrix):
        values = values.values
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DataFormatError(f"expected a 2-d array, got shape {values.shape}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        np.savetxt(fh, values, fmt="%.17g", delimiter=",")
