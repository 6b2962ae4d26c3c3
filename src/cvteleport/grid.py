"""Sampled complex wave functions on uniform quadrature grids.

Everything downstream (the teleportation channel, analysis) works with
functions sampled on a :class:`GridSpec`: a uniform 1D lattice of quadrature
values with a power-of-two point count, so the position and momentum
representations are connected by radix-2 FFTs.  Conventions (hbar = 1):

* forward transform  phi(p) = (2*pi)^(-1/2) * integral psi(x) exp(-i p x) dx
* the conjugate momentum lattice has spacing dp = 2*pi/(n*dx) and is centred
  on zero, so discrete transforms are exactly unitary under the dx / dp
  measures (Parseval holds to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ZeroNormError

_TWO_PI = 2.0 * np.pi

#: Relative amplitude threshold used to delimit the support interval.
SUPPORT_THRESHOLD = 1e-3

#: Squared-norm floor below which a state counts as numerically void.
ZERO_NORM_FLOOR = 1e-300


@dataclass(frozen=True)
class GridSpec:
    """Uniform quadrature lattice: points ``x_min + i*dx`` for i in [0, n)."""

    x_min: float
    dx: float
    n: int

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        if not (self.dx > 0.0 and np.isfinite(self.dx)):
            raise ValueError(f"grid spacing must be finite and positive, got {self.dx}")
        if not np.isfinite(self.x_min) or not np.isfinite(self.x_max):
            raise ValueError("grid endpoints must be finite")

    @classmethod
    def from_bounds(cls, x_min: float, x_max: float, n: int) -> "GridSpec":
        """Grid covering [x_min, x_max) with n points."""
        if not x_max > x_min:
            raise ValueError("x_max must exceed x_min")
        return cls(x_min=x_min, dx=(x_max - x_min) / n, n=n)

    @property
    def x_max(self) -> float:
        return self.x_min + (self.n - 1) * self.dx

    @property
    def span(self) -> float:
        return self.n * self.dx

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def dp(self) -> float:
        return _TWO_PI / (self.n * self.dx)

    def conjugate(self) -> "GridSpec":
        """The zero-centred momentum lattice determined by this grid."""
        dp = self.dp
        return GridSpec(x_min=-(self.n // 2) * dp, dx=dp, n=self.n)


class SampledWaveFunction:
    """Complex amplitudes sampled on a :class:`GridSpec`.

    Instances are immutable after construction; the amplitude buffer is
    write-locked because one state is shared: a run's loaded state serves
    every scenario on the run's grid, and `teleport` returns it as it is
    for `Ideal`.
    """

    __slots__ = ("grid", "amplitudes")

    def __init__(self, grid: GridSpec, amplitudes):
        amplitudes = np.array(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (grid.n,):
            raise ValueError(
                f"expected {grid.n} amplitudes, got shape {amplitudes.shape}"
            )
        if not np.all(np.isfinite(amplitudes.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amplitudes.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "amplitudes", amplitudes)

    def __setattr__(self, name, value):
        raise AttributeError("SampledWaveFunction is immutable")

    def norm(self) -> float:
        """L2 norm under the dx measure."""
        return float(
            np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx)
        )

    def probability(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __repr__(self):
        g = self.grid
        return (
            f"SampledWaveFunction(n={g.n}, dx={g.dx:g}, "
            f"x in [{g.x_min:g}, {g.x_max:g}], norm={self.norm():.6g})"
        )


@dataclass(frozen=True)
class MomentSummary:
    """First and second moments plus the thresholded support length."""

    mean_x: float
    std_x: float
    support_length: float
    mean_p: float
    std_p: float


def normalize(psi: SampledWaveFunction) -> SampledWaveFunction:
    """Scale to unit L2 norm under the dx measure.

    Raises ZeroNormError when the squared norm is below ZERO_NORM_FLOOR; the
    global phase is untouched.  Amplitudes whose squared norm overflows are
    first divided by their largest real or imaginary part.
    """
    amps = psi.amplitudes
    with np.errstate(over="ignore"):
        norm_sq = np.sum(np.abs(amps) ** 2) * psi.grid.dx
    if norm_sq == np.inf:
        amps = amps / np.abs(amps.view(np.float64)).max()
        norm_sq = np.sum(np.abs(amps) ** 2) * psi.grid.dx
    if norm_sq < ZERO_NORM_FLOOR:
        raise ZeroNormError("cannot normalize a wave function with vanishing norm")
    return SampledWaveFunction(psi.grid, amps / np.sqrt(norm_sq))


def to_momentum(psi: SampledWaveFunction) -> SampledWaveFunction:
    """Momentum representation on the conjugate (zero-centred) lattice."""
    grid = psi.grid
    momentum = grid.conjugate()
    spec = np.fft.fftshift(np.fft.fft(psi.amplitudes))
    # in place: only the spectrum is alive when the constructor copies it
    spec *= np.exp(-1j * momentum.points * grid.x_min) * (grid.dx / np.sqrt(_TWO_PI))
    return SampledWaveFunction(momentum, spec)


def moments(psi: SampledWaveFunction) -> MomentSummary:
    """Position and momentum means/spreads plus the support length.

    The support interval is the smallest contiguous index range holding every
    sample with |psi| above ``SUPPORT_THRESHOLD`` times the peak; its length
    counts whole bins, so a single-bin spike reports dx.
    """
    xs = psi.grid.points
    rho = psi.probability()
    total = rho.sum()
    if total <= 0.0:
        raise ZeroNormError("moments of a null wave function are undefined")
    rho = rho / total
    mean_x = float(np.dot(xs, rho))
    var_x = float(np.dot((xs - mean_x) ** 2, rho))
    std_x = float(np.sqrt(max(var_x, 0.0)))

    mask = np.abs(psi.amplitudes) > SUPPORT_THRESHOLD * np.abs(psi.amplitudes).max()
    idx = np.flatnonzero(mask)
    support_length = float((idx[-1] - idx[0] + 1) * psi.grid.dx)

    phi = to_momentum(psi)
    ps = phi.grid.points
    rho_p = phi.probability()
    rho_p = rho_p / rho_p.sum()
    mean_p = float(np.dot(ps, rho_p))
    var_p = float(np.dot((ps - mean_p) ** 2, rho_p))
    std_p = float(np.sqrt(max(var_p, 0.0)))
    return MomentSummary(mean_x, std_x, support_length, mean_p, std_p)


def inner_product(psi: SampledWaveFunction, chi: SampledWaveFunction) -> complex:
    """<psi|chi> under the dx measure (conjugates the first argument)."""
    if psi.grid != chi.grid:
        raise GridMismatchError("inner product requires a common grid")
    return complex(np.vdot(psi.amplitudes, chi.amplitudes) * psi.grid.dx)


def gaussian_packet(
    grid: GridSpec, center: float = 0.0, width: float = 1.0, momentum: float = 0.0
) -> SampledWaveFunction:
    """Normalized Gaussian exp(-(x-center)^2/(2 width^2) + i momentum x).

    With this amplitude convention the position spread is width/sqrt(2).
    """
    if width <= 0.0:
        raise ValueError("width must be positive")
    xs = grid.points
    amps = np.exp(-((xs - center) ** 2) / (2.0 * width**2) + 1j * momentum * xs)
    return normalize(SampledWaveFunction(grid, amps))


def resample(psi: SampledWaveFunction, grid: GridSpec) -> SampledWaveFunction:
    """Linearly interpolate onto another grid and renormalize.

    Amplitudes are zero outside the source span.  When the target points
    coincide with source points the values carry over exactly.
    """
    return place_samples(psi.grid.points, psi.amplitudes, grid)


def place_samples(positions, values, grid: GridSpec) -> SampledWaveFunction:
    """Place sampled (position, amplitude) pairs on a grid and normalize."""
    positions = np.asarray(positions, dtype=float)
    values = np.asarray(values, dtype=np.complex128)
    amplitudes = np.interp(grid.points, positions, values, left=0.0, right=0.0)
    return normalize(SampledWaveFunction(grid, amplitudes))
