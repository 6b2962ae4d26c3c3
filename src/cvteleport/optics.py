"""Two-mode states, the 50-50 beam splitter, and the squeezed-light EPR source.

The beam splitter is the quadrature substitution

    Omega(x1, x2)  ->  Omega((x4 + x3)/sqrt(2), (x4 - x3)/sqrt(2)),

the wave-function image of the single-photon action |1> -> (|3>+|4>)/sqrt(2),
|2> -> (|4>-|3>)/sqrt(2): the mode operators map as a1 = (a3+a4)/sqrt(2),
a2 = (a4-a3)/sqrt(2), which on quadratures reads x1 = (x4+x3)/sqrt(2),
x2 = (x4-x3)/sqrt(2), i.e. exactly the substitution above.  Port 2 feeds the
output *difference* quadrature, so shining the x-squeezed beam (width sigma_a)
into port 2 and the p-squeezed beam (width sigma_b) into port 1 produces the
x-correlated two-mode resource

    phi(x2, x5) ~ exp(-((x2-x5)/(2 sigma_a))^2) * exp(-((x2+x5)/(2 sigma_b))^2),

which `epr_state` also evaluates directly in closed form.  Ideal limits
(sigma_a -> 0, sigma_b -> inf) are never materialized on a grid; the channel
module owns their closed-form kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    GridTooNarrowError,
    SentinelNotMaterializableError,
    ZeroNormError,
)
from .grid import GridSpec, SampledWaveFunction, ZERO_NORM_FLOOR, normalize

_SQRT2 = np.sqrt(2.0)


class _IdealSentinel:
    """Marker for an ideal squeezing limit ("ideal" in configs)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ideal"


#: Sentinel accepted for either width of :class:`SqueezingParams`.
IDEAL = _IdealSentinel()


def _require_width(name: str, value) -> None:
    if not (np.isscalar(value) and np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite width")


@dataclass(frozen=True)
class SqueezingParams:
    """EPR-source configuration: Gaussian widths or ideal sentinels.

    ``sigma_a`` is the x-squeezed input width (ideal means sigma_a -> 0),
    ``sigma_b`` the p-squeezed input width (ideal means sigma_b -> inf).
    """

    sigma_a: object
    sigma_b: object

    def __post_init__(self):
        for name in ("sigma_a", "sigma_b"):
            value = getattr(self, name)
            if value is IDEAL:
                continue
            _require_width(name, value)
            object.__setattr__(self, name, float(value))

    @property
    def a_is_ideal(self) -> bool:
        return self.sigma_a is IDEAL

    @property
    def b_is_ideal(self) -> bool:
        return self.sigma_b is IDEAL


class TwoModeState:
    """Complex amplitudes on a product grid; axis 0 is mode a, axis 1 mode b."""

    __slots__ = ("grid_a", "grid_b", "amplitudes")

    def __init__(self, grid_a: GridSpec, grid_b: GridSpec, amplitudes):
        amplitudes = np.array(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (grid_a.n, grid_b.n):
            raise ValueError(
                f"expected shape {(grid_a.n, grid_b.n)}, got {amplitudes.shape}"
            )
        if not np.all(np.isfinite(amplitudes.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amplitudes.setflags(write=False)
        object.__setattr__(self, "grid_a", grid_a)
        object.__setattr__(self, "grid_b", grid_b)
        object.__setattr__(self, "amplitudes", amplitudes)

    def __setattr__(self, name, value):
        raise AttributeError("TwoModeState is immutable")

    def norm(self) -> float:
        return float(
            np.sqrt(
                np.sum(np.abs(self.amplitudes) ** 2)
                * self.grid_a.dx
                * self.grid_b.dx
            )
        )

    def normalized(self) -> "TwoModeState":
        n = self.norm()
        if n**2 < ZERO_NORM_FLOOR:
            raise ZeroNormError("two-mode state has vanishing norm")
        return TwoModeState(self.grid_a, self.grid_b, self.amplitudes / n)


def product_state(psi_a: SampledWaveFunction, psi_b: SampledWaveFunction) -> TwoModeState:
    """Separable state psi_a(x_a) * psi_b(x_b)."""
    return TwoModeState(
        psi_a.grid, psi_b.grid, np.outer(psi_a.amplitudes, psi_b.amplitudes)
    )


def beam_splitter(state: TwoModeState, inverse: bool = False) -> TwoModeState:
    """Balanced beam splitter as a coordinate-rotation resampling.

    The output value at (y1, y2) is the input evaluated at
    ((y2+y1)/sqrt(2), (y2-y1)/sqrt(2)) by bilinear interpolation, zero outside
    the grid.  Requires identical square grids on both modes so the rotated
    coordinates land on the common lattice; norm is preserved to the
    interpolation error (O(dx^2) for smooth states).
    """
    if state.grid_a != state.grid_b:
        raise GridMismatchError("beam splitter needs identical grids on both modes")
    g = state.grid_a
    xs = g.points
    Y1, Y2 = np.meshgrid(xs, xs, indexing="ij")
    if inverse:
        a, b = (Y1 - Y2) / _SQRT2, (Y1 + Y2) / _SQRT2
    else:
        a, b = (Y2 + Y1) / _SQRT2, (Y2 - Y1) / _SQRT2
    return TwoModeState(g, g, _bilinear(state.amplitudes, xs, a, b))


def _bilinear(values: np.ndarray, xs: np.ndarray, a, b) -> np.ndarray:
    """Bilinear lookup of ``values`` on the lattice xs x xs at (a, b); zero outside."""
    dx = xs[1] - xs[0]
    ia = np.clip(np.floor((a - xs[0]) / dx).astype(np.intp), 0, xs.size - 2)
    ib = np.clip(np.floor((b - xs[0]) / dx).astype(np.intp), 0, xs.size - 2)
    ta = (a - xs[ia]) / dx
    tb = (b - xs[ib]) / dx
    lo = (1.0 - tb) * values[ia, ib] + tb * values[ia, ib + 1]
    hi = (1.0 - tb) * values[ia + 1, ib] + tb * values[ia + 1, ib + 1]
    inside = (a >= xs[0]) & (a <= xs[-1]) & (b >= xs[0]) & (b <= xs[-1])
    return np.where(inside, (1.0 - ta) * lo + ta * hi, 0.0)


def squeezed_vacuum(sigma: float, grid: GridSpec) -> SampledWaveFunction:
    """Squeezed-vacuum Gaussian pi^(-1/4) sigma^(-1/2) exp(-x^2/(2 sigma^2)).

    Position spread is sigma/sqrt(2) and momentum spread 1/(sigma*sqrt(2)).
    The grid must span at least 12 sigma so the tails fit.
    """
    _require_width("sigma", sigma)
    if grid.span < 12.0 * sigma:
        raise GridTooNarrowError(
            f"span {grid.span:g} cannot hold a width-{sigma:g} squeezed state "
            f"(needs >= {12.0 * sigma:g})"
        )
    xs = grid.points
    amps = np.exp(-(xs**2) / (2.0 * sigma**2)) / (np.pi**0.25 * np.sqrt(sigma))
    return normalize(SampledWaveFunction(grid, amps))


def epr_state(params: SqueezingParams, grid: GridSpec) -> TwoModeState:
    """Finite-squeezing EPR resource in closed form.

    Normalized state proportional to
    exp(-((x2-x5)/(2 sigma_a))^2) * exp(-((x2+x5)/(2 sigma_b))^2);
    exactly symmetric under exchange of the two modes.
    """
    if params.a_is_ideal or params.b_is_ideal:
        raise SentinelNotMaterializableError(
            "ideal squeezing limits have no grid representation"
        )
    xs = grid.points
    X2, X5 = np.meshgrid(xs, xs, indexing="ij")
    amps = np.exp(-(((X2 - X5) / (2.0 * params.sigma_a)) ** 2)) * np.exp(
        -(((X2 + X5) / (2.0 * params.sigma_b)) ** 2)
    )
    return TwoModeState(grid, grid, amps).normalized()


def epr_from_beam_splitter(params: SqueezingParams, grid: GridSpec) -> TwoModeState:
    """EPR resource built physically: squeezed beams through the beam splitter.

    The wide (p-squeezed, sigma_b) beam enters port 1 and the narrow
    (x-squeezed, sigma_a) beam enters port 2, so the output difference
    quadrature is squeezed and the result matches :func:`epr_state` up to
    interpolation error.
    """
    if params.a_is_ideal or params.b_is_ideal:
        raise SentinelNotMaterializableError(
            "ideal squeezing limits have no grid representation"
        )
    wide = squeezed_vacuum(params.sigma_b, grid)
    narrow = squeezed_vacuum(params.sigma_a, grid)
    return beam_splitter(product_state(wide, narrow)).normalized()
