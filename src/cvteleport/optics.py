"""Squeezing parameters and the closed-form EPR resource.

The resource is what a 50-50 beam splitter makes of two squeezed vacua: the
p-squeezed beam (width sigma_b) in one port and the x-squeezed beam (width
sigma_a) in the other give the x-correlated two-mode state

    phi(x2, x5) ~ exp(-((x2-x5)/(2 sigma_a))^2) * exp(-((x2+x5)/(2 sigma_b))^2),

which `epr_state` evaluates directly in closed form.  The beam-splitter
construction lives in ``tests/conftest.py``, as the reference `epr_state` is
checked against.  Ideal limits (sigma_a -> 0, sigma_b -> inf) are never
materialized on a grid; the channel module owns their closed-form kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SentinelNotMaterializableError, ZeroNormError
from .grid import GridSpec, ZERO_NORM_FLOOR


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

