"""The closed-form EPR resource.

The resource is what a 50-50 beam splitter makes of two squeezed vacua: the
p-squeezed beam (width sigma_b) in one port and the x-squeezed beam (width
sigma_a) in the other give the x-correlated two-mode state

    phi(x2, x5) ~ exp(-((x2-x5)/(2 sigma_a))^2) * exp(-((x2+x5)/(2 sigma_b))^2),

which `epr_state` evaluates directly in closed form.  The beam-splitter
construction lives in ``tests/conftest.py``, as the reference `epr_state` is
checked against.  The widths come as a `channel.General` regime: the ideal
limits (sigma_a = 0, sigma_b = inf) of the other regimes have no grid
representation, and the channel evaluates them as limits of its kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import SentinelNotMaterializableError, ZeroNormError
from .grid import GridSpec, ZERO_NORM_FLOOR


def _require_width(name: str, value) -> None:
    if not (np.isscalar(value) and np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite width")


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


def epr_state(regime, grid: GridSpec) -> TwoModeState:
    """Finite-squeezing EPR resource in closed form.

    Normalized state proportional to
    exp(-((x2-x5)/(2 sigma_a))^2) * exp(-((x2+x5)/(2 sigma_b))^2);
    exactly symmetric under exchange of the two modes.  ``regime`` must be a
    `channel.General`: both widths finite.
    """
    sigma_a, sigma_b = regime.sigma_a, regime.sigma_b
    if sigma_a == 0.0 or sigma_b == np.inf:
        raise SentinelNotMaterializableError(
            "ideal squeezing limits have no grid representation"
        )
    xs = grid.points
    X2, X5 = np.meshgrid(xs, xs, indexing="ij")
    amps = np.exp(-(((X2 - X5) / (2.0 * sigma_a)) ** 2)) * np.exp(
        -(((X2 + X5) / (2.0 * sigma_b)) ** 2)
    )
    return TwoModeState(grid, grid, amps).normalized()

