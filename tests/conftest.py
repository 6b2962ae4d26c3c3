import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cvteleport import (
    General,
    GridSpec,
    GridTooNarrowError,
    MeasurementOutcome,
    SampledWaveFunction,
    ZeroNormError,
    moments,
    normalize,
    to_momentum,
)
from cvteleport.channel import _finish, _require_width, outcome_moments
from cvteleport.grid import ZERO_NORM_FLOOR
from cvteleport.signals import write_table

_SQRT2 = np.sqrt(2.0)
_TWO_PI = 2.0 * np.pi

# Every property test runs the same examples on every run: derandomized, with
# no example database and no deadline.  A test sets only its max_examples.
settings.register_profile("cvteleport", derandomize=True, database=None, deadline=None)
settings.load_profile("cvteleport")


def rel_l2(a, b):
    """Relative L2 distance between two states on a common grid."""
    return float(
        np.linalg.norm(a.amplitudes - b.amplitudes) / np.linalg.norm(a.amplitudes)
    )


def convolve_sampled_kernel(psi, sigma_a, p4):
    """Direct convolution with k(u) = exp(i*sqrt(2)*p4*u) * exp(-(u/(2 sigma_a))^2)
    sampled on the grid.

    Equivalent to the spectral route whenever the kernel is resolved
    (sigma_a a few grid steps or more); kept as the cross-check path.
    """
    g = psi.grid
    u = (np.arange(2 * g.n - 1) - (g.n - 1)) * g.dx
    kernel = np.exp(1j * _SQRT2 * p4 * u) * np.exp(-((u / (2.0 * sigma_a)) ** 2))
    full = np.convolve(psi.amplitudes, kernel)
    return _finish(g, full[g.n - 1 : 2 * g.n - 1] * g.dx)


def random_state(grid, rng, packets=2):
    """Smooth random state: a few Gaussian packets, resolved and well inside."""
    span = grid.span
    kick_max = 0.12 * np.pi / grid.dx
    amps = np.zeros(grid.n, dtype=np.complex128)
    xs = grid.points
    mid = grid.x_min + span / 2
    for _ in range(packets):
        width = rng.uniform(3.0 * grid.dx, span / 14)
        center = mid + rng.uniform(-0.12, 0.12) * span
        kick = rng.uniform(-kick_max, kick_max)
        coeff = rng.normal() + 1j * rng.normal()
        amps += coeff * np.exp(
            -((xs - center) ** 2) / (4.0 * width**2) + 1j * kick * xs
        )
    return normalize(SampledWaveFunction(grid, amps))


def _gaussian(values, mean, var):
    values = np.asarray(values)
    return np.exp(-((values - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def closed_form_marginal(psi, params, values):
    """N(mean, var) at ``values`` for the one random outcome coordinate.

    For a real Gaussian input every outcome density is Gaussian, with the
    means and variances `outcome_moments` gives; the x3-p4 covariance is
    zero.  The coordinate is p4 when sigma_b is ideal, else x3.
    """
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
    mean, var = (mean_p4, var_p4) if params.sigma_b == np.inf else (mean_x3, var_x3)
    return _gaussian(values, mean, var)


def closed_form_joint(psi, params, x3_values, p4_values):
    """The joint (x3, p4) density on x3_values x p4_values for a real Gaussian input.

    The product of the two Gaussians `outcome_moments` gives: for such an
    input the x3-p4 covariance is zero.
    """
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
    return np.multiply.outer(
        _gaussian(x3_values, mean_x3, var_x3), _gaussian(p4_values, mean_p4, var_p4)
    )


def closed_form_teleport(grid, mu, w, k0, sigma_a, sigma_b, x3, p4):
    """psi_tel on ``grid`` for psi(v) ~ exp(-(v - mu)^2/(4 w^2) + i*k0*v), normalized.

    With a = 1/(4 sigma_a^2), b = 1/(4 sigma_b^2), c = 1/(4 w^2),
    T = 2*sqrt(2)*x3 and q = sqrt(2)*p4 the kernel integral over v is
    Gaussian, so psi_tel(x) ~ exp(beta^2/(4 alpha) + gamma) with
    alpha = a + b + c, beta = 2a*x - 2b*(x - T) + 2c*mu + i*(k0 - q) and
    gamma = -a*x^2 - b*(x - T)^2 + i*q*x - c*mu^2.  The dropped factors are
    real and positive, so the global phase is the channel's.  The widths are
    a regime's: sigma_b = inf sets b = 0, and sigma_a = 0 is the limit
    exp(-((x - sqrt(2)*x3)/sigma_b)^2) * psi(x).
    """
    x = grid.points
    c = 1.0 / (4.0 * w**2)
    b = 1.0 / (4.0 * sigma_b**2)
    if sigma_a == 0.0:
        exponent = -4.0 * b * (x - np.sqrt(2.0) * x3) ** 2 - c * (x - mu) ** 2 + 1j * k0 * x
    else:
        a = 1.0 / (4.0 * sigma_a**2)
        T, q = 2.0 * np.sqrt(2.0) * x3, np.sqrt(2.0) * p4
        alpha = a + b + c
        beta = 2.0 * a * x - 2.0 * b * (x - T) + 2.0 * c * mu + 1j * (k0 - q)
        gamma = -a * x**2 - b * (x - T) ** 2 + 1j * q * x - c * mu**2
        exponent = beta**2 / (4.0 * alpha) + gamma
    exponent -= exponent.real.max()
    return normalize(SampledWaveFunction(grid, np.exp(exponent)))


# ---------------------------------------------------------------------------
# The beam-splitter construction of the EPR resource: the reference that
# `epr_state`'s closed form is checked against.  A two-mode state is an (n, n)
# array on grid x grid, axis 0 the first mode.
#
# The beam splitter is the quadrature substitution
#
#     Omega(x1, x2)  ->  Omega((x4 + x3)/sqrt(2), (x4 - x3)/sqrt(2)),
#
# the wave-function image of the single-photon action |1> -> (|3>+|4>)/sqrt(2),
# |2> -> (|4>-|3>)/sqrt(2): the mode operators map as a1 = (a3+a4)/sqrt(2),
# a2 = (a4-a3)/sqrt(2), which on quadratures reads x1 = (x4+x3)/sqrt(2),
# x2 = (x4-x3)/sqrt(2), i.e. exactly the substitution above.  Port 2 feeds the
# output *difference* quadrature, so shining the x-squeezed beam (width sigma_a)
# into port 2 and the p-squeezed beam (width sigma_b) into port 1 produces the
# x-correlated two-mode resource
#
#     phi(x2, x5) ~ exp(-((x2-x5)/(2 sigma_a))^2) * exp(-((x2+x5)/(2 sigma_b))^2),
#
# which `epr_state` evaluates directly in closed form.
# ---------------------------------------------------------------------------


def two_mode_norm(amplitudes: np.ndarray, grid: GridSpec) -> float:
    """L2 norm of a two-mode state on grid x grid."""
    return float(np.sqrt(np.sum(np.abs(amplitudes) ** 2) * grid.dx * grid.dx))


def product_state(psi_a: SampledWaveFunction, psi_b: SampledWaveFunction) -> np.ndarray:
    """Separable state psi_a(x_a) * psi_b(x_b), both on one grid."""
    return np.outer(psi_a.amplitudes, psi_b.amplitudes)


def beam_splitter(
    amplitudes: np.ndarray, grid: GridSpec, inverse: bool = False
) -> np.ndarray:
    """Balanced beam splitter as a coordinate-rotation resampling.

    The output value at (y1, y2) is the input evaluated at
    ((y2+y1)/sqrt(2), (y2-y1)/sqrt(2)) by bilinear interpolation, zero outside
    the grid; norm is preserved to the interpolation error (O(dx^2) for
    smooth states).
    """
    xs = grid.points
    Y1, Y2 = np.meshgrid(xs, xs, indexing="ij")
    if inverse:
        a, b = (Y1 - Y2) / _SQRT2, (Y1 + Y2) / _SQRT2
    else:
        a, b = (Y2 + Y1) / _SQRT2, (Y2 - Y1) / _SQRT2
    return _bilinear(amplitudes, xs, a, b)


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


def epr_from_beam_splitter(params: General, grid: GridSpec) -> np.ndarray:
    """EPR resource built physically: squeezed beams through the beam splitter.

    The wide (p-squeezed, sigma_b) beam enters port 1 and the narrow
    (x-squeezed, sigma_a) beam enters port 2, so the output difference
    quadrature is squeezed and the result matches :func:`epr_state` up to
    interpolation error.
    """
    if params.sigma_a == 0.0 or params.sigma_b == np.inf:
        raise ValueError("ideal squeezing limits have no grid representation")
    wide = squeezed_vacuum(params.sigma_b, grid)
    narrow = squeezed_vacuum(params.sigma_a, grid)
    built = beam_splitter(product_state(wide, narrow), grid)
    return built / two_mode_norm(built, grid)


# ---------------------------------------------------------------------------
# The full three-mode oracle: the independent reference the kernel path is
# tested against.  It never uses the kernel: it evolves the input times the
# closed-form EPR resource `epr_state`, step by step (beam splitter,
# corrections, homodyne slice), on a small grid.
# ---------------------------------------------------------------------------

#: Largest grid the full three-mode oracle will accept (memory scales as n^3).
ORACLE_MAX_POINTS = 64


def momentum_transform_along(arr: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """Apply the forward transform along one axis of an ndarray."""
    ps = grid.conjugate().points
    spec = np.fft.fftshift(np.fft.fft(arr, axis=axis), axes=axis)
    phase = np.exp(-1j * ps * grid.x_min) * (grid.dx / np.sqrt(_TWO_PI))
    shape = [1] * arr.ndim
    shape[axis] = grid.n
    return spec * phase.reshape(shape)


def position_transform_along(
    arr: np.ndarray, momentum_grid: GridSpec, target: GridSpec, axis: int
) -> np.ndarray:
    """Inverse of :func:`momentum_transform_along` onto ``target``."""
    ps = momentum_grid.points
    shape = [1] * arr.ndim
    shape[axis] = momentum_grid.n
    phased = arr * np.exp(1j * ps * target.x_min).reshape(shape)
    out = np.fft.ifft(np.fft.ifftshift(phased, axes=axis), axis=axis)
    return out * (momentum_grid.dx * momentum_grid.n / np.sqrt(_TWO_PI))


def evaluate_bandlimited(psi: SampledWaveFunction, xs) -> np.ndarray:
    """Evaluate the trigonometric interpolant of ``psi`` at arbitrary points.

    Exact at the grid points and spectrally accurate for smooth, well-resolved
    states; the interpolant is periodic with the grid span, so query points
    should stay where the state has decayed.
    """
    xs = np.asarray(xs, dtype=float)
    phi = to_momentum(psi)
    ps = phi.grid.points
    kernel = np.exp(1j * np.multiply.outer(xs, ps))
    return kernel @ phi.amplitudes * (phi.grid.dx / np.sqrt(_TWO_PI))


def epr_state(regime: General, grid: GridSpec) -> np.ndarray:
    """The EPR resource phi(x2, x5) on grid x grid, normalized, in closed form.

    A 50-50 beam splitter makes it of two squeezed vacua, the p-squeezed beam
    (width sigma_b) in one port and the x-squeezed beam (width sigma_a) in the
    other:

        phi(x2, x5) ~ exp(-((x2-x5)/(2 sigma_a))^2) * exp(-((x2+x5)/(2 sigma_b))^2),

    an (n, n) complex128 array, axis 0 x2 and axis 1 x5, exactly symmetric
    under exchange of the two modes.  ``regime`` must be `General`: an ideal
    width has no grid representation.
    """
    sigma_a, sigma_b = regime.sigma_a, regime.sigma_b
    if sigma_a == 0.0 or sigma_b == np.inf:
        raise ValueError("ideal squeezing limits have no grid representation")
    xs = grid.points
    X2, X5 = np.meshgrid(xs, xs, indexing="ij")
    amps = np.exp(-(((X2 - X5) / (2.0 * sigma_a)) ** 2)) * np.exp(
        -(((X2 + X5) / (2.0 * sigma_b)) ** 2)
    )
    norm = np.sqrt(np.sum(np.abs(amps) ** 2) * grid.dx * grid.dx)
    if norm**2 < ZERO_NORM_FLOOR:
        raise ZeroNormError("two-mode state has vanishing norm")
    return amps.astype(np.complex128) / norm


def oracle_teleport(
    psi: SampledWaveFunction,
    regime: General,
    outcome: MeasurementOutcome,
) -> SampledWaveFunction:
    """Brute-force reference: evolve the full three-mode state and condition.

    Builds psi(x1)*phi(x2, x5) on the product grid, applies the beam-splitter
    substitution on modes (1,2) -> (3,4) by band-limited evaluation, shifts x5
    by sqrt(2)*x3 through a momentum-space phase (sub-bin shifts stay exact),
    Fourier-transforms x4, applies the correction phase exp(i*sqrt(2)*x5*p4),
    slices at the grid values nearest (x3, p4), strips the residual
    outcome-dependent global phase exp(i*x3*p4), and normalizes.

    Restricted to n <= 64 because memory and work scale as n^3; requires
    a `General` regime, finite squeezing on both inputs.
    """
    g = psi.grid
    if g.n > ORACLE_MAX_POINTS:
        raise ValueError(f"oracle grids are limited to n <= {ORACLE_MAX_POINTS}, got {g.n}")
    phi = epr_state(regime, g)  # refuses an ideal width
    n = g.n
    xs = g.points
    ps = g.conjugate().points
    dp = g.dp

    # Beam splitter on (1, 2): evaluate the product state at the rotated
    # coordinates.  psi goes through its trigonometric interpolant; the
    # two-mode resource is interpolated the same way along its first axis.
    X3, X4 = np.meshgrid(xs, xs, indexing="ij")
    arg1 = ((X4 + X3) / _SQRT2).ravel()
    arg2 = ((X4 - X3) / _SQRT2).ravel()
    psi_rot = evaluate_bandlimited(psi, arg1).reshape(n, n)

    phi_spec = momentum_transform_along(phi, g, axis=0)
    eval_kernel = np.exp(1j * np.multiply.outer(arg2, ps)) * (dp / np.sqrt(_TWO_PI))
    phi_rot = (eval_kernel @ phi_spec).reshape(n, n, n)

    state = psi_rot[:, :, None] * phi_rot

    # Conditional displacement x5 -> x5 - sqrt(2)*x3, applied per x3 slice in
    # the momentum representation of x5.
    state = momentum_transform_along(state, g, axis=2)
    state *= np.exp(-1j * np.multiply.outer(_SQRT2 * xs, ps))[:, None, :]
    state = position_transform_along(state, g.conjugate(), g, axis=2)

    # Homodyne on mode 4 in the momentum representation, then the momentum
    # correction phase on x5.
    state = momentum_transform_along(state, g, axis=1)
    state *= np.exp(1j * _SQRT2 * np.multiply.outer(ps, xs))[None, :, :]

    i3 = int(np.argmin(np.abs(xs - outcome.x3)))
    k4 = int(np.argmin(np.abs(ps - outcome.p4)))
    slice_ = state[i3, k4, :] * np.exp(-1j * xs[i3] * ps[k4])
    return normalize(SampledWaveFunction(g, slice_))


# ---------------------------------------------------------------------------
# The generator of the bundled silhouette asset
# ---------------------------------------------------------------------------


def _edge(x, a, b, w):
    erf = np.vectorize(math.erf, otypes=[float])
    return 0.5 * (erf((x - a) / w) - erf((x - b) / w))


def silhouette_profile(x) -> np.ndarray:
    """Procedural human-outline amplitude profile on [0, 100].

    A standing figure seen head-first from x = 0: head and shoulders, chest,
    a waist dip, hips, legs and feet, with small texture ripples and facial
    notches for fine detail.  The block weights were calibrated once so the
    normalized probability profile has mean ~50, spread ~28 and support ~100.
    """
    x = np.asarray(x, dtype=float)
    y = 0.94 * _edge(x, 2.0, 26.0, 0.7)
    y += 0.16 * np.exp(-(((x - 9.0) / 4.5) ** 2))
    y -= 0.22 * np.exp(-(((x - 13.5) / 0.8) ** 2))  # mouth
    y -= 0.13 * np.exp(-(((x - 19.5) / 0.9) ** 2))  # chin
    y += (0.09 * np.sin(3.1 * x)) * _edge(x, 3.0, 13.0, 1.0)  # hair texture
    y += 0.72 * _edge(x, 26.0, 38.0, 0.7)
    y += 0.62 * _edge(x, 38.0, 56.0, 0.9)
    y += 0.07 * np.exp(-(((x - 47.0) / 0.9) ** 2))  # belt
    y += 1.15 * _edge(x, 56.0, 74.0, 0.7)
    y += (0.07 * np.sin(2.4 * x)) * _edge(x, 58.0, 86.0, 1.0)  # fabric texture
    y += 0.95 * _edge(x, 74.0, 92.0, 0.7)
    y += 0.45 * _edge(x, 92.0, 99.0, 0.6)
    return np.clip(y, 0.0, None)


def write_silhouette_asset(path, dx: float = 0.5) -> None:
    """Regenerate the bundled asset file (positions 0..100 step dx)."""
    xs = np.arange(0.0, 100.0 + dx / 2, dx)
    amps = silhouette_profile(xs)
    head = "# bundled silhouette test signal\n"
    head += "# real amplitude profile on [0, 100]; calibrated to mean ~50, spread ~28\n"
    write_table(path, head, (xs, amps), "%.17g %.17g\n")


def pytest_configure(config):
    # The tests run with database=None, but hypothesis still caches the
    # constants it finds in local modules; keep that cache in pytest's own.
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture
def unit_grid():
    return GridSpec(-16.0, 0.125, 256)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
