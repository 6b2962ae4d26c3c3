"""The teleportation channel: kernel regimes, outcome statistics, and an oracle.

Conditioned on homodyne results (x3, p4) and after the standard corrections
(position shift by sqrt(2)*x3, momentum phase exp(i*sqrt(2)*x5*p4)), the
teleported wave function is, up to normalization,

    psi_tel(x5) = integral  exp(-((x5-v)/(2 sigma_a))^2)
                          * exp(-((x5+v-2*sqrt(2)*x3)/(2 sigma_b))^2)
                          * exp(-i*sqrt(2)*(v-x5)*p4) * psi(v) dv.

The regimes are limits of this kernel: both widths ideal gives the exact
identity; ideal sigma_b leaves a convolution with the narrow oscillatory
Gaussian k(u) = exp(i*sqrt(2)*p4*u) * exp(-(u/(2 sigma_a))^2); ideal sigma_a
leaves multiplication by the wide envelope exp(-((x5-sqrt(2)*x3)/sigma_b)^2).
With both widths finite the trapezoid sum of the kernel factors exactly into
two Gaussian envelopes around one banded convolution (`_teleport_general`).
`oracle_teleport` never uses the kernel: it evolves the full three-mode state
step by step (beam splitter, corrections, homodyne slice) on a small grid and
is the independent reference the kernel path is tested against.

Outcome statistics follow from the beam-splitter mode relations
x3 = x1/sqrt(2) + (x_a - x_b)/2 and p4 = p1/sqrt(2) + (p_b - p_a)/2 with the
exact Gaussian source spreads Var(x_a) = sigma_a^2/2, Var(p_a) = 1/(2 sigma_a^2)
(likewise for b); an ideal width pins its source quadrature to exactly zero
and makes the conjugate outcome coordinate improper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridTooNarrowError,
    IdealChannelOutcomeUnboundedError,
    OracleGridTooLargeError,
    SentinelNotMaterializableError,
    ZeroNormError,
)
from .grid import (
    GridSpec,
    SampledWaveFunction,
    ZERO_NORM_FLOOR,
    _momentum_transform_along,
    _position_transform_along,
    evaluate_bandlimited,
    moments,
    normalize,
    to_momentum,
)
from .optics import SqueezingParams, epr_state

_SQRT2 = np.sqrt(2.0)
_TWO_PI = 2.0 * np.pi

#: Largest grid the full three-mode oracle will accept (memory scales as n^3).
ORACLE_MAX_POINTS = 64

#: Fraction of output mass tolerated in the outermost grid bins.
_EDGE_MASS_LIMIT = 1e-4


@dataclass(frozen=True)
class MeasurementOutcome:
    """Homodyne results: x3 from the position detector, p4 from the momentum one."""

    x3: float
    p4: float

    def __post_init__(self):
        if not (np.isfinite(self.x3) and np.isfinite(self.p4)):
            raise ValueError("measurement outcomes must be finite")


@dataclass(frozen=True)
class Ideal:
    """Both source beams ideal: the channel is the exact identity."""


@dataclass(frozen=True)
class ConvolutionOnly:
    """Finite x-squeezing only: convolution with a narrow oscillatory Gaussian."""

    sigma_a: float

    def __post_init__(self):
        _require_width("sigma_a", self.sigma_a)


@dataclass(frozen=True)
class MultiplicationOnly:
    """Finite p-squeezing only: multiplication by a wide Gaussian envelope."""

    sigma_b: float

    def __post_init__(self):
        _require_width("sigma_b", self.sigma_b)


@dataclass(frozen=True)
class General:
    """Both widths finite: the full quadrature kernel."""

    sigma_a: float
    sigma_b: float

    def __post_init__(self):
        _require_width("sigma_a", self.sigma_a)
        _require_width("sigma_b", self.sigma_b)


KernelRegime = Ideal | ConvolutionOnly | MultiplicationOnly | General


def _require_width(name: str, value: float) -> None:
    if not (np.isscalar(value) and np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite width")


def regime_for(params: SqueezingParams) -> KernelRegime:
    """Map squeezing parameters (with sentinels) onto the kernel regime."""
    if params.a_is_ideal and params.b_is_ideal:
        return Ideal()
    if params.b_is_ideal:
        return ConvolutionOnly(params.sigma_a)
    if params.a_is_ideal:
        return MultiplicationOnly(params.sigma_b)
    return General(params.sigma_a, params.sigma_b)


def convolution_kernel(sigma_a: float, p4: float, u) -> np.ndarray:
    """k(u) = exp(i*sqrt(2)*p4*u) * exp(-(u/(2 sigma_a))^2)."""
    u = np.asarray(u, dtype=float)
    return np.exp(1j * _SQRT2 * p4 * u) * np.exp(-((u / (2.0 * sigma_a)) ** 2))


def envelope(sigma_b: float, x3: float, x) -> np.ndarray:
    """exp(-((x - sqrt(2)*x3)/sigma_b)^2)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-(((x - _SQRT2 * x3) / sigma_b) ** 2))


def teleport(
    psi: SampledWaveFunction, regime: KernelRegime, outcome: MeasurementOutcome
) -> SampledWaveFunction:
    """Teleported state for one measurement outcome, normalized.

    Raises ZeroNormError when the kernel annihilates the state (a physically
    improbable outcome rendered numerically void rather than silently
    renormalized noise) and GridTooNarrowError when the output leaks into the
    outermost grid bins.
    """
    if isinstance(regime, Ideal):
        return SampledWaveFunction(psi.grid, psi.amplitudes)
    if isinstance(regime, ConvolutionOnly):
        raw = _teleport_convolution(psi, regime.sigma_a, outcome.p4)
    elif isinstance(regime, MultiplicationOnly):
        raw = psi.amplitudes * envelope(regime.sigma_b, outcome.x3, psi.grid.points)
    elif isinstance(regime, General):
        raw = _teleport_general(psi, regime, outcome)
    else:
        raise TypeError(f"unknown kernel regime: {regime!r}")
    return _finish(psi.grid, raw)


def _teleport_convolution(
    psi: SampledWaveFunction, sigma_a: float, p4: float
) -> np.ndarray:
    """FFT convolution with k(u), via the kernel's exact transform.

    Convolving with k(u) multiplies the momentum spectrum by the Gaussian
    window exp(-sigma_a^2 (p - sqrt(2) p4)^2).  The window is applied with its
    exponent offset by the in-band minimum, so strongly off-band outcomes
    (huge p4, tiny sigma_a) tilt the spectrum exactly instead of underflowing;
    the dropped factor is a positive constant absorbed by normalization.
    """
    phi = to_momentum(psi)
    exponent = (sigma_a * (phi.grid.points - _SQRT2 * p4)) ** 2
    window = np.exp(-(exponent - exponent.min()))
    filtered = SampledWaveFunction(phi.grid, phi.amplitudes * window)
    return _position_transform_along(filtered.amplitudes, phi.grid, psi.grid, axis=0)


def convolve_sampled_kernel(
    psi: SampledWaveFunction, sigma_a: float, p4: float
) -> SampledWaveFunction:
    """Direct convolution with the kernel sampled on the grid.

    Equivalent to the spectral route whenever the kernel is resolved
    (sigma_a a few grid steps or more); kept as the cross-check path.
    """
    g = psi.grid
    u = (np.arange(2 * g.n - 1) - (g.n - 1)) * g.dx
    kernel = convolution_kernel(sigma_a, p4, u)
    full = np.convolve(psi.amplitudes, kernel)
    return _finish(g, full[g.n - 1 : 2 * g.n - 1] * g.dx)


def _teleport_general(
    psi: SampledWaveFunction, regime: General, outcome: MeasurementOutcome
) -> np.ndarray:
    """Trapezoid sum of the kernel: two Gaussian envelopes around one convolution.

    With A = 1/(4 sigma_a^2), B = 1/(4 sigma_b^2), c = x - sqrt(2)*x3 and
    q = sqrt(2)*p4 the kernel factors exactly as
      A >= B: exp(-2B c_x^2) exp(-(A-B)(x-v)^2 + iq(x-v)) exp(-2B c_v^2),
      A <  B: exp(-2A c_x^2 + iq c_x) exp(-(B-A)(c_x+c_v)^2) exp(-2A c_v^2 - iq c_v);
    no factor exceeds 1, so none underflows where the kernel does not.  The
    Toeplitz (Hankel on the reversed input) middle factor is a direct
    convolution over its nonzero taps, with exponents (u - w)(u + w) finite
    for any width: an FFT would smear rounding over envelopes spanning e^-100,
    and a sub-grid sigma_a is a single tap.
    """
    g = psi.grid
    sa, sb = 2.0 * regime.sigma_a, 2.0 * regime.sigma_b
    c = g.points - _SQRT2 * outcome.x3
    q = _SQRT2 * outcome.p4
    weights = np.full(g.n, g.dx)
    weights[[0, -1]] *= 0.5
    lag = np.arange(1 - g.n, g.n) * g.dx  # x_i - v_j at tap index i - j + n - 1
    # A tiny width overflows an exponent to inf, whose exp is the exact 0 wanted.
    with np.errstate(over="ignore"):
        left = np.exp(-2.0 * (c / max(sa, sb)) ** 2)  # the wider width sets both
        right = left * weights * psi.amplitudes
        if sa <= sb:
            u, w = lag / sa, lag / sb
            taps = np.exp(-(u - w) * (u + w) + 1j * q * lag)
        else:
            left = left * np.exp(1j * q * c)
            right = (right * np.exp(-1j * q * c))[::-1]
            # Against the reversed input, lag i - j pairs x_i with v_(n-1-j).
            total = c[0] + c[-1] + lag
            u, w = total / sb, total / sa
            taps = np.exp(-(u - w) * (u + w))
    band = np.flatnonzero(taps)
    lo, hi = (band[0], band[-1] + 1) if band.size else (0, 1)  # no band: a zero tap
    # np.convolve(right, taps) with the zero taps left out of the sum
    full = np.zeros(3 * g.n - 2, dtype=np.complex128)
    part = np.convolve(right, taps[lo:hi])
    full[lo : lo + part.size] = part
    return left * full[g.n - 1 : 2 * g.n - 1]


def _finish(grid: GridSpec, raw: np.ndarray) -> SampledWaveFunction:
    total = np.sum(np.abs(raw) ** 2) * grid.dx
    if total < ZERO_NORM_FLOOR:
        raise ZeroNormError(
            "the teleportation kernel annihilated the state for this outcome"
        )
    edge = (np.sum(np.abs(raw[:2]) ** 2) + np.sum(np.abs(raw[-2:]) ** 2)) * grid.dx
    if edge / total > _EDGE_MASS_LIMIT:
        raise GridTooNarrowError(
            f"{edge / total:.3g} of the output mass sits in the outermost bins; "
            "request a wider grid"
        )
    return SampledWaveFunction(grid, raw / np.sqrt(total))


def validate_span(
    grid: GridSpec, support_length: float, x3: float, sigma_b: object
) -> None:
    """Enforce the scenario span rule before running a teleportation.

    The grid must satisfy span >= 2 * (support + sqrt(2)*|x3| + 6*sigma_b),
    with the envelope term dropped for an ideal (infinite) sigma_b.
    """
    width = float(sigma_b) if np.isscalar(sigma_b) else 0.0
    required = 2.0 * (support_length + _SQRT2 * abs(x3) + 6.0 * width)
    if grid.span < required:
        raise GridTooNarrowError(
            f"grid span {grid.span:g} is below the required {required:g} "
            f"(support {support_length:g}, x3 {x3:g}, sigma_b {sigma_b!r})"
        )


# ---------------------------------------------------------------------------
# Full three-mode oracle
# ---------------------------------------------------------------------------


def oracle_teleport(
    psi: SampledWaveFunction,
    params: SqueezingParams,
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
    finite squeezing on both inputs.
    """
    g = psi.grid
    if g.n > ORACLE_MAX_POINTS:
        raise OracleGridTooLargeError(
            f"oracle grids are limited to n <= {ORACLE_MAX_POINTS}, got {g.n}"
        )
    if params.a_is_ideal or params.b_is_ideal:
        raise SentinelNotMaterializableError(
            "the full-state oracle requires finite squeezing on both inputs"
        )
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

    phi = epr_state(params, g).amplitudes
    phi_spec = _momentum_transform_along(phi, g, axis=0)
    eval_kernel = np.exp(1j * np.multiply.outer(arg2, ps)) * (dp / np.sqrt(_TWO_PI))
    phi_rot = (eval_kernel @ phi_spec).reshape(n, n, n)

    state = psi_rot[:, :, None] * phi_rot

    # Conditional displacement x5 -> x5 - sqrt(2)*x3, applied per x3 slice in
    # the momentum representation of x5.
    state = _momentum_transform_along(state, g, axis=2)
    state *= np.exp(-1j * np.multiply.outer(_SQRT2 * xs, ps))[:, None, :]
    state = _position_transform_along(state, g.conjugate(), g, axis=2)

    # Homodyne on mode 4 in the momentum representation, then the momentum
    # correction phase on x5.
    state = _momentum_transform_along(state, g, axis=1)
    state *= np.exp(1j * _SQRT2 * np.multiply.outer(ps, xs))[None, :, :]

    i3 = int(np.argmin(np.abs(xs - outcome.x3)))
    k4 = int(np.argmin(np.abs(ps - outcome.p4)))
    slice_ = state[i3, k4, :] * np.exp(-1j * xs[i3] * ps[k4])
    return normalize(SampledWaveFunction(g, slice_))


# ---------------------------------------------------------------------------
# Outcome distribution and sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeDistribution:
    """Tabulated joint density of (x3, p4) on a rectangular outcome grid."""

    x3_values: np.ndarray
    p4_values: np.ndarray
    density: np.ndarray
    x3_step: float
    p4_step: float

    def total(self) -> float:
        return float(self.density.sum() * self.x3_step * self.p4_step)

    def marginal_x3(self) -> np.ndarray:
        return self.density.sum(axis=1) * self.p4_step

    def sample(self, rng: np.random.Generator, count: int):
        """Draw (x3, p4) pairs: tabulated cells plus uniform in-cell jitter."""
        x3_idx, p4_idx = _sample_cells(
            self.density.ravel() * (self.x3_step * self.p4_step),
            rng,
            count,
            shape=self.density.shape,
        )
        x3 = self.x3_values[x3_idx] + (rng.random(count) - 0.5) * self.x3_step
        p4 = self.p4_values[p4_idx] + (rng.random(count) - 0.5) * self.p4_step
        return x3, p4


def _sample_cells(weights, rng, count, shape=None):
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    flat = np.searchsorted(cdf, rng.random(count), side="right")
    flat = np.minimum(flat, weights.size - 1)
    if shape is None:
        return flat
    return np.unravel_index(flat, shape)


def outcome_moments(psi_moments, params: SqueezingParams):
    """Analytic means and variances of (x3, p4) from the mode decomposition."""
    var_x1 = psi_moments.std_x**2
    var_p1 = psi_moments.std_p**2
    if params.a_is_ideal:
        var_xa, var_pa = 0.0, np.inf
    else:
        var_xa, var_pa = params.sigma_a**2 / 2.0, 1.0 / (2.0 * params.sigma_a**2)
    if params.b_is_ideal:
        var_xb, var_pb = np.inf, 0.0
    else:
        var_xb, var_pb = params.sigma_b**2 / 2.0, 1.0 / (2.0 * params.sigma_b**2)
    mean_x3 = psi_moments.mean_x / _SQRT2
    mean_p4 = psi_moments.mean_p / _SQRT2
    var_x3 = var_x1 / 2.0 + (var_xa + var_xb) / 4.0
    var_p4 = var_p1 / 2.0 + (var_pa + var_pb) / 4.0
    return mean_x3, var_x3, mean_p4, var_p4


def _lambda_coefficients(sigma_a: float, sigma_b: float):
    """Gaussian exponents of the x5-marginalized pair correlation.

    Integrating the squared two-mode resource over the remote coordinate
    leaves exp(-lam_d*(v-v')^2) * exp(-lam_s*(v+v'-2*sqrt(2)*x3)^2).
    """
    a = 1.0 / (4.0 * sigma_a**2)
    b = 1.0 / (4.0 * sigma_b**2)
    return (a + b) / 2.0, 2.0 * a * b / (a + b)


def _upsample(psi: SampledWaveFunction, factor: int) -> np.ndarray:
    """Band-limited upsampling by an integer factor (zero-padded spectrum)."""
    if factor == 1:
        return np.array(psi.amplitudes)
    g = psi.grid
    n, big = g.n, g.n * factor
    phi = to_momentum(psi)
    raw = np.fft.ifftshift(phi.amplitudes * np.exp(1j * phi.grid.points * g.x_min))
    spectrum = np.zeros(big, dtype=np.complex128)
    half = n // 2
    spectrum[:half] = raw[:half]
    spectrum[big - half :] = raw[half:]
    return np.fft.ifft(spectrum) * (big * g.dp / np.sqrt(_TWO_PI))


class _PairCorrelation:
    """psi(v) * conj(psi(v')) tabulated on sum/difference lattices.

    v = (s+d)/2 and v' = (s-d)/2 run over a band-limited upsampling of the
    input so that difference-coordinate structure narrower than the grid
    spacing (strong squeezing) is resolved exactly.
    """

    def __init__(self, psi: SampledWaveFunction, lam_d: float):
        g = psi.grid
        width_d = 1.0 / np.sqrt(2.0 * lam_d) if lam_d > 0 else np.inf
        factor = 2
        if width_d < 3.0 * g.dx:
            factor = int(2 ** np.ceil(np.log2(3.0 * g.dx / width_d)))
            factor = int(min(max(factor, 2), 1024))
        fine = _upsample(psi, factor)
        h = g.dx / factor
        big = g.n * factor

        # The product psi(v)*conj(psi(v-d)) vanishes once |d| exceeds the
        # support extent, so the difference lattice never needs to span more.
        nz = np.flatnonzero(psi.amplitudes)
        extent = (nz[-1] - nz[0] + 2) * g.dx if nz.size else g.span
        d_max = min(7.0 * width_d, extent, (g.n - 1) * g.dx)
        half_steps = int(np.ceil(d_max / (2.0 * h)))
        half_steps = max(1, min(half_steps, big // 2 - 1))

        # Row c of the window holds fine[c - half_steps : c + half_steps + 1]
        # (zero-padded), so column k pairs v = c + k - half_steps with its
        # mirror v' = c - k + half_steps.
        stride = max(1, factor // 4)
        win = np.lib.stride_tricks.sliding_window_view(
            np.pad(fine, half_steps), 2 * half_steps + 1
        )[::stride]
        self.table = win * np.conj(win[:, ::-1])  # (n_s, n_d)
        self.d_values = 2.0 * h * np.arange(-half_steps, half_steps + 1)
        self.s_values = 2.0 * g.x_min + 2.0 * h * np.arange(0, big, stride)
        self.s_weight = 2.0 * h * stride


def _outcome_density(
    psi: SampledWaveFunction, sigma_a: float, sigma_b: float, x3_values, p4_values
) -> np.ndarray:
    """Unnormalized density of (x3, p4) on the grid x3_values x p4_values.

    max(0, Re sum_d G(x3, d) exp(-lam_d*d^2) exp(-i*sqrt(2)*d*p4)), where G is
    the pair correlation summed over s under the envelope
    exp(-lam_s*(s - 2*sqrt(2)*x3)^2).  An ideal sigma_b (np.inf) gives
    lam_s = 0: the envelope is flat and any single x3 yields the p4 marginal.
    """
    lam_d, lam_s = _lambda_coefficients(sigma_a, sigma_b)
    pair = _PairCorrelation(psi, lam_d)
    env = np.exp(
        -lam_s * (pair.s_values[None, :] - 2.0 * _SQRT2 * x3_values[:, None]) ** 2
    )
    # Real and imaginary parts apart: env is real and never promoted to complex.
    G = (env @ pair.table.real + 1j * (env @ pair.table.imag)) * pair.s_weight
    phase = np.exp(-lam_d * pair.d_values**2)[:, None] * np.exp(
        -1j * _SQRT2 * np.multiply.outer(pair.d_values, p4_values)
    )
    density = np.clip(np.real(G @ phase), 0.0, None)
    if not density.sum() > 0.0:
        raise ZeroNormError("outcome density vanished on the outcome grid")
    return density


def build_outcome_distribution(
    psi: SampledWaveFunction,
    params: SqueezingParams,
    n_x3: int = 257,
    n_p4: int = 257,
) -> OutcomeDistribution:
    """Joint homodyne-outcome density for finite squeezing.

    The outcome grid covers +-6 analytic standard deviations around the
    analytic means.  The density is the x5-integrated squared amplitude of the
    pre-measurement state; the remote-mode integral is carried out in closed
    form and the remaining double quadrature runs over sum and difference
    coordinates of the input.
    """
    if params.a_is_ideal or params.b_is_ideal:
        raise SentinelNotMaterializableError(
            "the joint outcome distribution requires finite squeezing"
        )
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
    x3_values, x3_step = _centered_grid(mean_x3, np.sqrt(var_x3), n_x3)
    p4_values, p4_step = _centered_grid(mean_p4, np.sqrt(var_p4), n_p4)
    density = _outcome_density(psi, params.sigma_a, params.sigma_b, x3_values, p4_values)
    total = density.sum() * x3_step * p4_step
    return OutcomeDistribution(x3_values, p4_values, density / total, x3_step, p4_step)


def _centered_grid(mean: float, std: float, count: int):
    lo = mean - 6.0 * std
    step = 12.0 * std / count
    return lo + step * (np.arange(count) + 0.5), step


#: Cells of the tabulated marginal when a single outcome coordinate is drawn.
_MARGINAL_CELLS = 1025


def sample_outcomes(
    psi: SampledWaveFunction,
    params: SqueezingParams,
    seed: int,
    count: int,
):
    """Draw homodyne outcomes; deterministic given the seed.

    With finite squeezing both coordinates come from the joint tabulated
    density.  A single ideal width makes the conjugate outcome coordinate
    improper *and* irrelevant to its regime, so that coordinate is returned
    as exactly 0.0 while the proper one is sampled from its marginal density.
    Both widths ideal leave nothing samplable.
    """
    rng = np.random.default_rng(seed)
    if params.a_is_ideal and params.b_is_ideal:
        raise IdealChannelOutcomeUnboundedError(
            "the ideal channel has a flat, improper outcome distribution"
        )
    if not (params.a_is_ideal or params.b_is_ideal):
        return build_outcome_distribution(psi, params).sample(rng, count)
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
    if params.b_is_ideal:
        values, step = _centered_grid(mean_p4, np.sqrt(var_p4), _MARGINAL_CELLS)
        density = _outcome_density(psi, params.sigma_a, np.inf, np.zeros(1), values)[0]
    else:
        # No sub-grid structure enters here: the diagonal pair correlation is
        # just |psi(v)|^2 smoothed by the wide envelope, both resolved on the grid.
        values, step = _centered_grid(mean_x3, np.sqrt(var_x3), _MARGINAL_CELLS)
        lam_s = 1.0 / (2.0 * params.sigma_b**2)
        s = 2.0 * psi.grid.points
        env = np.exp(-lam_s * (s[None, :] - 2.0 * _SQRT2 * values[:, None]) ** 2)
        density = env @ psi.probability()
    idx = _sample_cells(density, rng, count)
    drawn = values[idx] + (rng.random(count) - 0.5) * step
    return (np.zeros(count), drawn) if params.b_is_ideal else (drawn, np.zeros(count))


def sample_outcome(
    psi: SampledWaveFunction, params: SqueezingParams, seed: int
) -> MeasurementOutcome:
    """Single outcome draw (see :func:`sample_outcomes`)."""
    x3, p4 = sample_outcomes(psi, params, seed, 1)
    return MeasurementOutcome(float(x3[0]), float(p4[0]))
