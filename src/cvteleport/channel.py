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
Each regime carries both widths, the ideal ones as class-level limits
(sigma_a = 0, sigma_b = inf), and one function (`_apply_kernel`) evaluates
the kernel at those widths: two Gaussian envelopes around one convolution.
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

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridTooNarrowError,
    IdealChannelOutcomeUnboundedError,
    OracleGridTooLargeError,
    OutcomeTooLargeError,
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

log = logging.getLogger(__name__)

_SQRT2 = np.sqrt(2.0)
_TWO_PI = 2.0 * np.pi

#: Largest grid the full three-mode oracle will accept (memory scales as n^3).
ORACLE_MAX_POINTS = 64

#: Largest estimated size of the arrays behind one outcome density: the pair
#: table over the envelope's window of s rows (a marginal's padded or refined
#: lattice), plus one envelope block; the fig9b joint density needs about 15 MB.
OUTCOME_MAX_BYTES = 1 << 30

#: Envelope elements (float64) built at once while an outcome density is
#: contracted: about 4 MB, whatever the window or the outcome grid.
_ENVELOPE_BLOCK = 1 << 19

#: Below this exponent np.exp is exactly 0 (the smallest subnormal is e^-744.4).
#: `_kernel_factors` evaluates the taps only above it and then flushes the
#: tap parts that fall below the smallest normal float64 (e^-708.4) to 0, so
#: the memoized taps the per-column sum reuses hold no subnormal operand.
_EXP_UNDERFLOW = -746.0

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

    sigma_a = 0.0
    sigma_b = np.inf


@dataclass(frozen=True)
class ConvolutionOnly:
    """Finite x-squeezing only: convolution with a narrow oscillatory Gaussian."""

    sigma_a: float
    sigma_b = np.inf

    def __post_init__(self):
        _require_width("sigma_a", self.sigma_a)


@dataclass(frozen=True)
class MultiplicationOnly:
    """Finite p-squeezing only: multiplication by a wide Gaussian envelope."""

    sigma_a = 0.0
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

    Every regime is the kernel at its two widths (``sigma_a`` = 0 and
    ``sigma_b`` = inf are the ideal limits); both ideal is the exact identity.
    Raises ZeroNormError when the kernel annihilates the state (a physically
    improbable outcome rendered numerically void rather than silently
    renormalized noise) and GridTooNarrowError when the output leaks into the
    outermost grid bins.
    """
    sigma_a, sigma_b = regime.sigma_a, regime.sigma_b
    if sigma_a == 0.0 and sigma_b == np.inf:
        return SampledWaveFunction(psi.grid, psi.amplitudes)
    return _finish(psi.grid, _apply_kernel(psi, sigma_a, sigma_b, outcome))


def _apply_kernel(
    psi: SampledWaveFunction, sigma_a: float, sigma_b: float, outcome: MeasurementOutcome
) -> np.ndarray:
    """The kernel applied to psi: two Gaussian envelopes around one convolution.

    With A = 1/(4 sigma_a^2), B = 1/(4 sigma_b^2), c = x - sqrt(2)*x3 and
    q = sqrt(2)*p4 the kernel factors exactly as
      A >= B: exp(-2B c_x^2) exp(-(A-B)(x-v)^2 + iq(x-v)) exp(-2B c_v^2),
      A <  B: exp(-2A c_x^2 + iq c_x) exp(-(B-A)(c_x+c_v)^2) exp(-2A c_v^2 - iq c_v);
    no factor exceeds 1, so none underflows where the kernel does not.

    sigma_b = inf (B = 0) leaves no envelope, and the middle factor acts
    through its exact transform: fft, the spectral factors of
    `_kernel_factors`, ifft.  Otherwise the envelopes are formed here and the
    Toeplitz (Hankel on the reversed input) middle factor is a direct sum
    over the band of taps `_kernel_factors` keeps: an FFT would smear
    rounding over envelopes spanning e^-100, and sigma_a = 0 (or far below
    the grid step) leaves the single tap at lag 0.  The sum carries no dx or
    trapezoid end weights: normalization absorbs the constant dx.  The
    factors depend on the grid, the widths and the outcome only, so the
    columns of an image, which share all of those, build them once.
    """
    g = psi.grid
    factors = _kernel_factors(g, sigma_a, sigma_b, outcome.x3, outcome.p4)
    if sigma_b == np.inf:
        before, window, after, scale = factors
        spectrum = np.fft.fft(psi.amplitudes)
        spectrum *= before
        spectrum *= window
        spectrum *= after
        return np.fft.ifft(spectrum) * scale
    taps, start = factors
    sa, sb = 2.0 * sigma_a, 2.0 * sigma_b
    c = g.points - _SQRT2 * outcome.x3
    # A tiny width sends c / width to inf, whose exp is the exact 0 wanted.
    with np.errstate(over="ignore"):
        left = np.exp(-2.0 * (c / max(sa, sb)) ** 2)  # the wider width sets both
    right = left * psi.amplitudes
    if sa > sb:
        q = _SQRT2 * outcome.p4
        left = left * np.exp(1j * q * c)
        right = (right * np.exp(-1j * q * c))[::-1]
    # np.convolve(right, taps) with the taps outside the band left out of the sum
    full = np.zeros(3 * g.n - 2, dtype=np.complex128)
    part = np.convolve(right, taps)
    full[start : start + part.size] = part
    return left * full[g.n - 1 : 2 * g.n - 1]


@functools.lru_cache(maxsize=1)
def _kernel_factors(grid: GridSpec, sigma_a: float, sigma_b: float, x3: float, p4: float):
    """The psi-independent factors of `_apply_kernel`, kept for the next call.

    sigma_b = inf: (before, window, after, scale) in FFT order, so that the
    kernel is ifft(fft(psi) * before * window * after) * scale, the forward
    transform's phase, the window exp(-sigma_a^2 (p - q)^2) and the inverse
    transform's phase of `to_momentum`/`to_position` without their shifts.
    The window's exponent is offset by its in-band minimum, so strongly
    off-band outcomes (huge p4, tiny sigma_a) tilt the spectrum exactly
    instead of underflowing.

    Finite sigma_b: (taps, start), the Toeplitz or Hankel taps from the first
    to the last nonzero one, tap k sitting at index start + k of the full
    convolution.  Their exponents are formed as -(u - w)(u + w), finite for
    any width, and exp runs only over the lags where the real exponent is
    above _EXP_UNDERFLOW.  Real or imaginary tap parts below the smallest
    normal float64 are set to zero, keeping the band's length: they add
    nothing a normal number can hold, and subnormal operands slow the sum
    about ninefold.  The arrays are read-only.
    """
    q = _SQRT2 * p4
    if sigma_b == np.inf:
        momentum = grid.conjugate()
        ps = momentum.points
        before = np.exp(-1j * ps * grid.x_min) * (grid.dx / np.sqrt(_TWO_PI))
        exponent = (sigma_a * (ps - q)) ** 2
        window = np.exp(-(exponent - exponent.min()))
        after = np.exp(1j * ps * grid.x_min)
        scale = momentum.dx * momentum.n / np.sqrt(_TWO_PI)
        factors = tuple(np.fft.ifftshift(f) for f in (before, window, after))
        for f in factors:
            f.setflags(write=False)
        return (*factors, scale)
    n, sa, sb = grid.n, 2.0 * sigma_a, 2.0 * sigma_b
    # x_i - v_j at tap index i - j + n - 1
    lag = np.arange(1 - n, n) * grid.dx
    # A tiny or zero width sends an exponent to inf, whose exp is the exact 0 wanted.
    with np.errstate(over="ignore", divide="ignore"):
        if sa <= sb:
            u = np.divide(lag, sa, out=np.zeros_like(lag), where=lag != 0.0)
            w = lag / sb
        else:
            # Against the reversed input, lag i - j pairs x_i with v_(n-1-j).
            total = (grid.x_min - _SQRT2 * x3) + (grid.x_max - _SQRT2 * x3) + lag
            u, w = total / sb, total / sa
        exponent = -(u - w) * (u + w)
    # Complex taps only where the real exponent leaves exp nonzero, then
    # trimmed to the nonzero ones: MultiplicationOnly keeps one of 2n - 1.
    live = np.flatnonzero(exponent > _EXP_UNDERFLOW)
    start, hi = (live[0], live[-1] + 1) if live.size else (0, 1)
    if sa <= sb:
        taps = np.exp(exponent[start:hi] + 1j * q * lag[start:hi])
    else:
        taps = np.exp(exponent[start:hi])
    band = np.flatnonzero(taps)
    if band.size:  # else the output is zero and _finish raises ZeroNormError
        taps = taps[band[0] : band[-1] + 1]
        start += band[0]
    parts = taps.view(np.float64)
    parts[np.abs(parts) < np.finfo(np.float64).tiny] *= 0.0  # zeros keep their sign
    taps.setflags(write=False)
    return taps, start


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
    with np.errstate(over="ignore", divide="ignore"):  # an extreme width gives inf
        square_a = np.float64(0.0 if params.a_is_ideal else params.sigma_a) ** 2
        square_b = np.float64(np.inf if params.b_is_ideal else params.sigma_b) ** 2
        var_xa, var_pa = square_a / 2.0, 1.0 / (2.0 * square_a)
        var_xb, var_pb = square_b / 2.0, 1.0 / (2.0 * square_b)
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


def _require_outcome_budget(nbytes: float) -> None:
    """Refuse an outcome density whose arrays would exceed OUTCOME_MAX_BYTES."""
    if not nbytes <= OUTCOME_MAX_BYTES:  # a NaN estimate is refused too
        raise OutcomeTooLargeError(
            f"the outcome density needs about {nbytes / 1e6:.0f} MB, over the "
            f"{OUTCOME_MAX_BYTES / 1e6:.0f} MB budget; use a grid with fewer points"
        )


def _envelope_block_rows(n_x3: int) -> int:
    """s rows per envelope block: about _ENVELOPE_BLOCK elements for n_x3 rows."""
    return max(1, _ENVELOPE_BLOCK // n_x3)


def _contract_envelope(rows, centres, lam: float, table) -> np.ndarray:
    """sum_r exp(-lam*(r - c)^2) * table[r] for each envelope centre c: (n_c, cols).

    The centres x rows envelope is never formed whole.  It is built in place
    one block of rows at a time, in one reused buffer of about
    _ENVELOPE_BLOCK elements, and each block is contracted with its rows of
    ``table`` as it is made.  Entries below the smallest normal float64 are
    built as exact zeros: a block whose farthest (row, centre) corner stays
    above that pays nothing, and in the others the exponents below its log
    go to -inf before exp, since subnormal operands slow the matmul severalfold.
    """
    t = np.asarray(centres)[:, None]
    t_min, t_max = t.min(), t.max()
    floor = np.log(np.finfo(np.float64).tiny)
    step = _envelope_block_rows(t.shape[0])
    out = np.zeros((t.shape[0], table.shape[1]))
    buffer = np.empty((t.shape[0], min(step, len(rows))))
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        env = buffer[:, : block.size]
        np.subtract(block[None, :], t, out=env)
        env **= 2
        env *= -lam
        if -lam * max(block[-1] - t_min, t_max - block[0]) ** 2 < floor:
            env[env < floor] = -np.inf
        np.exp(env, out=env)
        out += env @ table[lo : lo + step]
    return out


def _envelope_window(rows, centres, lam: float) -> slice:
    """The contiguous rows where some centre's envelope reaches float64 eps.

    exp(-lam*(r - c)^2) falls below eps times its peak once |r - c| exceeds
    R = sqrt(ln(1/eps)/lam), so rows outside [min c - R, max c + R] add less
    than one ulp of any centre's peak and are left out.
    """
    centres = np.asarray(centres)
    reach = np.sqrt(-np.log(np.finfo(np.float64).eps) / lam)
    lo = np.searchsorted(rows, centres.min() - reach, side="left")
    hi = np.searchsorted(rows, centres.max() + reach, side="right")
    return slice(int(lo), int(hi))


#: The largest lam_s * dx^2 for which `_dx_rows_alias_free` holds.
_ALIAS_FREE_BOUND = np.pi**2 / (4.0 * -np.log(np.finfo(np.float64).eps))


def _dx_rows_alias_free(lam_s: float, dx: float) -> bool:
    """Whether s rows spaced dx sum the enveloped pair correlation exactly.

    In s the pair correlation is band-limited to |w| <= pi/dx (where the
    input's interpolant has decayed before the grid's ends), and the
    envelope's spectrum falls off as exp(-w^2/(4*lam_s)).  Rows spaced dx
    alias the product's spectrum from 2*pi/dx, a gap of pi/dx beyond the
    band, so the sum misses the integral by less than eps of the peak while
    exp(-(pi/dx)^2/(4*lam_s)) <= eps.  The bound depends on the float
    format alone, as `_envelope_window` does.
    """
    return lam_s * dx**2 <= _ALIAS_FREE_BOUND


def _least_power_of_two(estimate: float, enough) -> float:
    """The least power of two F >= 1 for which enough(F) holds.

    ``estimate`` is the real F at which the test turns true, so F is
    2^ceil(log2(estimate)) up to the rounding of the estimate, which can
    leave it one doubling off either way; the exact test settles that.  An
    unbounded estimate gives inf.
    """
    with np.errstate(over="ignore"):
        factor = float(np.exp2(np.ceil(np.log2(max(estimate, 1.0)))))
    if factor > 1.0 and enough(factor / 2.0):
        return factor / 2.0
    return factor if enough(factor) else 2.0 * factor


class _PairCorrelation:
    """psi(v) * conj(psi(v')) tabulated on sum/difference lattices.

    v = (s+d)/2 and v' = (s-d)/2 run over the band-limited interpolant of the
    input at spacing h = dx/factor, so that difference-coordinate structure
    narrower than the grid spacing (strong squeezing) is resolved exactly:
    factor is the least power of two >= 2 that puts h within a third of the
    difference Gaussian's width 1/sqrt(2*lam_d).  A factor whose lattice
    indices would not fit int64 raises OutcomeTooLargeError.
    Row m and column o (|o| <= half_steps) pair the fine samples
    c = stride*m + o and stride*m - o, so the factor*n interpolant is never
    formed.  The s rows are spaced 2*h*stride: dx (stride = factor/2) when
    `_dx_rows_alias_free` holds for lam_s, else dx/2 (stride = factor/4); at
    factor 2 both give stride 1, and the bound always holds there.  For each
    residue r = o mod stride the samples fine[stride*m + r] are one inverse
    FFT of length rows = factor*n/stride of the native spectrum twiddled by
    exp(2*pi*i*k*r/(factor*n)); column o reads that phase shifted by
    floor(o/stride) rows, zero past either end.  Only the residues the
    columns use are transformed, at most min(stride, n_d) short transforms
    whatever the factor, and one when stride is 1.

    Only the s rows inside the sum envelope's window around ``centres``
    (2*sqrt(2)*x3 for each x3 row, see `_envelope_window`) are filled and
    kept.  The table over those rows, plus the one envelope block that
    `_contract_envelope` builds at a time, are estimated before anything is
    allocated and logged at DEBUG with the lattice; over OUTCOME_MAX_BYTES
    the constructor raises OutcomeTooLargeError.
    """

    def __init__(self, psi: SampledWaveFunction, lam_d: float, centres, lam_s: float):
        g = psi.grid
        width_d = 1.0 / np.sqrt(2.0 * lam_d)
        estimate = 3.0 * g.dx * np.sqrt(2.0 * lam_d)  # 3*dx/width_d, inf for width_d 0
        factor = max(2.0, _least_power_of_two(estimate, lambda f: 3.0 * g.dx / f <= width_d))
        if not g.n * factor <= np.iinfo(np.int64).max:
            raise OutcomeTooLargeError(f"a {factor:.3g}-fold outcome lattice overflows int64")
        factor = int(factor)
        h = g.dx / factor
        big = g.n * factor
        coarse = _dx_rows_alias_free(lam_s, g.dx)
        stride = max(1, factor // (2 if coarse else 4))
        rows = big // stride

        # The product psi(v)*conj(psi(v-d)) vanishes once |d| exceeds the
        # support extent, so the difference lattice never needs to span more.
        nz = np.flatnonzero(psi.amplitudes)
        extent = (nz[-1] - nz[0] + 2) * g.dx if nz.size else g.span
        d_max = min(7.0 * width_d, extent, (g.n - 1) * g.dx)
        half_steps = int(np.ceil(d_max / (2.0 * h)))
        half_steps = max(1, min(half_steps, big // 2 - 1))
        n_d = 2 * half_steps + 1
        self.s_weight = 2.0 * h * stride
        s_values = 2.0 * g.x_min + self.s_weight * np.arange(rows)
        window = _envelope_window(s_values, centres, lam_s)
        kept = window.stop - window.start
        block = min(kept, _envelope_block_rows(len(centres)))
        nbytes = kept * n_d * 16 + len(centres) * block * 8
        log.debug(
            "outcome density: factor %d, stride %d, s spacing %s, %d of %d s rows, "
            "n_d %d, about %.1f MB",
            factor, stride, "dx" if coarse else "dx/2", kept, rows, n_d, nbytes / 1e6,
        )
        _require_outcome_budget(nbytes)

        phi = to_momentum(psi)
        raw = np.fft.ifftshift(phi.amplitudes * np.exp(1j * phi.grid.points * g.x_min))
        k = np.fft.ifftshift(np.arange(g.n) - g.n // 2)  # signed frequency of raw
        scale = rows * g.dp / np.sqrt(_TWO_PI)

        def polyphase(r):
            """fine[stride*m + r] for m in [0, rows): one short inverse FFT."""
            spectrum = np.zeros(rows, dtype=np.complex128)
            twiddled = raw * np.exp(1j * (_TWO_PI * r / big) * k) if r else raw
            spectrum[: g.n // 2] = twiddled[: g.n // 2]
            spectrum[rows - g.n // 2 :] = twiddled[g.n // 2 :]
            return np.fft.ifft(spectrum) * scale

        # Column j holds o = j - half_steps: fine[stride*m + o] times the
        # conjugate of fine[stride*m - o], whose residues are r and -r.
        shift, residue = np.divmod(np.arange(-half_steps, half_steps + 1), stride)
        pairs = np.minimum(residue, -residue % stride)  # r and -r share their phases
        self.table = np.zeros((kept, n_d), dtype=np.complex128)  # (n_s, n_d)
        for r in np.unique(pairs).tolist():
            cols = np.flatnonzero(pairs == r)
            phases = {rr: polyphase(rr) for rr in {r, -r % stride}}
            for j in cols:
                a, b = shift[j], shift[-1 - j]
                lo = max(window.start, -a, -b)
                hi = max(lo, min(window.stop, rows - max(0, a, b)))
                np.multiply(
                    phases[residue[j]][lo + a : hi + a],
                    np.conj(phases[residue[-1 - j]][lo + b : hi + b]),
                    out=self.table[lo - window.start : hi - window.start, j],
                )
        self.d_values = 2.0 * h * np.arange(-half_steps, half_steps + 1)
        self.s_values = s_values[window]


def _outcome_density(
    psi: SampledWaveFunction, sigma_a: float, sigma_b: float, x3_values, p4_values
) -> np.ndarray:
    """Unnormalized density of (x3, p4) on the grid x3_values x p4_values.

    max(0, Re sum_d G(x3, d) exp(-lam_d*d^2) exp(-i*sqrt(2)*d*p4)), where G is
    the pair correlation summed over s under the envelope
    exp(-lam_s*(s - 2*sqrt(2)*x3)^2), over the s rows where some x3's envelope
    reaches float64 eps of its peak.
    """
    lam_d, lam_s = _lambda_coefficients(sigma_a, sigma_b)
    centres = 2.0 * _SQRT2 * x3_values
    pair = _PairCorrelation(psi, lam_d, centres, lam_s)
    # Real matmuls over the interleaved real and imaginary table columns.
    G = _contract_envelope(pair.s_values, centres, lam_s, pair.table.view(np.float64))
    G = G.view(np.complex128) * pair.s_weight
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
    """``count`` cells over mean +- 6 std; a spread that overflows is refused."""
    if not np.isfinite(12.0 * std):
        raise OutcomeTooLargeError(f"an outcome spread of {std:.3g} cannot be tabulated")
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
    mean, var = (mean_p4, var_p4) if params.b_is_ideal else (mean_x3, var_x3)
    values, step = _centered_grid(mean, np.sqrt(var), _MARGINAL_CELLS)
    idx = _sample_cells(_marginal_density(psi, params, values), rng, count)
    drawn = values[idx] + (rng.random(count) - 0.5) * step
    return (np.zeros(count), drawn) if params.b_is_ideal else (drawn, np.zeros(count))


def _marginal_density(
    psi: SampledWaveFunction, params: SqueezingParams, values
) -> np.ndarray:
    """Unnormalized density of the one random outcome coordinate at ``values``.

    A 1-D weight under one Gaussian, sum_r weight(r) * exp(-lam*(r - c)^2):
    x3 (ideal sigma_a) is |psi(x)|^2 on rows r = 2x with lam = 1/(2 sigma_b^2)
    and c = 2*sqrt(2)*x3; p4 (ideal sigma_b) is |phi(k)|^2 on rows r = k with
    lam = 2 sigma_a^2 and c = sqrt(2)*p4.  The rows sit on a lattice
    ``factor`` (a power of two) times finer than the grid's, the least that
    sums the weight exactly: x3 refines |psi|^2 to its band-limited
    interpolant at the coarsest dx/factor where `_dx_rows_alias_free` holds,
    and p4 zero-pads the input to the least span that holds the input's
    extent plus 2*sqrt(lam*ln(1/eps)), the reach of the Gaussian's
    transform, so the autocorrelation behind |phi|^2 does not wrap under it.
    Both factors follow in closed form, and the arrays they need are checked
    against OUTCOME_MAX_BYTES once, before anything is allocated.
    """
    g = psi.grid
    p4_only = params.b_is_ideal
    if p4_only:
        lam, centres = 2.0 * params.sigma_a**2, _SQRT2 * values
        support = np.flatnonzero(psi.amplitudes)
        reach = 2.0 * np.sqrt(lam * -np.log(np.finfo(np.float64).eps))
        span_needed = (support[-1] - support[0] + 1) * g.dx + reach
        factor = _least_power_of_two(
            span_needed / g.span, lambda f: g.span * f >= span_needed
        )
    else:
        lam, centres = 1.0 / (2.0 * params.sigma_b**2), 2.0 * _SQRT2 * values
        factor = _least_power_of_two(
            np.sqrt(lam * g.dx**2 / _ALIAS_FREE_BOUND),
            lambda f: _dx_rows_alias_free(lam, g.dx / f),
        )
    # Per lattice point: the transform and its input (complex), the weights
    # and the rows; plus one envelope block.
    _require_outcome_budget(
        g.n * factor * 48 + len(values) * _envelope_block_rows(len(values)) * 8
    )
    factor = int(factor)
    if p4_only:
        weights = np.fft.fftshift(np.abs(np.fft.fft(psi.amplitudes, g.n * factor)) ** 2)
        rows = GridSpec(g.x_min, g.dx, g.n * factor).conjugate().points
    elif factor == 1:
        weights, rows = psi.probability(), 2.0 * g.points
    else:  # the interpolant's spectrum is the native one, zero-padded
        spectrum = np.fft.fft(psi.amplitudes)
        fine = np.zeros(g.n * factor, dtype=np.complex128)
        fine[: g.n // 2] = spectrum[: g.n // 2]
        fine[-(g.n // 2) :] = spectrum[g.n // 2 :]
        weights = np.abs(np.fft.ifft(fine)) ** 2
        rows = 2.0 * GridSpec(g.x_min, g.dx / factor, g.n * factor).points
    # Rows whose weight is exactly 0 add nothing either: leave them out too.
    nz = np.flatnonzero(weights)
    window = _envelope_window(rows, centres, lam)
    lo = max(window.start, nz[0])
    window = slice(lo, max(lo, min(window.stop, nz[-1] + 1)))
    log.debug(
        "outcome marginal: %s, lattice factor %d, %d of %d rows",
        "p4" if p4_only else "x3", factor, window.stop - window.start, rows.size,
    )
    density = _contract_envelope(rows[window], centres, lam, weights[window, None])[:, 0]
    if not density.sum() > 0.0:
        raise ZeroNormError("outcome density vanished on the outcome grid")
    return density


def sample_outcome(
    psi: SampledWaveFunction, params: SqueezingParams, seed: int
) -> MeasurementOutcome:
    """Single outcome draw (see :func:`sample_outcomes`)."""
    x3, p4 = sample_outcomes(psi, params, seed, 1)
    return MeasurementOutcome(float(x3[0]), float(p4[0]))
