"""The teleportation channel: kernel regimes and outcome statistics.

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
the kernel at those widths: two Gaussian envelopes around one FFT product.

Outcome statistics follow from the beam-splitter mode relations
x3 = x1/sqrt(2) + (x_a - x_b)/2 and p4 = p1/sqrt(2) + (p_b - p_a)/2 with the
exact Gaussian source spreads Var(x_a) = sigma_a^2/2, Var(p_a) = 1/(2 sigma_a^2)
(likewise for b); an ideal width pins its source quadrature to exactly zero
and makes the conjugate outcome coordinate improper.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    GridTooNarrowError,
    IdealChannelOutcomeUnboundedError,
    OutcomeTooLargeError,
    ZeroNormError,
)
from .grid import (
    GridSpec,
    SampledWaveFunction,
    ZERO_NORM_FLOOR,
    moments,
)

log = logging.getLogger(__name__)

_SQRT2 = np.sqrt(2.0)
_TWO_PI = 2.0 * np.pi

#: Largest estimated size of the arrays behind one outcome density, joint or
#: marginal: the input's interpolant when its rows are refined, one block of
#: windowed rows and their transforms, the lag tables and the output; the
#: fig9b joint density needs about 2 MB.
OUTCOME_MAX_BYTES = 1 << 30

#: Momenta of a 2n window built at once: it is applied in blocks, never held
#: whole beside the spectrum.
_WINDOW_BLOCK = 1 << 13

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


def _require_width(name: str, value) -> None:
    if not (np.isscalar(value) and np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite width")


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


def regime_for(sigma_a: float, sigma_b: float) -> KernelRegime:
    """The kernel regime of the source widths sigma_a and sigma_b.

    sigma_a = 0 and sigma_b = inf are the ideal limits (an infinitely
    squeezed beam): the limits present name the regime, which carries both
    widths as given.  Any other width must be positive and finite: a
    negative or NaN width, sigma_a = inf or sigma_b = 0 raises ValueError.
    """
    if sigma_a == 0.0 and sigma_b == np.inf:
        return Ideal()
    if sigma_b == np.inf:
        return ConvolutionOnly(sigma_a)
    if sigma_a == 0.0:
        return MultiplicationOnly(sigma_b)
    return General(sigma_a, sigma_b)


def teleport(
    psi: SampledWaveFunction, regime: KernelRegime, outcome: MeasurementOutcome
) -> SampledWaveFunction:
    """Teleported state for one measurement outcome, normalized.

    Every regime is the kernel at its two widths (``sigma_a`` = 0 and
    ``sigma_b`` = inf are the ideal limits); both ideal return psi itself.
    Raises ZeroNormError when the kernel annihilates the state (a physically
    improbable outcome rendered numerically void rather than silently
    renormalized noise) and GridTooNarrowError when the output leaks into the
    outermost grid bins.
    """
    sigma_a, sigma_b = regime.sigma_a, regime.sigma_b
    if sigma_a == 0.0 and sigma_b == np.inf:
        return psi
    return _finish(psi.grid, _apply_kernel(psi, sigma_a, sigma_b, outcome))


# A tiny width sends an exponent to -inf, whose exp is the exact 0 wanted, and
# an overflowing tilt to NaN, which the growth check below refuses.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _apply_kernel(
    psi: SampledWaveFunction, sigma_a: float, sigma_b: float, outcome: MeasurementOutcome
) -> np.ndarray:
    """The kernel applied to psi: two Gaussian envelopes around one FFT product.

    With A = 1/(4 sigma_a^2), B = 1/(4 sigma_b^2), T = sqrt(2)*x3 and
    q = sqrt(2)*p4, the kernel is, up to a positive constant,
      A >= B: exp(-2B (x-c)^2) k(x-v) exp(-2B (v-T)^2 + a (v-x0)),
              k(u) = exp(-(A-B) u^2 + (a + iq) u);
      A <  B: exp(-2A (x-c)^2 + iq (x-x0)) m(x+v-2T)
              * exp(-2A (v-T)^2 + a (v-x0) - iq (v-x0)),
              m(s) = exp(-(B-A) s^2 - a s), Toeplitz on the reversed input.
    With s = 2 min(A, B)/(A + B), c = x0 + s (T - x0) (x0 mirrored to 2T - x0
    when A < B) is where the output of an input at x0 peaks, and the tilt
    a = 4 min(A, B) (1 - s) (T - x0) makes up the move from T and shifts the
    middle Gaussian.  x0 is where |psi(v)| exp(-2 (2 - s) min(A, B) (v-T)^2)
    peaks, so the right factor (1 at x0) times |psi| grows from its value at x0
    at most as exp(2 min(A, B) (1 - s) (v-x0)^2) however far T is; past 1/eps
    the transform would keep no digit of the output: the outcome is void.  The
    middle Gaussian is one circular FFT product over the grid's samples, on
    2n points (n for sigma_b = inf, which leaves no envelope), with its
    transform as window: it is band-limited like the input, so the output
    does not depend on whether the grid resolves sigma_a.  A window that is
    not small at +-pi/dx wraps its band-limited tail.  Wider than a tenth of
    the span it would alias, and takes its taps' transform.  A q that float64
    cannot place on the window's lattice is far: the window keeps the band
    edge on its side, and a Hankel outcome is void.  Entries below
    eps of the largest are rounding and set to 0.  sigma_a = 0 (A = inf)
    leaves no transform, and x0 = T keeps the envelope absolute.
    """
    g = psi.grid
    t, q = _SQRT2 * outcome.x3, _SQRT2 * outcome.p4
    narrow, wide = min(sigma_a, sigma_b), max(sigma_a, sigma_b)
    hankel = sigma_a > sigma_b
    ratio = narrow / wide
    share = 2.0 * ratio**2 / (1.0 + ratio**2)
    size = g.n if wide == np.inf else 2 * g.n
    step = _TWO_PI / (size * g.dx)  # the window's momentum step
    # Past a float spacing of q above the step (or an overflowing q), p - q
    # rounds every in-band momentum alike, and q's own rounding can turn
    # exp(+-iq(x - x0)) or the taps' exp(iqu) by a quarter turn across the span.
    far = not np.spacing(abs(q)) <= step
    if hankel and far:  # phases with no reliable digit: the outcome is void
        return np.zeros(g.n, dtype=np.complex128)
    if wide == np.inf:
        right, tilt = psi.amplitudes, 0.0
    else:
        x = g.points
        exponent = -2.0 * ((x - t) / (2.0 * wide)) ** 2  # the envelope at T
        x0, growth = t, 0.0
        if sigma_a > 0.0:
            log_psi = np.log(np.abs(psi.amplitudes))
            peak = np.argmax(log_psi + (2.0 - share) * exponent)
            x0 = x[peak]
        tilt = (t - x0) / wide / wide * (1.0 - share)
        exponent += tilt * (x - x0) + 2.0 * ((x0 - t) / (2.0 * wide)) ** 2  # 1 at x0
        if sigma_a > 0.0:  # NaN where the envelope annihilates the state
            growth = np.max(exponent + log_psi) - log_psi[peak]
            del log_psi
        if not growth <= _LOG_EPS:  # past 1/eps: the outcome is void
            return np.zeros(g.n, dtype=np.complex128)
        np.fmin(exponent, _LOG_EPS, out=exponent)  # exp(inf) * 0 is NaN
        if hankel:
            exponent = exponent - 1j * q * (x - x0)
        right = np.exp(exponent) * psi.amplitudes
        del exponent
    if narrow > 0.0:
        width = narrow / np.sqrt((1.0 - ratio) * (1.0 + ratio))
        # On the reversed input, lag u pairs x with v = x_min + x_max - x + u:
        # the Hankel Gaussian's argument x + v - 2T is u - lag0.
        lag0, wave = (2.0 * t - g.x_min - g.x_max, 0.0) if hankel else (0.0, q)
        tilt = -tilt if hankel else tilt
        spectrum = np.fft.fft(right[::-1] if hankel else right, size)
        del right
        if wide < np.inf and 2.0 * width > 0.1 * g.span and not far:
            lag = g.dx * np.fft.fftfreq(size, 1.0 / size) - lag0
            real = tilt * lag - (lag / (2.0 * width)) ** 2
            taps = np.exp(real - real.max() + 1j * wave * (lag + lag0))
            spectrum *= np.fft.fft(taps, out=taps)
            del lag, real, taps
        else:
            # exp(-width^2 (p - wave)^2 - i (p - wave) shift), offset by its
            # in-band maximum: far off band it tilts instead of underflowing
            shift = lag0 + width * (2.0 * width * tilt)
            p = np.arange(size, dtype=np.float64)  # fftfreq would hold an int copy
            p[size // 2 :] -= size
            p *= step
            # Measured from q clipped to the band, -width^2 (p - edge)(p - edge
            # + 2 (edge - q)): an off-band q then cancels no (width (p - q))^2
            # terms, and a far q is out of the differences.
            edge = min(max(wave, p[size // 2]), p[size // 2 - 1])
            reach = width * (2.0 * (edge - wave))
            turn = 0.0 if far else edge - wave  # the phase stays referenced to q
            p -= edge
            nearest = np.abs(p).min()
            floor = np.inf if abs(reach) == np.inf else (width * nearest) ** 2
            for lo in range(0, size, _WINDOW_BLOCK):
                part = p[lo : lo + _WINDOW_BLOCK]
                if floor == np.inf:  # the nearest momenta alone
                    exponent = np.where(np.abs(part) == nearest, 0.0, -np.inf)
                else:  # reach is 0 in band, and floor 0 off it
                    exponent = floor - (width * part) * (width * part + reach)
                if shift:
                    exponent = exponent - 1j * shift * (part + turn)
                spectrum[lo : lo + _WINDOW_BLOCK] *= np.exp(exponent)
            del p, part, exponent
        # unscaled: normalization absorbs the 1/size
        right = np.fft.ifft(spectrum, norm="forward", out=spectrum)[: g.n]
    out = right
    if wide < np.inf:
        origin = 2.0 * t - x0 if hankel else x0
        centre = origin + (t - origin) * share
        left = -2.0 * ((x - centre) / (2.0 * wide)) ** 2
        out = np.exp(left + 1j * q * (x - x0) if hankel else left) * right
    magnitude = np.abs(out)
    out[magnitude < np.finfo(np.float64).eps * magnitude.max()] = 0.0
    return out


def _finish(grid: GridSpec, raw: np.ndarray) -> SampledWaveFunction:
    total = np.sum(np.abs(raw) ** 2) * grid.dx
    # NaN where the kernel sits too far out for float64, which leaves nothing
    if not total >= ZERO_NORM_FLOOR:
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
    grid: GridSpec, support_length: float, x3: float, sigma_b: float
) -> None:
    """Enforce the scenario span rule before running a teleportation.

    The grid must satisfy span >= 2 * (support + sqrt(2)*|x3| + 6*sigma_b),
    with the envelope term dropped for an ideal (infinite) sigma_b.
    """
    width = sigma_b if sigma_b < np.inf else 0.0
    with np.errstate(over="ignore"):  # a huge x3 needs an infinite span, which none has
        required = 2.0 * (support_length + _SQRT2 * abs(x3) + 6.0 * width)
    if grid.span < required:
        raise GridTooNarrowError(
            f"grid span {grid.span:g} is below the required {required:g} "
            f"(support {support_length:g}, x3 {x3:g}, sigma_b {sigma_b!r})"
        )


# ---------------------------------------------------------------------------
# Outcome distribution and sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeDistribution:
    """Tabulated density of (x3, p4) on a rectangular outcome grid.

    An improper coordinate is one cell at 0 with step 0; it adds no measure
    to a cell and is never jittered.
    """

    x3_values: np.ndarray
    p4_values: np.ndarray
    density: np.ndarray
    x3_step: float
    p4_step: float

    def total(self) -> float:
        return float(self.density.sum() * (self.x3_step or 1.0) * (self.p4_step or 1.0))

    def sample(self, rng: np.random.Generator, count: int):
        """Draw (x3, p4) pairs: tabulated cells plus uniform in-cell jitter.

        The cells take one uniform per draw, then each proper axis, x3 before
        p4, one more; an improper coordinate comes back as exactly 0.0.
        """
        cells = np.unravel_index(
            _sample_cells(self.density.ravel(), rng, count), self.density.shape
        )
        steps = (self.x3_step, self.p4_step)
        return tuple(
            values[idx] + (rng.random(count) - 0.5) * step if step else values[idx]
            for values, idx, step in zip((self.x3_values, self.p4_values), cells, steps)
        )


def _sample_cells(weights, rng, count):
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    flat = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(flat, weights.size - 1)


def outcome_moments(psi_moments, regime: KernelRegime):
    """Analytic means and variances of (x3, p4) from the mode decomposition."""
    var_x1 = psi_moments.std_x**2
    var_p1 = psi_moments.std_p**2
    with np.errstate(over="ignore", divide="ignore"):  # an extreme width gives inf
        square_a = np.float64(regime.sigma_a) ** 2
        square_b = np.float64(regime.sigma_b) ** 2
        var_xa, var_pa = square_a / 2.0, 1.0 / (2.0 * square_a)
        var_xb, var_pb = square_b / 2.0, 1.0 / (2.0 * square_b)
    mean_x3 = psi_moments.mean_x / _SQRT2
    mean_p4 = psi_moments.mean_p / _SQRT2
    var_x3 = var_x1 / 2.0 + (var_xa + var_xb) / 4.0
    var_p4 = var_p1 / 2.0 + (var_pa + var_pb) / 4.0
    return mean_x3, var_x3, mean_p4, var_p4


def _lambda_coefficients(sigma_a: float, sigma_b: float):
    """(lam_s, mu): the Gaussian exponents of the x5-marginalized resource.

    With a = 1/(4 sigma_a^2), b = 1/(4 sigma_b^2) and t = sqrt(2)*x3,
    integrating the squared two-mode resource over the remote coordinate
    leaves exp(-2*lam_s*((v - t)^2 + (v' - t)^2)) * exp(-mu*(v - v')^2), with
    lam_s = 2ab/(a+b) and mu = (a-b)^2/(2(a+b)).  Both are formed from the
    larger of a and b and their ratio, in float64, so that nothing cancels
    when the widths are close and nothing overflows when they are extreme.
    The ideal widths are limits: sigma_a = 0 (a = inf) gives mu = inf, the
    x3-only draw, and sigma_b = inf (b = 0) gives lam_s = 0, the p4-only
    draw; a width whose square over- or underflows goes the same way.
    """
    with np.errstate(over="ignore", divide="ignore"):
        a = 1.0 / (4.0 * np.float64(sigma_a) ** 2)
        b = 1.0 / (4.0 * np.float64(sigma_b) ** 2)
    lo, hi = min(a, b), max(a, b)
    if hi == 0.0:
        return 0.0, 0.0
    if hi == np.inf:
        return 2.0 * lo, np.inf
    ratio, gap = lo / hi, (hi - lo) / hi
    return 2.0 * lo / (1.0 + ratio), hi * gap * gap / (2.0 * (1.0 + ratio))


def _require_outcome_budget(nbytes: float) -> None:
    """Refuse an outcome density whose arrays would exceed OUTCOME_MAX_BYTES."""
    if not nbytes <= OUTCOME_MAX_BYTES:  # a NaN estimate is refused too
        raise OutcomeTooLargeError(
            f"the outcome density needs about {nbytes / 1e6:.0f} MB, over the "
            f"{OUTCOME_MAX_BYTES / 1e6:.0f} MB budget; use a grid with fewer points"
        )


#: ln(1/eps) for float64: a Gaussian exp(-lam*u^2) is below eps of its peak
#: once lam*u^2 exceeds it.
_LOG_EPS = -np.log(np.finfo(np.float64).eps)


def _dx_rows_alias_free(lam: float, h: float) -> bool:
    """Whether rows spaced h sample the window exp(-lam*u^2) without alias.

    The window's spectrum falls off as exp(-w^2/(4*lam)), and it is below
    eps of its peak at w = pi/h while exp(-(pi/h)^2/(4*lam)) <= eps.  A
    windowed input that the grid resolves is then band-limited to pi/h, so
    its samples at h give its autocorrelation, and the outcome density,
    exactly.  The bound depends on the float format alone.
    """
    return lam * h**2 <= np.pi**2 / (4.0 * _LOG_EPS)


#: Elements of windowed rows and transforms built at once: the x3 rows of an
#: outcome density go through in blocks of about this many, which stay in cache.
_TRANSFORM_BLOCK = 1 << 14


def _outcome_density(
    psi: SampledWaveFunction, sigma_a: float, sigma_b: float, x3_values, p4_values
) -> np.ndarray:
    """Unnormalized density of (x3, p4) on the grid x3_values x p4_values.

    With t = sqrt(2)*x3, q = sqrt(2)*p4 and (lam_s, mu) from
    `_lambda_coefficients`, the density is the input's autocorrelation
    under a window in x3 and a smoothing in p4:

        D(t, q) = int A_t(d) exp(-mu*d^2) exp(-i*q*d) dd,

    A_t the autocorrelation of f_t(v) = psi(v) * exp(-2*lam_s*(v - t)^2).
    The widths are the regime's, 0 and inf for the ideal ones, so the
    single-coordinate draws are limits: sigma_b = inf (lam_s = 0) leaves one
    window for every x3, and sigma_a = 0 (mu = inf) leaves the lag 0 alone,
    sum_v |f_t(v)|^2, with no transform.

    Rows: v runs at h = dx/F, F the least power of two for which
    `_dx_rows_alias_free(2*lam_s, h)` holds.  At F = 1 they are the input's
    own samples from its first to its last nonzero one; at F > 1, the
    band-limited interpolant from one zero-padded FFT.  Each x3 reads only
    the rows within R = sqrt(ln(1/eps)/(2*lam_s)) of t, where the window
    reaches eps of its peak, at most ``rows`` of them.  Lags: each block of x3
    rows takes one FFT per row, of length N the least power of two
    >= rows + d_max/h, so that no lag up to d_max wraps; P = |FFT|^2 gives
    A_t(d) = sum_k P(k) exp(i*k*d) at d = m*h_d for
    0 <= d <= d_max = min(sqrt(ln(1/eps)/mu), rows*h), with
    h_d = 2*pi/(max|q| + pi/h + 2*sqrt(mu*ln(1/eps))), the step at which the
    lag sum does not alias.  A q farther than pi/h + 2*sqrt(mu*ln(1/eps))
    from 0, where the smoothed band of |F_t|^2 is below eps, has density 0
    and is left out of that max; when every q is, the density vanishes.
    A_t(-d) = conj A_t(d), so the lag sum is real: two real matmuls.  The
    input is read as its samples: exact on inputs the grid resolves, while a
    sharply cut one keeps band-edge content that the samples fold back.

    The arrays (the interpolant, one block of rows and transforms, the lag
    tables and the output) are estimated, logged at DEBUG and checked
    against OUTCOME_MAX_BYTES before anything is allocated.
    """
    g = psi.grid
    lam_s, mu = _lambda_coefficients(sigma_a, sigma_b)
    # The flat window (lam_s = 0) reads no x3, and a huge one would square to
    # inf.  A coordinate past float64's range over sqrt(2) goes to inf, whose
    # density is 0.
    with np.errstate(over="ignore"):
        t = _SQRT2 * (np.asarray(x3_values, dtype=float) * (lam_s > 0.0))
        q = _SQRT2 * np.asarray(p4_values, dtype=float)
    # A window no lattice resolves starts at inf: lam_s * h^2 would be inf * 0.
    factor = np.inf if lam_s == np.inf else 1.0
    while factor < np.inf and not _dx_rows_alias_free(2.0 * lam_s, g.dx / factor):
        factor *= 2.0
    if factor == np.inf:
        _require_outcome_budget(np.inf)
    support = np.flatnonzero(psi.amplitudes)
    available = support[-1] - support[0] + 1 if factor == 1.0 else g.n * factor
    h = g.dx / factor
    band, smoothing = np.pi / h, 2.0 * np.sqrt(mu * _LOG_EPS)
    near = np.abs(q) <= band + smoothing
    if not near.any():
        raise ZeroNormError("outcome density vanished on the outcome grid")
    with np.errstate(divide="ignore"):
        reach = np.sqrt(_LOG_EPS / (2.0 * lam_s))
        rows = min(available, np.floor(2.0 * reach / h) + 1.0)
        if mu == np.inf:
            size, lags = 0.0, 1.0
        else:
            d_max = min(np.sqrt(_LOG_EPS / mu), rows * h)
            step = _TWO_PI / (np.abs(q[near]).max() + band + smoothing)
            lags = np.floor(d_max / step) + 1.0
            size = 1 << (int(np.ceil(rows + d_max / h)) - 1).bit_length()
    block = max(1.0, min(t.size, _TRANSFORM_BLOCK // (rows + size)))
    nbytes = (
        (40.0 * available if factor > 1.0 else 0.0)  # interpolant and its spectrum
        + 40.0 * block * (rows + size)  # windowed rows, transforms and powers
        + 40.0 * lags * (size + q.size)  # the lag tables
        + 8.0 * t.size * (q.size + 2.0 * lags)  # the lag sums and the density
    )
    drawn = [name for name, size in (("x3", t.size), ("p4", q.size)) if size > 1]
    coordinates = " and ".join(drawn) or "no coordinate"
    log.debug(
        "outcome density: %s, F %d, rows %d, N %d, lags %d, about %.1f MB",
        coordinates, factor, rows, size, lags, nbytes / 1e6,
    )
    _require_outcome_budget(nbytes)

    factor, rows, size, lags, block = (int(v) for v in (factor, rows, size, lags, block))
    if factor == 1:
        data, x0 = psi.amplitudes[support[0] : support[-1] + 1], g.points[support[0]]
    else:  # the interpolant's spectrum is the native one, zero-padded
        spectrum = np.fft.fft(psi.amplitudes)
        data = np.zeros(g.n * factor, dtype=np.complex128)
        data[: g.n // 2] = spectrum[: g.n // 2]
        data[-(g.n // 2) :] = spectrum[g.n // 2 :]
        data, x0 = np.fft.ifft(data), g.x_min
    if mu == np.inf:  # the lag 0 alone: sum |psi|^2 under the window's square
        data, lam = np.abs(data) ** 2, 4.0 * lam_s
    else:
        lam = 2.0 * lam_s
        k = _TWO_PI * np.fft.fftfreq(size, h)
        d = step * np.arange(lags)
        kd, qd = np.multiply.outer(k, d), np.multiply.outer(d, q[near])
        table = np.hstack([np.cos(kd), np.sin(kd)])  # A_t(d) = P @ table, cos then sin
        weights = np.vstack([np.cos(qd), np.sin(qd)])  # Re A cos(qd) + Im A sin(qd)
        weights *= np.tile(np.where(d > 0.0, 2.0, 1.0) * np.exp(-mu * d**2), 2)[:, None]
    first = np.clip(np.ceil((t - reach - x0) / h), 0, available - rows).astype(np.intp)
    windows = np.lib.stride_tricks.sliding_window_view(data, rows)
    density = np.zeros((t.size, q.size))
    for lo in range(0, t.size, block):
        part = slice(lo, lo + block)
        # The window over each x3's rows.  Rows past the reach (a window
        # wider than the data is slid back onto it) are set to 0 rather than
        # sent through exp, which is severalfold slower where it underflows.
        window = (x0 + first[part] * h - t[part])[:, None] + np.arange(rows) * h
        with np.errstate(over="ignore"):  # a far x3 squares to inf, outside the reach
            window *= window
        inside = window <= reach**2
        np.minimum(window, reach**2, out=window)
        window *= -lam
        np.exp(window, out=window)
        window *= inside
        if mu == np.inf:
            density[part, 0] = np.einsum("ij,ij->i", windows[first[part]], window)
            continue
        spectrum = np.fft.fft(windows[first[part]] * window, size)
        power = spectrum.real**2 + spectrum.imag**2
        density[part, near] = (power @ table) @ weights
    if not density.sum() > 0.0:
        raise ZeroNormError("outcome density vanished on the outcome grid")
    return density


#: Cells of each axis of the tabulated joint density of (x3, p4).
_JOINT_CELLS = 257

#: Cells of the tabulated marginal when a single outcome coordinate is proper.
_MARGINAL_CELLS = 1025


def build_outcome_distribution(
    psi: SampledWaveFunction, regime: KernelRegime, x3=None, p4=None
) -> OutcomeDistribution:
    """Homodyne-outcome density of every coordinate left to draw.

    The outcome grid covers +-6 analytic standard deviations around the
    analytic means.  The density is the x5-integrated squared amplitude of the
    pre-measurement state: the remote-mode integral is carried out in closed
    form, which leaves the input's windowed autocorrelation of
    `_outcome_density`.  A coordinate fixed by ``x3`` or ``p4`` is one cell
    at its value with step 0, so the other is drawn given it.  An ideal width
    makes the conjugate coordinate improper and irrelevant to its regime
    (sigma_b = inf: x3, sigma_a = 0: p4); unless fixed, it is one cell at 0
    with step 0.  A single coordinate left to draw gets _MARGINAL_CELLS cells,
    two get _JOINT_CELLS each.  Both widths ideal leave nothing to tabulate.
    A fixed coordinate must be finite, as in `MeasurementOutcome`.
    """
    if not all(np.isfinite(value) for value in (x3, p4) if value is not None):
        raise ValueError("measurement outcomes must be finite")
    if isinstance(regime, Ideal):
        raise IdealChannelOutcomeUnboundedError(
            "the ideal channel has a flat, improper outcome distribution"
        )
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), regime)
    proper = (regime.sigma_b < np.inf, regime.sigma_a > 0.0)
    free = [keep and value is None for keep, value in zip(proper, (x3, p4))]
    count = _JOINT_CELLS if all(free) else _MARGINAL_CELLS
    axes = zip((mean_x3, mean_p4), (var_x3, var_p4), free, (x3, p4))
    (x3_values, x3_step), (p4_values, p4_step) = [
        _centered_grid(mean, np.sqrt(var), count) if draw
        else (np.array([0.0 if value is None else value], dtype=float), 0.0)
        for mean, var, draw, value in axes
    ]
    density = _outcome_density(psi, regime.sigma_a, regime.sigma_b, x3_values, p4_values)
    table = OutcomeDistribution(x3_values, p4_values, density, x3_step, p4_step)
    return replace(table, density=density / table.total())


def _centered_grid(mean: float, std: float, count: int):
    """``count`` cells over mean +- 6 std; a spread that overflows is refused."""
    if not np.isfinite(12.0 * std):
        raise OutcomeTooLargeError(f"an outcome spread of {std:.3g} cannot be tabulated")
    lo = mean - 6.0 * std
    step = 12.0 * std / count
    return lo + step * (np.arange(count) + 0.5), step


def sample_outcomes(
    psi: SampledWaveFunction, regime: KernelRegime, seed: int, count: int, x3=None, p4=None
):
    """Draw homodyne outcomes; deterministic given the seed.

    Every draw reads the table of `build_outcome_distribution`: a fixed
    coordinate is returned as its value and the other is drawn given it; an
    improper coordinate that is not fixed is returned as exactly 0.0.
    """
    rng = np.random.default_rng(seed)
    return build_outcome_distribution(psi, regime, x3, p4).sample(rng, count)


def sample_outcome(
    psi: SampledWaveFunction, regime: KernelRegime, seed: int, x3=None, p4=None
) -> MeasurementOutcome:
    """Single outcome draw (see :func:`sample_outcomes`)."""
    x3, p4 = sample_outcomes(psi, regime, seed, 1, x3, p4)
    return MeasurementOutcome(float(x3[0]), float(p4[0]))
