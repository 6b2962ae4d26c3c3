import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvteleport import (
    ConvolutionOnly,
    General,
    GridSpec,
    GridTooNarrowError,
    Ideal,
    MeasurementOutcome,
    MultiplicationOnly,
    SampledWaveFunction,
    TeleportError,
    ZeroNormError,
    gaussian_packet,
    load_signal,
    moments,
    normalize,
    regime_for,
    teleport,
    to_momentum,
    validate_span,
)
from cvteleport.signals import bundled_silhouette_path
from cvteleport import channel
from cvteleport.analysis import envelope_profile, fidelity, kernel_profile

from conftest import (
    closed_form_teleport,
    convolve_sampled_kernel,
    evaluate_bandlimited,
    oracle_teleport,
    random_state,
    rel_l2,
)

SQRT2 = np.sqrt(2.0)


def test_regime_mapping():
    assert isinstance(regime_for(0.0, np.inf), Ideal)
    assert regime_for(0.5, np.inf) == ConvolutionOnly(0.5)
    assert regime_for(0.0, 3.0) == MultiplicationOnly(3.0)
    assert regime_for(0.5, 3.0) == General(0.5, 3.0)
    # the limits present (sigma_a = 0, sigma_b = inf) name the class, which
    # keeps both widths as given
    named = {
        (True, True): Ideal,
        (False, True): ConvolutionOnly,
        (True, False): MultiplicationOnly,
        (False, False): General,
    }
    for sigma_a in (0.0, 1e-300, 0.5, 1e300):
        for sigma_b in (1e-300, 3.0, 1e300, np.inf):
            regime = regime_for(sigma_a, sigma_b)
            assert type(regime) is named[sigma_a == 0.0, sigma_b == np.inf]
            assert (regime.sigma_a, regime.sigma_b) == (sigma_a, sigma_b)
    # any other width is refused
    for sigma_a, sigma_b in [
        (-0.5, 3.0), (0.5, -3.0), (-0.5, np.inf), (0.0, -3.0), (-np.inf, 3.0),
        (np.nan, 3.0), (0.5, np.nan), (np.nan, np.inf), (0.0, np.nan),
        (np.inf, 3.0), (np.inf, np.inf), (0.5, 0.0), (0.0, 0.0),
    ]:
        with pytest.raises(ValueError):
            regime_for(sigma_a, sigma_b)


def test_ideal_channel_is_exact_identity(unit_grid, rng):
    psi = random_state(unit_grid, rng)
    out = teleport(psi, Ideal(), MeasurementOutcome(123.0, -456.0))
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_ideal_channel_returns_its_input_object(unit_grid, rng):
    # a SampledWaveFunction is immutable, so the identity needs no copy
    psi = random_state(unit_grid, rng)
    assert teleport(psi, Ideal(), MeasurementOutcome(0.0, 0.0)) is psi


def test_convolution_kernel_anchor_values():
    # sigma_a = 1/5.4: oscillation wavenumber sqrt(2)*2.7, Gaussian width 2*sigma_a
    u, k = kernel_profile(1 / 5.4, 2.7, (-2.0, 2.0), num=401)
    assert np.array_equal(u, np.linspace(-2, 2, 401))
    expected = np.exp(1j * SQRT2 * 2.7 * u) * np.exp(-((u / (2 / 5.4)) ** 2))
    assert np.max(np.abs(k - expected)) < 1e-15
    assert SQRT2 * 2.7 == pytest.approx(3.818, abs=1e-3)
    assert 2 / 5.4 == pytest.approx(0.37, abs=1e-3)


def test_convolution_spectral_matches_sampled_kernel():
    g = GridSpec(-64.0, 0.125, 1024)
    psi = gaussian_packet(g, 2.0, 3.0, 0.4)
    out = MeasurementOutcome(0.0, 0.7)
    spectral = teleport(psi, ConvolutionOnly(0.8), out)
    direct = convolve_sampled_kernel(psi, 0.8, 0.7)
    assert rel_l2(spectral, direct) < 1e-10


def test_multiplication_envelope_anchor():
    # envelope centred at -400 via x3 = -400/sqrt(2)
    g = GridSpec(-1024.0, 0.5, 4096)
    psi = gaussian_packet(g, 30.0, 25.0)
    x3 = -400.0 / SQRT2
    tele = teleport(psi, MultiplicationOnly(280.0), MeasurementOutcome(x3, 0.0))
    xs = g.points
    expected = normalize(
        SampledWaveFunction(g, psi.amplitudes * np.exp(-(((xs + 400.0) / 280.0) ** 2)))
    )
    assert rel_l2(expected, tele) < 1e-12


def test_envelope_helper_matches_formula():
    xs, e = envelope_profile(2.0, 1.5, (-5.0, 5.0), num=101)
    assert np.array_equal(xs, np.linspace(-5, 5, 101))
    assert np.allclose(e, np.exp(-(((xs - SQRT2 * 1.5) / 2.0) ** 2)))


def test_envelope_of_a_tiny_width_is_exact_without_a_warning():
    # sigma_b = 1e-300 squares the ratio past float64's range: the exp of that
    # inf is the exact 0 wanted, with no overflow warning on the way
    xs, e = envelope_profile(1e-300, 0.0, (-2.0, 1.0), num=4)
    assert xs.tolist() == [-2.0, -1.0, 0.0, 1.0]
    assert e.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_general_to_convolution_limit():
    g = GridSpec(-64.0, 0.125, 1024)
    psi = gaussian_packet(g, 2.0, 3.0, 0.4)
    support = moments(psi).support_length
    out = MeasurementOutcome(1.0, 0.7)
    gen = teleport(psi, General(0.8, 1e3 * support), out)
    conv = teleport(psi, ConvolutionOnly(0.8), out)
    assert rel_l2(conv, gen) < 1e-3


def test_general_to_convolution_limit_strong_squeezing():
    # sigma_a = 1/180 resolved on a fine grid, sigma_b numerically infinite,
    # probable outcome p4 = 1/sigma_a
    sa = 1.0 / 180.0
    g = GridSpec(-0.7, 1.4 / 1024, 1024)
    psi = gaussian_packet(g, 0.05, 0.15, 0.8)
    out = MeasurementOutcome(0.0, 180.0)
    gen = teleport(psi, General(sa, 1e6), out)
    conv = teleport(psi, ConvolutionOnly(sa), out)
    assert rel_l2(conv, gen) < 1e-3


def test_general_to_multiplication_limit():
    g = GridSpec(-64.0, 0.125, 1024)
    psi = gaussian_packet(g, 2.0, 3.0, 0.4)
    out = MeasurementOutcome(1.0, 0.7)
    gen = teleport(psi, General(1e-3 * g.dx, 40.0), out)
    mult = teleport(psi, MultiplicationOnly(40.0), out)
    assert rel_l2(mult, gen) < 1e-3


def _teleported(psi, regime, outcome):
    """The output amplitudes, or the type of the TeleportError raised instead."""
    try:
        return teleport(psi, regime, outcome).amplitudes
    except TeleportError as exc:
        return type(exc)


_random_grids = dict(log2_n=st.integers(6, 10), dx=st.floats(0.05, 1.0))


@given(
    **_random_grids,
    regime=st.sampled_from(["ideal", "convolution", "multiplication", "general"]),
    log_a=st.floats(np.log(1e-3), np.log(10.0)),
    log_b=st.floats(np.log(0.01), np.log(2.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_teleport_output_has_unit_norm(log2_n, dx, regime, log_a, log_b, seed):
    rng = np.random.default_rng(seed)
    g = GridSpec(-(2**log2_n) * dx / 2.0, dx, 2**log2_n)
    psi = random_state(g, rng)
    sigma_a, sigma_b = np.exp(log_a) * dx, np.exp(log_b) * g.span
    regime = {
        "ideal": Ideal(),
        "convolution": ConvolutionOnly(sigma_a),
        "multiplication": MultiplicationOnly(sigma_b),
        "general": General(sigma_a, sigma_b),
    }[regime]
    out = MeasurementOutcome(rng.uniform(-0.2, 0.2) * g.span, rng.uniform(-1, 1) / dx)
    amplitudes = _teleported(psi, regime, out)
    if not isinstance(amplitudes, type):
        assert abs(np.sum(np.abs(amplitudes) ** 2) * dx - 1.0) <= 1e-12


def test_general_matches_oracle_across_parameters():
    g = GridSpec(-12.0, 24.0 / 64, 64)
    xs, ps = g.points, g.conjugate().points
    rng = np.random.default_rng(42)
    for _ in range(3):
        sa = rng.uniform(0.8, 2.0)
        sb = rng.uniform(1.5, 3.0)
        x3 = float(xs[np.argmin(np.abs(xs - rng.uniform(-1.5, 1.5)))])
        p4 = float(ps[np.argmin(np.abs(ps - rng.uniform(-1.0, 1.0)))])
        psi = gaussian_packet(
            g, rng.uniform(-2, 2), rng.uniform(1.0, 2.2), rng.uniform(-0.7, 0.7)
        )
        out = MeasurementOutcome(x3, p4)
        kernel_path = teleport(psi, General(sa, sb), out)
        oracle_path = oracle_teleport(psi, regime_for(sa, sb), out)
        assert rel_l2(oracle_path, kernel_path) < 1e-6


def _dense_quadrature(psi, sa, sb, outcome):
    """The kernel of the module docstring as an n x n trapezoid sum."""
    X, V = psi.grid.points[:, None], psi.grid.points[None, :]
    # a tiny width overflows the squares to inf, whose exp is the exact 0 wanted
    with np.errstate(over="ignore"):
        kernel = (
            np.exp(-(((X - V) / (2 * sa)) ** 2))
            * np.exp(-(((X + V - 2 * SQRT2 * outcome.x3) / (2 * sb)) ** 2))
            * np.exp(-1j * SQRT2 * (V - X) * outcome.p4)
        )
    weights = np.full(psi.grid.n, psi.grid.dx)
    weights[[0, -1]] /= 2
    return normalize(SampledWaveFunction(psi.grid, kernel @ (weights * psi.amplitudes)))


def _compact_packet(grid, center, width, momentum=0.0, half=None):
    """A Gaussian packet, cut to [center - half, center + half] when half is given."""
    amplitudes = gaussian_packet(grid, center, width, momentum).amplitudes
    if half is not None:
        amplitudes = np.where(np.abs(grid.points - center) <= half, amplitudes, 0.0)
    return SampledWaveFunction(grid, amplitudes)


@pytest.mark.parametrize(
    "sa, sb, outcome, grid, packet",
    [
        (0.6, 2.5, (0.5, 0.4), GridSpec(-16.0, 0.125, 256), (0.3, 1.2, 0.5)),
        (2.5, 0.6, (0.5, 0.4), GridSpec(-16.0, 0.125, 256), (0.3, 1.2, 0.5)),
        (1.3, 1.3, (-0.2, 0.9), GridSpec(-16.0, 0.125, 256), (0.3, 1.2, 0.5)),
        # support [0, 50] far from the envelope centre (fig9c-like) at a sigma_a
        # the grid resolves: the band-limited kernel and the trapezoid sum agree
        (1.5, 20.0, (120.0, 1.0), GridSpec(-256.0, 0.5, 1024), (25.0, 6.0, 0.0, 25.0)),
        # widths whose 1/(4 sigma^2) overflows
        (1e-160, 20.0, (0.0, 1.0), GridSpec(-16.0, 0.125, 256), (0.3, 1.2, 0.5)),
        (1e-159, 1e-160, (0.0, 1.0), GridSpec(-16.0, 0.125, 256), (0.3, 1.2, 0.5)),
    ],
    ids=["a<b", "a>b", "a=b", "far-envelope", "tiny-a", "tiny-both"],
)
def test_general_matches_dense_quadrature(sa, sb, outcome, grid, packet):
    psi = _compact_packet(grid, *packet)
    out = MeasurementOutcome(*outcome)
    reference = _dense_quadrature(psi, sa, sb, out)
    assert rel_l2(reference, teleport(psi, General(sa, sb), out)) <= 1e-12


_CLOSED_FORM_CASES = [
    pytest.param(dx, regime, x3, p4, 256.0, 1e-14, id=f"{name}-{dx}")
    for name, regime, x3, p4 in [
        ("a<b", General(1.0, 2.0), 0.5, 0.3),
        ("hankel", General(3.0, 1.0), 0.5, 0.3),  # the Hankel branch
        ("wide-b", General(2.0, 60.0), 0.5, 0.3),
        ("conv", ConvolutionOnly(0.7), 0.5, 0.3),
        ("mult", MultiplicationOnly(8.4), 0.5, 0.3),
        ("mult-4.2", MultiplicationOnly(8.4), 4.2, 0.3),
        ("mult-33", MultiplicationOnly(8.4), 33.0, 0.3),
    ]
    for dx in (0.5, 0.25, 0.125)
] + [
    # Each with its own bound, within about twice its measured miss, or 1e-15
    # for a miss at rounding level.  sigma_a = 1/180 is sub-grid on every dx
    # here, and the miss stays near 1e-10 as dx shrinks: 1.3e-10 on dx 0.5,
    # 1.1e-10 on dx 0.125.
    pytest.param(0.5, General(1 / 180, 280.0), 280.0, 180.0, 2048.0, 2e-10, id="subgrid-0.5"),
    pytest.param(0.125, General(1 / 180, 280.0), 280.0, 180.0, 2048.0, 2e-10, id="subgrid-0.125"),
    # fig9c's outcome, 27 sigma out: the envelopes at T span e^-100 across
    # the input (2.2e-10)
    pytest.param(0.5, General(1 / 180, 280.0), 2800.0, 1800.0, 16384.0, 3e-10, id="fig9c"),
    pytest.param(0.5, General(0.185, 8.4), 4.2, 2.7, 256.0, 2e-13, id="moderate"),  # 8.9e-14
    pytest.param(0.5, General(60.0, 2.0), 33.0, 0.1, 256.0, 3e-15, id="hankel-33"),  # 1.5e-15
    pytest.param(0.5, General(280.0, 1 / 180), 280.0, 0.3, 2048.0, 2e-10, id="hankel-subgrid"),
    # a middle Gaussian of width 89.5 under the tenth of a 1024 span, which
    # takes the analytic window (1.8e-16); one of width 283 on a 512 span,
    # which takes its sampled taps (2.0e-16; the window alone misses by
    # 1.2e-7); and the rank-one limit A = B (3.7e-16)
    pytest.param(0.5, General(2.0, 2.002), 0.5, 0.3, 1024.0, 1e-15, id="near-equal-window"),
    pytest.param(0.5, General(2.0, 2.0002), 0.5, 0.3, 512.0, 1e-15, id="near-equal"),
    pytest.param(0.5, General(2.0, 2.0), 0.5, 0.3, 256.0, 1e-15, id="equal"),
]


@pytest.mark.parametrize("dx, regime, x3, p4, span, bound", _CLOSED_FORM_CASES)
def test_teleport_matches_the_closed_form_gaussian(dx, regime, x3, p4, span, bound):
    # A chirp-free Gaussian with a kick through every regime at outcomes
    # where the output is well conditioned; the worst measured miss of the
    # 1e-14 cases is 6.8e-15 (ConvolutionOnly, dx 0.125).  General(2, 60) at
    # (4.2, 2.7) misses by 1.4 on every dx: the input's spectrum at
    # sqrt(2)*p4 is rounding noise there, so it is not tested here.
    mu, w, k0 = 3.0, 6.0, 0.4
    grid = GridSpec(-span / 2.0, dx, int(span / dx))
    x = grid.points
    psi = normalize(SampledWaveFunction(grid, np.exp(-((x - mu) ** 2) / (4 * w**2) + 1j * k0 * x)))
    exact = closed_form_teleport(grid, mu, w, k0, regime.sigma_a, regime.sigma_b, x3, p4)
    assert rel_l2(exact, teleport(psi, regime, MeasurementOutcome(x3, p4))) <= bound


def _inner_packets(grid, rng):
    """Two Gaussian packets near the grid's middle, far inside its band and its ends.

    Widths 2.5-4 dx and kicks within 0.2 pi/dx leave the spectrum below
    1e-16 of its peak at the band edge, and at n >= 128 the amplitude is
    below 1e-13 at the grid's ends: the samples are the band-limited
    function, and no product wraps.
    """
    xs, amplitudes = grid.points, np.zeros(grid.n, dtype=np.complex128)
    for _ in range(2):
        width = rng.uniform(2.5, 4.0) * grid.dx
        center = grid.x_min + rng.uniform(0.4, 0.6) * grid.span
        kick = rng.uniform(-0.2, 0.2) * np.pi / grid.dx
        coeff = rng.normal() + 1j * rng.normal()
        amplitudes += coeff * np.exp(-((xs - center) ** 2) / (4.0 * width**2) + 1j * kick * xs)
    return normalize(SampledWaveFunction(grid, amplitudes))


_inner_grids = dict(log2_n=st.integers(7, 9), dx=st.floats(0.05, 1.0))


@given(
    **_inner_grids,
    log_a=st.floats(np.log(1e-3), np.log(0.3)),
    log_b=st.floats(np.log(0.05), np.log(0.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_general_does_not_depend_on_resolving_sigma_a(log2_n, dx, log_a, log_b, seed):
    # The same band-limited input on dx and on dx/2 (its interpolant) at a
    # sigma_a from 1e-3 to 0.3 dx: the outputs agree at the shared points.
    # The worst measured miss is 6.4e-10; a direct sum over the grid's lags
    # missed by up to 0.08.
    rng = np.random.default_rng(seed)
    n = 2**log2_n
    coarse = GridSpec(-n * dx / 2.0, dx, n)
    psi = _inner_packets(coarse, rng)
    fine = GridSpec(coarse.x_min, dx / 2.0, 2 * n)
    refined = SampledWaveFunction(fine, evaluate_bandlimited(psi, fine.points))
    regime = General(np.exp(log_a) * dx, np.exp(log_b) * coarse.span)
    out = MeasurementOutcome(
        rng.uniform(-0.1, 0.1) * coarse.span, rng.uniform(-0.5, 0.5) * np.pi / (SQRT2 * dx)
    )
    on_coarse = teleport(psi, regime, out)
    on_fine = normalize(SampledWaveFunction(coarse, teleport(refined, regime, out).amplitudes[::2]))
    assert rel_l2(on_coarse, on_fine) <= 2e-9


def _zero_extended(psi, factor):
    """psi's samples on a grid ``factor`` times as long at the same dx, zeros around."""
    g = psi.grid
    lead = (factor - 1) * g.n // 2
    wide = GridSpec(g.x_min - lead * g.dx, g.dx, factor * g.n)
    amplitudes = np.zeros(wide.n, dtype=np.complex128)
    amplitudes[lead : lead + g.n] = psi.amplitudes
    return SampledWaveFunction(wide, amplitudes), lead


@given(
    log2_n=st.integers(8, 9),
    dx=st.floats(0.05, 1.0),
    regime=st.sampled_from(["toeplitz", "hankel", "convolution", "multiplication"]),
    log_narrow=st.floats(np.log(1e-3), np.log(3.0)),
    log_wide=st.floats(np.log(0.05), np.log(0.25)),
    x3=st.floats(-0.05, 0.05),
    p4=st.floats(-0.2, 0.2),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_extending_a_resolved_input_keeps_the_output(
    log2_n, dx, regime, log_narrow, log_wide, x3, p4, seed
):
    # The product is circular over the grid's samples, on 2n points (n for
    # sigma_b = inf).  A resolved input, decayed below eps at the grid's
    # ends and inside its band, leaves nothing at the band edge to wrap: the
    # same samples zero-extended to 4n give the output on the shared points
    # and zeros around it, to rounding.  The narrow width runs from 1e-3 to
    # 3 dx, the wide one from 0.05 to 0.25 spans, where the envelopes do not
    # cut the input to a far tail.  Worst measured over 4000 cases: 6.6e-15
    # (multiplication), 1.2e-14 (convolution), 2.0e-14 (Toeplitz) and
    # 3.1e-11 (Hankel, which reverses the input about the grid's ends).
    n = 2**log2_n
    psi = _inner_packets(GridSpec(-n * dx / 2.0, dx, n), np.random.default_rng(seed))
    narrow, wide = np.exp(log_narrow) * dx, np.exp(log_wide) * psi.grid.span
    regime = {
        "toeplitz": General(narrow, wide),
        "hankel": General(wide, narrow),
        "convolution": ConvolutionOnly(narrow),
        "multiplication": MultiplicationOnly(wide),
    }[regime]
    out = MeasurementOutcome(x3 * psi.grid.span, p4 * np.pi / (SQRT2 * dx))
    extended, lead = _zero_extended(psi, 4)
    expected = np.zeros(extended.grid.n, dtype=np.complex128)
    expected[lead : lead + n] = teleport(psi, regime, out).amplitudes
    on_extended = teleport(extended, regime, out).amplitudes
    assert np.linalg.norm(on_extended - expected) <= 1e-10 * np.linalg.norm(expected)


def test_band_edge_input_wraps_by_its_measured_bound():
    # The silhouette is cut sharply, and at sigma_a = 0.185 the window is
    # 0.95 at the band edge p = -2 pi: its band-limited tail, decaying as
    # 1/u, wraps on the 2n circle.  The same samples on 4n points move the
    # output by 3.82e-7 relative L2 on the shared points.
    psi = load_signal(bundled_silhouette_path(), GridSpec(-256.0, 0.5, 1024))
    extended = load_signal(bundled_silhouette_path(), GridSpec(-1024.0, 0.5, 4096))
    _, lead = _zero_extended(psi, 4)
    assert np.array_equal(extended.amplitudes[lead : lead + psi.grid.n], psi.amplitudes)
    out = MeasurementOutcome(48.36, -3.544)
    on_grid = teleport(psi, General(0.185, 8.4), out).amplitudes
    on_extended = teleport(extended, General(0.185, 8.4), out).amplitudes
    moved = np.linalg.norm(on_extended[lead : lead + psi.grid.n] - on_grid)
    assert moved / np.linalg.norm(on_grid) == pytest.approx(3.82e-7, rel=5e-3)


@given(
    **_inner_grids,
    log_a=st.floats(np.log(1e-2), 0.0),
    log_b=st.floats(np.log(0.1), np.log(2.0)),
    x3=st.floats(-0.1, 0.1),
    p4=st.floats(-0.5, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_general_reaches_the_single_width_regimes(log2_n, dx, log_a, log_b, x3, p4, seed):
    # sigma_b -> inf reaches ConvolutionOnly and sigma_a -> 0 reaches
    # MultiplicationOnly: at sigma_b = 1e8 spans and at sigma_a = 1e-9 dx
    # the outputs differ from the ideal widths' by rounding only (5.2e-16
    # at most over 400 random cases).  sigma_a stays within dx and p4 within
    # the input's band, where the output is not a far tail of the input.
    n = 2**log2_n
    g = GridSpec(-n * dx / 2.0, dx, n)
    psi = _inner_packets(g, np.random.default_rng(seed))
    sigma_a, sigma_b = np.exp(log_a) * dx, np.exp(log_b) * g.span
    out = MeasurementOutcome(x3 * g.span, p4 / dx)
    convolution = teleport(psi, ConvolutionOnly(sigma_a), out)
    assert rel_l2(convolution, teleport(psi, General(sigma_a, 1e8 * g.span), out)) <= 1e-14
    multiplication = teleport(psi, MultiplicationOnly(sigma_b), out)
    assert rel_l2(multiplication, teleport(psi, General(1e-9 * dx, sigma_b), out)) <= 1e-14


def test_teleport_sets_the_rounding_below_eps_to_zero():
    # fig9b's teleport: past the input the envelopes leave only the
    # transform's rounding, which is set to 0 rather than written out
    g = GridSpec.from_bounds(-4096.0, 4096.0, 16384)
    psi = _compact_packet(g, 50.0, 28.0, half=50.0)
    out = teleport(psi, General(1 / 180, 280.0), MeasurementOutcome(280.0, 180.0))
    magnitude = np.abs(out.amplitudes)
    kept = magnitude[magnitude > 0.0]
    assert kept.min() >= 0.99 * np.finfo(np.float64).eps * magnitude.max()
    assert kept.size < g.n // 2  # 7564 of 16384


def test_general_memory_stays_linear():
    # a fig9c-sized teleport: n = 32768 and a 201-point input support
    g = GridSpec.from_bounds(-8192.0, 8192.0, 32768)
    psi = _compact_packet(g, 50.0, 28.0, half=50.0)
    tracemalloc.start()
    try:
        teleport(psi, General(1 / 180, 280.0), MeasurementOutcome(2800.0, 1800.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.8e6


def test_representation_duality():
    # momentum-space teleportation with swapped roles equals the transform of
    # the position-space teleportation
    g = GridSpec(-32.0, 0.25, 256)
    rng = np.random.default_rng(9)
    for _ in range(5):
        psi = random_state(g, rng)
        sa = rng.uniform(0.8, 1.5)
        sb = rng.uniform(2.0, 3.2)
        x3 = rng.uniform(-1.5, 1.5)
        p4 = rng.uniform(-1.0, 1.0)
        lhs = to_momentum(teleport(psi, General(sa, sb), MeasurementOutcome(x3, p4)))
        rhs = teleport(
            to_momentum(psi),
            General(1.0 / sb, 1.0 / sa),
            MeasurementOutcome(x3=p4, p4=-x3),
        )
        assert rel_l2(lhs, rhs) < 1e-6


def test_multiplication_fidelity_monotone_in_outcome_magnitude():
    g = GridSpec(-64.0, 0.125, 1024)
    psi = gaussian_packet(g, 0.0, 2.0)  # mean_x = 0
    sb = 8.0
    fids = []
    for x3 in (0.0, sb / 2, sb, 4 * sb):
        tele = teleport(psi, MultiplicationOnly(sb), MeasurementOutcome(x3, 0.0))
        fids.append(fidelity(psi, tele))
    assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))


def test_probable_outcomes_keep_high_fidelity():
    # widths an order of magnitude beyond the adequacy conditions; outcomes at
    # the one-sigma boundary of their distribution stay above 0.98 fidelity
    g = GridSpec(-8.0, 16.0 / 1024, 1024)
    psi = gaussian_packet(g, 0.3, 1.0, momentum=0.2)
    m = moments(psi)
    sa = 1.0 / (10 * (abs(m.mean_p) + 3 * m.std_p))
    sb = 10 * (abs(m.mean_x) + 3 * m.std_x)
    from cvteleport.channel import outcome_moments

    mx3, vx3, mp4, vp4 = outcome_moments(m, regime_for(sa, sb))
    worst = 1.0
    for dx3 in (-1, 0, 1):
        for dp4 in (-1, 0, 1):
            out = MeasurementOutcome(
                mx3 + dx3 * np.sqrt(vx3), mp4 + dp4 * np.sqrt(vp4)
            )
            worst = min(worst, fidelity(psi, teleport(psi, General(sa, sb), out)))
    assert worst >= 0.98


def test_zero_norm_on_envelope_annihilation():
    g = GridSpec(-16.0, 0.125, 256)
    psi = gaussian_packet(g, 0.0, 1.0)
    with pytest.raises(ZeroNormError):
        teleport(psi, MultiplicationOnly(1.0), MeasurementOutcome(1e4, 0.0))
    # sqrt(2)*x3 overflows to inf, or every Hankel tap underflows: the kernel
    # came out NaN, and an image run, which applies no span rule, once ended
    # there in "amplitudes must be finite"
    for regime, x3 in ((MultiplicationOnly(8.0), 1.5e308), (General(1e300, 8.0), 1e300)):
        with pytest.raises(ZeroNormError):
            teleport(psi, regime, MeasurementOutcome(x3, 0.0))


def test_zero_norm_when_the_right_factor_would_pass_one_over_eps():
    # Packets at +-40 and the envelope's centre at 0 between them: scaled to 1
    # at one packet, the right factor grows by about e^45 over the other, past
    # 1/eps, so the transform could keep no digit of the output.  The kernel
    # returns zeros and teleport refuses the outcome.  Without the check the
    # output is rounding: input and kernel are symmetric under x -> -x, and it
    # is not.
    g = GridSpec(-256.0, 0.5, 1024)
    pair = gaussian_packet(g, -40.0, 3.0).amplitudes + gaussian_packet(g, 40.0, 3.0).amplitudes
    psi = normalize(SampledWaveFunction(g, pair))
    regime, out = General(2.0, 0.2), MeasurementOutcome(0.0, 0.0)
    raw = channel._apply_kernel(psi, regime.sigma_a, regime.sigma_b, out)
    assert raw.dtype == np.complex128 and np.array_equal(raw, np.zeros(g.n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroNormError, match="annihilated"):
            teleport(psi, regime, out)
    with mock.patch.object(channel, "_LOG_EPS", np.inf):
        unchecked = np.abs(channel._apply_kernel(psi, regime.sigma_a, regime.sigma_b, out))
    mirrored = unchecked[1:][::-1]  # x = -256 + i/2 maps to -x at index n - i
    assert np.array_equal(np.abs(psi.amplitudes[1:]), np.abs(psi.amplitudes[1:][::-1]))
    assert np.linalg.norm(unchecked[1:] - mirrored) > np.linalg.norm(unchecked)


def test_grid_too_narrow_on_edge_spill():
    g = GridSpec(-16.0, 0.125, 256)
    psi = gaussian_packet(g, 0.0, 1.0)
    with pytest.raises(GridTooNarrowError):
        teleport(psi, ConvolutionOnly(200.0), MeasurementOutcome(0.0, 0.0))


@pytest.mark.parametrize(
    "p4", [1e15, -1e15, 1e16, -1e16, 1e18, -1e18, 1e20, -1e20, 1.7e308, -1.7e308]
)
def test_far_momentum_outcome_fails_by_name_or_keeps_the_band_edge(p4):
    # Past float64's resolution of sqrt(2) p4 on the momentum lattice, p - q
    # once rounded every in-band momentum alike and the window was all ones:
    # ConvolutionOnly returned the input and General(1, 8.4) one state for
    # every p4 past 1e18, while the taps of General(30, 60) and the phases of
    # Hankel General(8.4, 1) came out set by rounding (NaN once sqrt(2) p4
    # overflows).  The window now keeps the band edge on p4's side, a single
    # mode that fills the grid without an envelope and sits under the left
    # envelope with one, and a Hankel outcome is void.
    psi = load_signal(bundled_silhouette_path(), GridSpec(-256.0, 0.5, 1024))
    outcome = MeasurementOutcome(0.0, p4)
    for sigma_a in (0.185, 1.0, 1000.0):
        with pytest.raises(GridTooNarrowError):
            teleport(psi, ConvolutionOnly(sigma_a), outcome)
    with pytest.raises(ZeroNormError):
        teleport(psi, General(8.4, 1.0), outcome)
    g = psi.grid
    size = 2 * g.n  # the window's lattice, with the envelope's padding
    edge = (size // 2 - 1 if p4 > 0 else -size // 2) * 2.0 * np.pi / (size * g.dx)
    for sigma_a, sigma_b in ((1.0, 8.4), (30.0, 60.0)):  # window, taps below the far q
        out = teleport(psi, General(sigma_a, sigma_b), outcome)
        assert fidelity(psi, out) < 1e-6
        kept = np.abs(out.amplitudes) > 1e-6 * np.abs(out.amplitudes).max()
        assert np.all(np.diff(np.flatnonzero(kept)) == 1)
        turned = out.amplitudes[kept] * np.exp(-1j * edge * g.points[kept])
        # one momentum: a single phase over the kept samples
        assert np.allclose(turned / turned[0], np.abs(turned) / abs(turned[0]), atol=1e-9)
        # the envelope exp(-(x - c)^2 / (2 sigma_b^2)): log-quadratic, curvature -1/sigma_b^2
        curvature = np.diff(np.log(np.abs(turned)), 2) / g.dx**2
        assert np.allclose(curvature, -1.0 / sigma_b**2, rtol=1e-6)


@pytest.mark.parametrize(
    "sigma_a, p4, runs",
    [pytest.param(1e-10, p4, True, id=f"{p4:g}") for p4 in (1e18, 1e20, -1e20)]
    + [
        pytest.param(sigma_a, p4, False, id=f"{sigma_a:g}-{p4:g}")
        for sigma_a, p4 in ((1e-6, 7e12), (1e-6, 3e12), (1e-5, 1e11), (1e-4, 1e9), (1e-3, 1e7), (1e-2, 1e5))
    ],
)
def test_far_momentum_window_matches_exact_arithmetic(sigma_a, p4, runs):
    # At a tiny sigma_a the far window is not one mode: exp(-sigma_a^2 (p - q)^2)
    # tilts across the band, by about e^-2.8 a unit of p at p4 = 1e20.  Its
    # exponent relative to the band edge, taken in exact rational arithmetic
    # from the same float momenta, is the reference.  Below the far threshold
    # an off-band q once cancelled (sigma_a (p - q))^2 terms and missed it by
    # up to 1.4e-2 (sigma_a 1e-6, p4 7e12).  The kernel's raw output is read
    # for every case, since teleport refuses the edge spill of the smaller
    # tilts; the cases it accepts also run end to end through teleport.
    psi = load_signal(bundled_silhouette_path(), GridSpec(-256.0, 0.5, 1024))
    n = psi.grid.n
    p = np.arange(n, dtype=np.float64)
    p[n // 2 :] -= n
    p *= 2.0 * np.pi / (n * psi.grid.dx)
    q = Fraction(np.sqrt(2.0) * p4)
    offsets = [(Fraction(float(v)) - q) ** 2 for v in p]
    least = min(offsets)
    window = np.exp([float(-Fraction(sigma_a) ** 2 * (d - least)) for d in offsets])
    expected = np.fft.ifft(np.fft.fft(psi.amplitudes) * window)
    expected /= np.linalg.norm(expected)
    raw = channel._apply_kernel(psi, sigma_a, np.inf, MeasurementOutcome(0.0, p4))
    assert np.linalg.norm(raw / np.linalg.norm(raw) - expected) < 1e-14
    if runs:
        out = teleport(psi, ConvolutionOnly(sigma_a), MeasurementOutcome(0.0, p4))
        assert np.linalg.norm(out.amplitudes / np.linalg.norm(out.amplitudes) - expected) < 1e-12
        assert fidelity(psi, out) < 1.0 - 1e-6  # not the input
    else:
        with pytest.raises(GridTooNarrowError):
            teleport(psi, ConvolutionOnly(sigma_a), MeasurementOutcome(0.0, p4))


def test_validate_span_rule():
    g = GridSpec(-256.0, 0.5, 1024)
    validate_span(g, support_length=100.0, x3=0.0, sigma_b=np.inf)
    with pytest.raises(GridTooNarrowError):
        validate_span(g, support_length=100.0, x3=280.0, sigma_b=280.0)


def test_teleport_outputs_are_normalized(unit_grid, rng):
    psi = random_state(unit_grid, rng)
    out = teleport(psi, General(1.0, 3.0), MeasurementOutcome(0.5, 0.3))
    assert abs(out.norm() - 1.0) < 1e-12
