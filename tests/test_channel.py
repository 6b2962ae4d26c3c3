import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvteleport import (
    ConvolutionOnly,
    General,
    GridSpec,
    GridTooNarrowError,
    IDEAL,
    Ideal,
    MeasurementOutcome,
    MultiplicationOnly,
    OracleGridTooLargeError,
    SampledWaveFunction,
    SentinelNotMaterializableError,
    SqueezingParams,
    TeleportError,
    ZeroNormError,
    gaussian_packet,
    moments,
    normalize,
    oracle_teleport,
    regime_for,
    squeezed_vacuum,
    teleport,
    to_momentum,
    validate_span,
)
from cvteleport.analysis import fidelity
from cvteleport.channel import (
    _apply_kernel,
    _kernel_factors,
    convolution_kernel,
    convolve_sampled_kernel,
    envelope,
)

from conftest import random_state, rel_l2

SQRT2 = np.sqrt(2.0)


def test_regime_mapping():
    assert isinstance(regime_for(SqueezingParams(IDEAL, IDEAL)), Ideal)
    assert regime_for(SqueezingParams(0.5, IDEAL)) == ConvolutionOnly(0.5)
    assert regime_for(SqueezingParams(IDEAL, 3.0)) == MultiplicationOnly(3.0)
    assert regime_for(SqueezingParams(0.5, 3.0)) == General(0.5, 3.0)


def test_ideal_channel_is_exact_identity(unit_grid, rng):
    psi = random_state(unit_grid, rng)
    out = teleport(psi, Ideal(), MeasurementOutcome(123.0, -456.0))
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_convolution_kernel_anchor_values():
    # sigma_a = 1/5.4: oscillation wavenumber sqrt(2)*2.7, Gaussian width 2*sigma_a
    u = np.linspace(-2, 2, 401)
    k = convolution_kernel(1 / 5.4, 2.7, u)
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
    xs = np.linspace(-5, 5, 101)
    assert np.allclose(
        envelope(2.0, 1.5, xs), np.exp(-(((xs - SQRT2 * 1.5) / 2.0) ** 2))
    )


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


@settings(derandomize=True, database=None, deadline=None)
@given(
    **_random_grids,
    log_a=st.floats(-30.0, 0.0),
    log_b=st.floats(np.log(0.02), np.log(2.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_general_with_one_tap_sigma_a_is_multiplication(log2_n, dx, log_a, log_b, seed):
    # sigma_a <= dx/60 leaves only the lag-0 tap: every other tap is below e^-899
    rng = np.random.default_rng(seed)
    g = GridSpec(-(2**log2_n) * dx / 2.0, dx, 2**log2_n)
    psi = random_state(g, rng)
    sigma_a, sigma_b = np.exp(log_a) * dx / 60.0, np.exp(log_b) * g.span
    out = MeasurementOutcome(rng.uniform(-0.2, 0.2) * g.span, rng.uniform(-1, 1) / dx)
    mult = _teleported(psi, MultiplicationOnly(sigma_b), out)
    gen = _teleported(psi, General(sigma_a, sigma_b), out)
    if isinstance(mult, type):
        assert gen is mult
    else:
        assert np.array_equal(gen, mult)


@settings(derandomize=True, database=None, deadline=None)
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
        oracle_path = oracle_teleport(psi, SqueezingParams(sa, sb), out)
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
        # sub-grid sigma_a, support [0, 50] far from the envelope centre (fig9c-like)
        (1 / 180, 20.0, (120.0, 450.0), GridSpec(-256.0, 0.5, 1024), (25.0, 6.0, 0.0, 25.0)),
        # widths whose 1/(4 sigma^2) overflows
        (1e-160, 20.0, (0.0, 1.0), GridSpec(-16.0, 0.125, 256), (0.3, 1.2, 0.5)),
        (1e-159, 1e-160, (0.0, 1.0), GridSpec(-16.0, 0.125, 256), (0.3, 1.2, 0.5)),
    ],
    ids=["a<b", "a>b", "a=b", "subgrid", "tiny-a", "tiny-both"],
)
def test_general_matches_dense_quadrature(sa, sb, outcome, grid, packet):
    psi = _compact_packet(grid, *packet)
    out = MeasurementOutcome(*outcome)
    reference = _dense_quadrature(psi, sa, sb, out)
    assert rel_l2(reference, teleport(psi, General(sa, sb), out)) <= 1e-12


def _apply_kernel_over_every_tap(psi, sigma_a, sigma_b, outcome):
    """`_apply_kernel` as it was before the band: every tap through the complex exp."""
    g = psi.grid
    q = SQRT2 * outcome.p4
    sa, sb = 2.0 * sigma_a, 2.0 * sigma_b
    c = g.points - SQRT2 * outcome.x3
    lag = np.arange(1 - g.n, g.n) * g.dx
    with np.errstate(over="ignore", divide="ignore"):
        left = np.exp(-2.0 * (c / max(sa, sb)) ** 2)
        right = left * psi.amplitudes
        if sa <= sb:
            u = np.divide(lag, sa, out=np.zeros_like(lag), where=lag != 0.0)
            w = lag / sb
            taps = np.exp(-(u - w) * (u + w) + 1j * q * lag)
        else:
            left = left * np.exp(1j * q * c)
            right = (right * np.exp(-1j * q * c))[::-1]
            total = c[0] + c[-1] + lag
            u, w = total / sb, total / sa
            taps = np.exp(-(u - w) * (u + w))
    band = np.flatnonzero(taps)
    lo, hi = (band[0], band[-1] + 1) if band.size else (0, 1)
    full = np.zeros(3 * g.n - 2, dtype=np.complex128)
    part = np.convolve(right, taps[lo:hi])
    full[lo : lo + part.size] = part
    return left * full[g.n - 1 : 2 * g.n - 1]


@pytest.mark.parametrize(
    "sigma_a, sigma_b, outcome",
    [
        (0.0, 8.4, (4.2, 0.0)),  # MultiplicationOnly, fig7c
        (0.0, 8.4, (33.0, 0.7)),  # MultiplicationOnly, off-centre
        (1 / 180, 20.0, (120.0, 450.0)),  # sub-grid sigma_a
        (0.6, 2.5, (0.5, 0.4)),  # a < b, every tap live
        (2.5, 0.6, (0.5, 0.4)),  # a > b, the reversed branch
        (1e-160, 20.0, (0.0, 1.0)),  # overflowing exponents
    ],
    ids=["mult", "mult-off", "subgrid", "a<b", "a>b", "tiny-a"],
)
def test_kernel_band_matches_every_tap_bitwise(sigma_a, sigma_b, outcome):
    # the band changes which taps are evaluated, never a bit of the output,
    # the sign of its zero samples included
    g = GridSpec(-256.0, 0.5, 1024)
    psi = _compact_packet(g, 25.0, 6.0, 0.3, half=25.0)
    out = MeasurementOutcome(*outcome)
    got = _apply_kernel(psi, sigma_a, sigma_b, out)
    want = _apply_kernel_over_every_tap(psi, sigma_a, sigma_b, out)
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


_MEMO_CASES = [
    (GridSpec(-16.0, 0.125, 256), General(0.6, 2.5), MeasurementOutcome(0.5, 0.4)),
    (GridSpec(-32.0, 0.25, 256), ConvolutionOnly(0.4), MeasurementOutcome(0.0, -0.7)),
    (GridSpec(-16.0, 0.125, 256), General(2.5, 0.6), MeasurementOutcome(0.5, 0.4)),
    (GridSpec(-16.0, 0.125, 256), MultiplicationOnly(3.0), MeasurementOutcome(1.0, 0.0)),
]


def test_memoized_factors_give_the_output_of_a_fresh_build():
    # A, B, A, C, A, D: every call after the first of A reuses or replaces the
    # one memoized entry, and each output is bitwise the one built from scratch.
    def run(case):
        grid, regime, outcome = case
        return teleport(_compact_packet(grid, 0.3, 1.2, 0.5), regime, outcome).amplitudes

    order = [0, 1, 0, 2, 0, 3, 3]
    memoized = [run(_MEMO_CASES[i]) for i in order]
    for i, got in zip(order, memoized):
        _kernel_factors.cache_clear()
        assert got.tobytes() == run(_MEMO_CASES[i]).tobytes()


def test_memoized_factors_are_read_only():
    for grid, regime, outcome in _MEMO_CASES:
        factors = _kernel_factors(
            grid, regime.sigma_a, regime.sigma_b, outcome.x3, outcome.p4
        )
        arrays = [f for f in factors if isinstance(f, np.ndarray)]
        assert arrays and not any(f.flags.writeable for f in arrays)


@settings(derandomize=True, database=None, deadline=None)
@given(
    log2_n=st.integers(6, 10),
    dx=st.floats(0.05, 1.0),
    log_ratio=st.floats(np.log(1e-3), np.log(20.0)),
    log_other=st.floats(np.log(1.01), np.log(100.0)),
    hankel=st.booleans(),
    x3=st.floats(-0.2, 0.2),
    p4=st.floats(-1.0, 1.0),
)
# The image workload's General(2, 60) column: 219 taps, 6 of them subnormal.
@example(log2_n=9, dx=1.0, log_ratio=np.log(2.0), log_other=np.log(30.0),
         hankel=False, x3=10.0 / 512, p4=0.2)
def test_kernel_taps_hold_no_subnormal_part(log2_n, dx, log_ratio, log_other, hankel, x3, p4):
    # sigma_a/dx from 1e-3 to 20, sigma_b wider (Toeplitz) or narrower (Hankel)
    g = GridSpec(-(2**log2_n) * dx / 2.0, dx, 2**log2_n)
    sigma_a = dx * float(np.exp(log_ratio))
    sigma_b = sigma_a / np.exp(log_other) if hankel else sigma_a * np.exp(log_other)
    taps, start = _kernel_factors(g, sigma_a, sigma_b, x3 * g.span, p4 / dx)
    parts = np.abs(taps.view(np.float64))
    assert np.all((parts == 0.0) | (parts >= np.finfo(np.float64).tiny))
    assert 0 <= start and start + taps.size <= 2 * g.n - 1


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
    assert peak < 16e6


def test_oracle_refuses_large_grids_and_sentinels():
    g = GridSpec(-12.0, 24.0 / 128, 128)
    psi = gaussian_packet(g, 0.0, 1.0)
    with pytest.raises(OracleGridTooLargeError):
        oracle_teleport(psi, SqueezingParams(1.0, 1.0), MeasurementOutcome(0, 0))
    g64 = GridSpec(-12.0, 24.0 / 64, 64)
    psi64 = gaussian_packet(g64, 0.0, 1.0)
    with pytest.raises(SentinelNotMaterializableError):
        oracle_teleport(psi64, SqueezingParams(IDEAL, 1.0), MeasurementOutcome(0, 0))


def test_oracle_equal_widths_outputs_resource_mode():
    # sigma_a = sigma_b makes the resource separable: the output is the
    # squeezed-vacuum mode itself, independent of the input.
    g = GridSpec(-12.0, 24.0 / 64, 64)
    psi = gaussian_packet(g, 0.6, 1.4)
    out = oracle_teleport(psi, SqueezingParams(1.2, 1.2), MeasurementOutcome(0.0, 0.0))
    vac = squeezed_vacuum(1.2, g)
    assert rel_l2(vac, out) < 1e-10
    assert fidelity(psi, out) == pytest.approx(0.8889477575654505, abs=1e-9)


def test_oracle_asymmetric_widths_blur():
    g = GridSpec(-12.0, 24.0 / 64, 64)
    psi = gaussian_packet(g, 0.4, 0.9)
    out = oracle_teleport(psi, SqueezingParams(0.7, 5.0), MeasurementOutcome(0.0, 0.0))
    m_in, m_out = moments(psi), moments(out)
    assert m_out.std_x > m_in.std_x
    assert m_out.mean_x == pytest.approx(m_in.mean_x, abs=0.2)


def test_oracle_fidelity_monotone_toward_ideal():
    g = GridSpec(-12.0, 24.0 / 64, 64)
    psi = gaussian_packet(g, 0.6, 1.4)
    fids = [
        fidelity(
            psi,
            oracle_teleport(psi, SqueezingParams(sa, 6.0), MeasurementOutcome(0, 0)),
        )
        for sa in (2.0, 1.0, 0.5)
    ]
    assert all(b > a for a, b in zip(fids, fids[1:]))


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

    mx3, vx3, mp4, vp4 = outcome_moments(m, SqueezingParams(sa, sb))
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


def test_grid_too_narrow_on_edge_spill():
    g = GridSpec(-16.0, 0.125, 256)
    psi = gaussian_packet(g, 0.0, 1.0)
    with pytest.raises(GridTooNarrowError):
        teleport(psi, ConvolutionOnly(200.0), MeasurementOutcome(0.0, 0.0))


def test_validate_span_rule():
    g = GridSpec(-256.0, 0.5, 1024)
    validate_span(g, support_length=100.0, x3=0.0, sigma_b=IDEAL)
    with pytest.raises(GridTooNarrowError):
        validate_span(g, support_length=100.0, x3=280.0, sigma_b=280.0)


def test_teleport_outputs_are_normalized(unit_grid, rng):
    psi = random_state(unit_grid, rng)
    out = teleport(psi, General(1.0, 3.0), MeasurementOutcome(0.5, 0.3))
    assert abs(out.norm() - 1.0) < 1e-12
