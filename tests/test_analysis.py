import numpy as np
import pytest

from cvteleport import (
    ConvolutionOnly,
    EmptyScenarioListError,
    GridSpec,
    IDEAL,
    MeasurementOutcome,
    SampleWithSeed,
    SampledWaveFunction,
    Scenario,
    SqueezingParams,
    envelope_profile,
    fidelity,
    gaussian_packet,
    kernel_profile,
    normalize,
    run_sweep,
    teleport,
    to_momentum,
)


def test_fidelity_identical_and_orthogonal(unit_grid):
    psi = gaussian_packet(unit_grid, 0.0, 1.0)
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)
    xs = unit_grid.points
    odd = normalize(SampledWaveFunction(unit_grid, xs * np.exp(-(xs**2) / 2)))
    even = normalize(SampledWaveFunction(unit_grid, np.exp(-(xs**2) / 2)))
    assert fidelity(even, odd) == pytest.approx(0.0, abs=1e-12)


def test_kernel_profile_real_when_p4_zero():
    prof = kernel_profile(0.5, 0.0, (-3.0, 3.0))
    assert np.all(prof.imag == 0.0)
    assert prof.real.max() == pytest.approx(1.0)


def test_kernel_profile_zero_crossing_spacing():
    prof = kernel_profile(1 / 5.4, 2.7, (-2.0, 2.0), num=4001)
    re, u = prof.real, prof.u
    idx = np.flatnonzero(np.diff(np.sign(re)) != 0)
    crossings = u[idx] - re[idx] * (u[idx + 1] - u[idx]) / (re[idx + 1] - re[idx])
    spacing = np.mean(np.diff(crossings))
    assert spacing == pytest.approx(np.pi / 3.818, abs=1e-3)


def test_kernel_profile_imaginary_to_real_ratio():
    # the imaginary part is about half the real peak for these parameters
    prof = kernel_profile(1 / 5.4, 2.7, (-30.0, 70.0), num=100001)
    ratio = np.max(np.abs(prof.imag)) / np.max(np.abs(prof.real))
    assert ratio == pytest.approx(0.5235716278513092, abs=1e-6)


def test_envelope_profile_centered():
    prof = envelope_profile(2.0, 0.0, (-4.0, 4.0), num=801)
    mid = np.argmin(np.abs(prof.x))
    assert prof.values[mid] == pytest.approx(1.0)


def test_envelope_profile_offset_anchor():
    # width 280 centred at sqrt(2)*(-280) ~ -396
    prof = envelope_profile(280.0, -280.0, (0.0, 100.0), num=101)
    assert prof.values[0] == pytest.approx(0.13533528323661262, abs=1e-12)
    assert prof.values[-1] == pytest.approx(0.04338230825147612, abs=1e-12)
    assert prof.values[-1] / prof.values[0] == pytest.approx(
        0.3205543093712593, abs=1e-9
    )


def test_run_sweep_single_ideal_scenario(unit_grid):
    psi = gaussian_packet(unit_grid, 0.3, 1.2)
    report = run_sweep(
        [
            Scenario(
                "ideal",
                SqueezingParams(IDEAL, IDEAL),
                MeasurementOutcome(0.0, 0.0),
            )
        ],
        psi,
    )
    row = report.by_label("ideal")
    assert row.fidelity == pytest.approx(1.0, abs=1e-9)
    assert row.l2_distortion == pytest.approx(0.0, abs=1e-9)
    assert row.regime == "Ideal"


def test_run_sweep_empty_and_duplicate_labels(unit_grid):
    psi = gaussian_packet(unit_grid, 0.0, 1.0)
    with pytest.raises(EmptyScenarioListError):
        run_sweep([], psi)
    scn = Scenario("a", SqueezingParams(IDEAL, IDEAL), MeasurementOutcome(0, 0))
    with pytest.raises(ValueError):
        run_sweep([scn, scn], psi)


def test_run_sweep_records_failures_per_row(unit_grid):
    psi = gaussian_packet(unit_grid, 0.0, 1.0)
    scenarios = [
        Scenario("good", SqueezingParams(IDEAL, IDEAL), MeasurementOutcome(0, 0)),
        Scenario(
            "annihilated",
            SqueezingParams(IDEAL, 1.0),
            MeasurementOutcome(1e4, 0.0),
        ),
    ]
    report = run_sweep(scenarios, psi)
    assert not report.by_label("good").failed
    bad = report.by_label("annihilated")
    assert bad.failed and "ZeroNorm" in bad.error
    assert np.isnan(bad.fidelity)
    assert report.any_failed


def test_run_sweep_reruns_identically(unit_grid):
    psi = gaussian_packet(unit_grid, 0.5, 1.0)
    scenarios = [
        Scenario("s", SqueezingParams(0.5, 2.0), SampleWithSeed(17)),
        Scenario("t", SqueezingParams(0.7, 2.4), SampleWithSeed(18)),
    ]
    r1 = run_sweep(scenarios, psi)
    r2 = run_sweep(scenarios, psi)
    assert [row.label for row in r1.rows] == ["s", "t"]
    for a, b in zip(r1.rows, r2.rows):
        assert a.x3 == b.x3 and a.p4 == b.p4
        assert a.fidelity == b.fidelity
        assert np.array_equal(a.output.amplitudes, b.output.amplitudes)


def test_sample_with_fixed_coordinate(unit_grid):
    psi = gaussian_packet(unit_grid, 0.5, 1.0)
    scenarios = [
        Scenario(
            "pinned",
            SqueezingParams(0.5, 2.0),
            SampleWithSeed(17, fixed_x3=0.25),
        )
    ]
    row = run_sweep(scenarios, psi).rows[0]
    assert row.x3 == 0.25
    assert row.p4 != 0.0


def test_run_sweep_refuses_an_unseeded_draw(unit_grid):
    # a missing seed must never fall through to an OS-entropy generator
    psi = gaussian_packet(unit_grid, 0.5, 1.0)
    scenario = Scenario("unseeded", SqueezingParams(0.5, 2.0), SampleWithSeed(None))
    with pytest.raises(ValueError, match="needs a seed"):
        run_sweep([scenario], psi)


def test_fidelity_monotone_in_squeezing(unit_grid):
    # fixed probable outcome; stronger squeezing never lowers fidelity
    psi = gaussian_packet(unit_grid, 0.0, 1.5)
    fids = []
    for sa in (1.0, 0.7, 0.5, 0.35, 0.25):
        tele = teleport(psi, ConvolutionOnly(sa), MeasurementOutcome(0.0, 2.0))
        fids.append(fidelity(psi, tele))
    assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))


def test_convolution_smooths_fine_detail():
    # a high-frequency ripple riding on a smooth packet: the weak-squeezing
    # kernel suppresses the momentum tail by far more than a factor ten
    g = GridSpec(-64.0, 0.125, 1024)
    xs = g.points
    base = np.exp(-(xs**2) / (4 * 6.0**2))
    psi = normalize(
        SampledWaveFunction(g, base * (1.0 + 0.35 * np.cos(13.5 * xs)))
    )
    sigma_a = 1 / 5.4
    tele = teleport(psi, ConvolutionOnly(sigma_a), MeasurementOutcome(0.0, 2.7))
    cut = 1.0 / (2 * sigma_a)

    def tail_mass(state):
        phi = to_momentum(state)
        sel = np.abs(phi.grid.points) > cut
        return float(np.sum(np.abs(phi.amplitudes[sel]) ** 2) * phi.grid.dx)

    assert tail_mass(psi) > 0.01  # the ripple really lives in the tail
    assert tail_mass(tele) <= 0.1 * tail_mass(psi)


def test_report_moments_populated(unit_grid):
    psi = gaussian_packet(unit_grid, 0.4, 1.1)
    report = run_sweep(
        [Scenario("c", SqueezingParams(0.6, IDEAL), MeasurementOutcome(0.0, 1.0))],
        psi,
    )
    row = report.rows[0]
    assert row.input_moments is not None and row.output_moments is not None
    assert row.regime == "ConvolutionOnly"
    assert 0.0 <= row.fidelity <= 1.0
