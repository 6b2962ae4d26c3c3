import numpy as np
import pytest

from cvteleport import (
    ConvolutionOnly,
    EmptyScenarioListError,
    GridMismatchError,
    GridSpec,
    MeasurementOutcome,
    PhaseOverflowError,
    SampledWaveFunction,
    Scenario,
    envelope_profile,
    fidelity,
    gaussian_packet,
    kernel_profile,
    l2_distortion,
    normalize,
    regime_for,
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


@pytest.mark.parametrize(
    "grid", [GridSpec(-16.0, 0.125, 256), GridSpec(-3.0, 0.75, 8), GridSpec(0.0, 0.5, 4096)]
)
def test_fidelity_of_a_state_with_itself_is_exactly_one(grid):
    # A normalized state's squared norm is 1 only to rounding; dividing the
    # overlap by both squared norms makes the self-fidelity exactly 1.
    rng = np.random.default_rng(grid.n)
    for scale in (1.0, 3.7e-5):
        for _ in range(10):
            amps = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
            psi = normalize(SampledWaveFunction(grid, amps))
            assert fidelity(psi, psi) == 1.0
            scaled = SampledWaveFunction(grid, scale * psi.amplitudes)
            assert fidelity(scaled, scaled) == 1.0


@pytest.mark.parametrize(
    "other", [GridSpec(-4.0, 0.125, 128), GridSpec(-8.0, 0.125, 256)], ids=["x_min", "n"]
)
def test_l2_distortion_refuses_states_on_different_grids(other):
    # as fidelity does: once 1.401 for a shifted grid, and numpy's broadcast
    # ValueError for another n
    psi = gaussian_packet(GridSpec(-8.0, 0.125, 128), 0.0, 1.0)
    with pytest.raises(GridMismatchError):
        l2_distortion(psi, gaussian_packet(other, 0.0, 1.0))


def test_kernel_profile_refuses_a_phase_that_overflows_under_its_gaussian():
    # sqrt(2) p4 u overflows at |u| > 1.3e8, where a width of 1e9 is not 0;
    # at width 1 the Gaussian has underflowed there, and the profile is 0
    with pytest.raises(PhaseOverflowError, match="sigma_a 1000000000.0, p4 1e"):
        kernel_profile(1e9, 1e300, (-1e10, 1e10))
    u, k = kernel_profile(1.0, 1e300, (-1e10, 1e10))
    assert np.array_equal(k, np.where(u == 0.0, 1.0, 0.0))


def test_kernel_profile_real_when_p4_zero():
    _, k = kernel_profile(0.5, 0.0, (-3.0, 3.0))
    assert np.all(k.imag == 0.0)
    assert k.real.max() == pytest.approx(1.0)


def test_kernel_profile_zero_crossing_spacing():
    u, k = kernel_profile(1 / 5.4, 2.7, (-2.0, 2.0), num=4001)
    re = k.real
    idx = np.flatnonzero(np.diff(np.sign(re)) != 0)
    crossings = u[idx] - re[idx] * (u[idx + 1] - u[idx]) / (re[idx + 1] - re[idx])
    spacing = np.mean(np.diff(crossings))
    assert spacing == pytest.approx(np.pi / 3.818, abs=1e-3)


def test_kernel_profile_imaginary_to_real_ratio():
    # the imaginary part is about half the real peak for these parameters
    _, k = kernel_profile(1 / 5.4, 2.7, (-30.0, 70.0), num=100001)
    ratio = np.max(np.abs(k.imag)) / np.max(np.abs(k.real))
    assert ratio == pytest.approx(0.5235716278513092, abs=1e-6)


def test_envelope_profile_centered():
    x, env = envelope_profile(2.0, 0.0, (-4.0, 4.0), num=801)
    mid = np.argmin(np.abs(x))
    assert env[mid] == pytest.approx(1.0)


def test_envelope_profile_offset_anchor():
    # width 280 centred at sqrt(2)*(-280) ~ -396
    _, env = envelope_profile(280.0, -280.0, (0.0, 100.0), num=101)
    assert env[0] == pytest.approx(0.13533528323661262, abs=1e-12)
    assert env[-1] == pytest.approx(0.04338230825147612, abs=1e-12)
    assert env[-1] / env[0] == pytest.approx(
        0.3205543093712593, abs=1e-9
    )


def test_run_sweep_single_ideal_scenario(unit_grid):
    psi = gaussian_packet(unit_grid, 0.3, 1.2)
    rows = list(run_sweep(
        [
            Scenario(
                "ideal",
                regime_for(0.0, np.inf),
                0.0,
                0.0,
            )
        ],
        lambda grid: psi,
    ))
    row = {r.label: r for r in rows}["ideal"]
    assert row.fidelity == pytest.approx(1.0, abs=1e-9)
    assert row.l2_distortion == pytest.approx(0.0, abs=1e-9)
    assert row.regime == "Ideal"


def test_run_sweep_runs_each_scenario_on_its_load_as_it_is(unit_grid):
    # the grid-less scenario gets load(None), the other load(its grid); the
    # Ideal channel hands its input back, so each row's output is that state
    psi = gaussian_packet(unit_grid, 0.3, 1.2)
    own = GridSpec(-16.0, 0.0625, 512)
    placed = gaussian_packet(own, 0.3, 1.2)
    asked = []

    def load(grid):
        asked.append(grid)
        return psi if grid is None else placed

    ideal = regime_for(0.0, np.inf)
    run, mine = list(run_sweep(
        [
            Scenario("run", ideal, 0.0, 0.0),
            Scenario("own", ideal, 0.0, 0.0, grid=own),
        ],
        load,
    ))
    assert asked == [None, own]
    assert run.output is psi
    assert mine.output is placed
    assert run.fidelity == mine.fidelity == 1.0


def test_run_sweep_refuses_an_input_on_another_grid(unit_grid):
    # a load that ignores its argument must not run silently on the wrong grid
    psi = gaussian_packet(unit_grid, 0.0, 1.0)
    own = GridSpec(-8.0, 0.0625, 256)
    scenario = Scenario("own", regime_for(0.0, np.inf), 0, 0, grid=own)
    with pytest.raises(ValueError, match="scenario 'own': the input was placed on"):
        list(run_sweep([scenario], lambda grid: psi))


def test_run_sweep_empty_and_duplicate_labels(unit_grid):
    psi = gaussian_packet(unit_grid, 0.0, 1.0)
    with pytest.raises(EmptyScenarioListError):
        run_sweep([], lambda grid: psi)
    scn = Scenario("a", regime_for(0.0, np.inf), 0, 0)
    with pytest.raises(ValueError):
        run_sweep([scn, scn], lambda grid: psi)


def test_run_sweep_records_failures_per_row(unit_grid):
    psi = gaussian_packet(unit_grid, 0.0, 1.0)
    scenarios = [
        Scenario("good", regime_for(0.0, np.inf), 0, 0),
        Scenario(
            "annihilated",
            regime_for(0.0, 1e-3),
            0.05,
            0.0,
        ),
    ]
    rows = list(run_sweep(scenarios, lambda grid: psi))
    by_label = {r.label: r for r in rows}
    assert not by_label["good"].failed
    bad = by_label["annihilated"]
    assert bad.failed and "ZeroNorm" in bad.error
    assert np.isnan(bad.fidelity)
    assert any(r.failed for r in rows)


def test_run_sweep_reruns_identically():
    psi = gaussian_packet(GridSpec(-32.0, 0.125, 512), 0.5, 1.0)
    scenarios = [
        Scenario("s", regime_for(0.5, 2.0), None, None, seed=17),
        Scenario("t", regime_for(0.7, 2.4), None, None, seed=18),
    ]
    r1 = list(run_sweep(scenarios, lambda grid: psi))
    r2 = list(run_sweep(scenarios, lambda grid: psi))
    assert [row.label for row in r1] == ["s", "t"]
    for a, b in zip(r1, r2):
        assert not a.failed
        assert a.x3 == b.x3 and a.p4 == b.p4
        assert a.fidelity == b.fidelity
        assert np.array_equal(a.output.amplitudes, b.output.amplitudes)


def test_sample_with_fixed_coordinate(unit_grid):
    psi = gaussian_packet(unit_grid, 0.5, 1.0)
    scenarios = [
        Scenario(
            "pinned",
            regime_for(0.5, 2.0),
            0.25,
            None,
            seed=17,
        )
    ]
    row = list(run_sweep(scenarios, lambda grid: psi))[0]
    assert row.x3 == 0.25
    assert row.p4 != 0.0


def test_run_sweep_refuses_an_unseeded_draw(unit_grid):
    # a missing seed must never fall through to an OS-entropy generator
    psi = gaussian_packet(unit_grid, 0.5, 1.0)
    scenario = Scenario("unseeded", regime_for(0.5, 2.0), None, None)
    with pytest.raises(ValueError, match="needs a seed"):
        run_sweep([scenario], lambda grid: psi)


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
    rows = list(run_sweep(
        [Scenario("c", regime_for(0.6, np.inf), 0.0, 1.0)],
        lambda grid: psi,
    ))
    row = rows[0]
    assert row.input_moments is not None
    assert row.regime == "ConvolutionOnly"
    assert 0.0 <= row.fidelity <= 1.0
