"""Acceptance gate: one test per criterion, each printing its measurement.

Criterion 5 carries a known-red sub-check: the fidelity floor of 0.95 for the
combined strong-squeezing scenario is unattainable for a spread-28 signal
under an envelope of width 280 centred ~396 away (the ceiling is ~0.943
independent of the signal shape), so that test fails by design rather than
being loosened.  See README.
"""

import time

import numpy as np
import pytest

from cvteleport import (
    ConvolutionOnly,
    General,
    GridSpec,
    Ideal,
    ImageAsset,
    MeasurementOutcome,
    MultiplicationOnly,
    Scenario,
    build_outcome_distribution,
    envelope_profile,
    fidelity,
    gaussian_packet,
    kernel_profile,
    load_signal,
    moments,
    regime_for,
    run_sweep,
    teleport,
    teleport_image,
    to_momentum,
)
from cvteleport.channel import outcome_moments
from cvteleport.cli import main
from cvteleport.signals import bundled_silhouette_path

from conftest import epr_from_beam_splitter, epr_state, oracle_teleport, random_state, rel_l2

G_DEFAULT = GridSpec(-256.0, 0.5, 1024)
G_WIDE = GridSpec(-4096.0, 0.5, 16384)
G_WIDER = GridSpec(-8192.0, 0.5, 32768)

FIG_PARAMS = regime_for(1.0 / 180.0, 280.0)

# fidelities computed once through the sweep path and frozen; fig9b and fig9c
# were frozen again when the kernel stopped depending on whether the grid
# resolves sigma_a = 1/180, and no longer equal fig7a and fig7b
FROZEN_FIDELITIES = {
    "fig4a": 0.9999936489600971,
    "fig4b": 0.9993212109655758,
    "fig4c": 0.9985625360753045,
    "fig4d": 0.8357068099391806,
    "fig7a": 0.9464584100391454,
    "fig7b": 0.22893150519864716,
    "fig7c": 0.18329251896797993,
    "fig7d": 0.13847004640039853,
    "fig9b": 0.9464533894400824,
    "fig9c": 0.2282072845259108,
}


def reference_scenarios():
    return [
        Scenario("fig4a", regime_for(1 / 180, np.inf), 0.0, 180.0),
        Scenario("fig4b", regime_for(1 / 180, np.inf), 0.0, 1800.0),
        Scenario("fig4c", regime_for(1 / 5.4, np.inf), 0.0, 2.7),
        Scenario("fig4d", regime_for(1 / 5.4, np.inf), 0.0, 10.8),
        Scenario("fig7a", regime_for(0.0, 280.0), 280.0, 0.0, grid=G_WIDE),
        Scenario("fig7b", regime_for(0.0, 280.0), 2800.0, 0.0, grid=G_WIDER),
        Scenario("fig7c", regime_for(0.0, 8.4), 4.2, 0.0),
        Scenario("fig7d", regime_for(0.0, 8.4), 33.0, 0.0),
        Scenario("fig9b", FIG_PARAMS, 280.0, 180.0, grid=G_WIDE),
        Scenario("fig9c", FIG_PARAMS, 2800.0, 1800.0, grid=G_WIDER),
    ]


@pytest.fixture(scope="module")
def silhouette():
    return load_signal(bundled_silhouette_path(), G_DEFAULT)


@pytest.fixture(scope="module")
def scenario_rows(silhouette):
    # as `teleport run` does: a scenario grid gets the file placed on that grid
    def load(grid):
        return silhouette if grid is None else load_signal(bundled_silhouette_path(), grid)

    return list(run_sweep(reference_scenarios(), load))


def test_criterion_01_ideal_channel_identity(silhouette):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = rel_l2(
        silhouette, teleport(silhouette, Ideal(), MeasurementOutcome(7.0, -3.0))
    )
    for _ in range(20):
        psi = random_state(G_DEFAULT, rng)
        out = teleport(psi, Ideal(), MeasurementOutcome(rng.normal(), rng.normal()))
        worst = max(worst, rel_l2(psi, out))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: ideal identity worst rel L2 = {worst:.3g}, {elapsed:.3f} s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    g = GridSpec(-12.0, 24.0 / 64, 64)
    xs, ps = g.points, g.conjugate().points
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
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
        worst = max(worst, rel_l2(oracle_path, kernel_path))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: oracle equivalence worst rel L2 = {worst:.3g}, {elapsed:.1f} s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_03_epr_construction_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(5):
        params = regime_for(rng.uniform(0.9, 2.4), rng.uniform(0.9, 2.4))
        errors = []
        for n in (256, 512):
            g = GridSpec(-16.0, 32.0 / n, n)
            direct = epr_state(params, g)
            built = epr_from_beam_splitter(params, g)
            errors.append(float(np.max(np.abs(direct - built))))
        print(
            f"criterion 3: sa={params.sigma_a:.3f} sb={params.sigma_b:.3f} "
            f"max dev n256={errors[0]:.2e} n512={errors[1]:.2e}"
        )
        assert errors[0] <= 5e-3
        assert errors[1] < errors[0]


def test_criterion_04_limit_consistency():
    g = GridSpec(-64.0, 0.125, 1024)
    psi = gaussian_packet(g, 2.0, 3.0, 0.4)
    support = moments(psi).support_length
    out = MeasurementOutcome(1.0, 0.7)
    conv_err = rel_l2(
        teleport(psi, ConvolutionOnly(0.8), out),
        teleport(psi, General(0.8, 1e3 * support), out),
    )
    mult_err = rel_l2(
        teleport(psi, MultiplicationOnly(40.0), out),
        teleport(psi, General(1e-3 * g.dx, 40.0), out),
    )
    print(f"criterion 4: limits conv={conv_err:.3g} mult={mult_err:.3g}")
    assert conv_err <= 1e-3
    assert mult_err <= 1e-3


def test_criterion_05_scenario_regressions_and_orderings(scenario_rows):
    start = time.perf_counter()
    fids = {row.label: row.fidelity for row in scenario_rows}
    for label, frozen in FROZEN_FIDELITIES.items():
        assert fids[label] == pytest.approx(frozen, abs=1e-6), label
    assert fids["fig4a"] > fids["fig4b"]
    assert fids["fig4a"] > fids["fig4c"] > fids["fig4d"]
    assert fids["fig7a"] > fids["fig7c"] > fids["fig7d"]
    assert fids["fig9b"] > fids["fig9c"]
    elapsed = time.perf_counter() - start
    print(f"criterion 5: scenario fidelities reproduced and ordered: {fids}")
    assert elapsed < 60.0


def test_criterion_05_combined_strong_squeezing_fidelity_floor(scenario_rows):
    # Known red: the run measures 0.94645338944008.  The width-280 envelope,
    # centred at sqrt(2)*280 ~ 396, reweights the spread-28 signal, and the
    # program reproduces the predicted fidelity to 2e-16, so the 0.95 floor is
    # implemented faithfully and fails.
    measured = {r.label: r for r in scenario_rows}["fig9b"].fidelity
    print(f"criterion 5 (floor): combined strong-squeezing fidelity = {measured:.6f}")
    assert measured >= 0.95


def test_criterion_06_kernel_and_envelope_anchors():
    u, k = kernel_profile(1 / 5.4, 2.7, (-2.0, 2.0), num=8001)
    mag = np.abs(k)
    after = np.flatnonzero((mag[:-1] >= np.exp(-1)) & (mag[1:] < np.exp(-1)))[-1]
    frac = (np.exp(-1) - mag[after]) / (mag[after + 1] - mag[after])
    efold = u[after] + frac * (u[after + 1] - u[after])

    re = k.real
    idx = np.flatnonzero(np.diff(np.sign(re)) != 0)
    crossings = u[idx] - re[idx] * (u[idx + 1] - u[idx]) / (re[idx + 1] - re[idx])
    wavenumber = np.pi / np.mean(np.diff(crossings))
    print(f"criterion 6: e-folding {efold:.6f}, wavenumber {wavenumber:.6f}")
    assert efold == pytest.approx(0.37, abs=1e-3)
    assert wavenumber == pytest.approx(3.818, abs=1e-3)

    _, env = envelope_profile(280.0, -280.0, (0.0, 100.0), num=101)
    direct0 = np.exp(-(((0.0 - np.sqrt(2) * -280.0) / 280.0) ** 2))
    direct100 = np.exp(-(((100.0 - np.sqrt(2) * -280.0) / 280.0) ** 2))
    assert env[0] == pytest.approx(direct0, abs=1e-12)
    assert env[-1] == pytest.approx(direct100, abs=1e-12)


def test_criterion_07_measurement_statistics(silhouette):
    start = time.perf_counter()
    n = 100_000
    x3, p4 = build_outcome_distribution(silhouette, FIG_PARAMS).sample(seed=606, count=n)
    mx3, vx3, mp4, vp4 = outcome_moments(moments(silhouette), FIG_PARAMS)
    se_x3 = np.sqrt(vx3 / n)
    se_p4 = np.sqrt(vp4 / n)
    coverage = float(np.mean(np.abs(p4) <= 180.0))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 7: mean x3 {x3.mean():.3f} (analytic {mx3:.3f} +- {3*se_x3:.3f}), "
        f"mean p4 {p4.mean():.3f} (analytic {mp4:.3f} +- {3*se_p4:.3f}), "
        f"band coverage {coverage:.4f}, {elapsed:.1f} s"
    )
    assert abs(x3.mean() - mx3) <= 3 * se_x3
    assert abs(p4.mean() - mp4) <= 3 * se_p4
    assert coverage >= 0.95
    assert elapsed < 60.0


def test_criterion_08_representation_duality():
    g = GridSpec(-32.0, 0.25, 256)
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(5):
        psi = random_state(g, rng)
        sa, sb = rng.uniform(0.8, 1.5), rng.uniform(2.0, 3.2)
        x3, p4 = rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0)
        lhs = to_momentum(teleport(psi, General(sa, sb), MeasurementOutcome(x3, p4)))
        rhs = teleport(
            to_momentum(psi),
            General(1.0 / sb, 1.0 / sa),
            MeasurementOutcome(x3=p4, p4=-x3),
        )
        worst = max(worst, rel_l2(lhs, rhs))
    print(f"criterion 8: duality worst rel L2 = {worst:.3g}")
    assert worst <= 1e-6


def test_criterion_09_determinism_and_round_trips(tmp_path, silhouette):
    # byte-identical CLI reruns with sampled outcomes
    text = (
        "input = bundled:silhouette\ngrid = -1024:1024:4096\noutput_dir = {out}\n"
        "seed = 31\n\n[scenario]\nlabel = s\nsigma_a = 0.5\nsigma_b = 40\n"
        "x3 = sample\np4 = sample\n"
    )
    outs = []
    for name in ("r1", "r2"):
        cfg = tmp_path / f"{name}.cfg"
        out = tmp_path / name
        cfg.write_text(text.format(out=out))
        assert main(["run", str(cfg)]) == 0
        outs.append(out)
    assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()
    assert (outs[0] / "s_teleported.txt").read_bytes() == (
        outs[1] / "s_teleported.txt"
    ).read_bytes()

    # signal save/load round trip
    from cvteleport import load_signal, save_signal

    path = tmp_path / "sig.txt"
    save_signal(path, silhouette)
    again = load_signal(path, silhouette.grid)
    sig_err = float(np.max(np.abs(again.amplitudes - silhouette.amplitudes)))

    # ideal image teleport is lossless to one intensity level
    r, c = np.meshgrid(np.arange(40), np.arange(40), indexing="ij")
    img = ImageAsset(
        pixels=np.rint(100 + 60 * np.sin(r / 3.0) + 50 * np.cos(c / 5.0)).clip(0, 255),
        maxval=255,
    )
    result = teleport_image(img, Ideal(), MeasurementOutcome(0.0, 0.0))
    img_err = float(np.max(np.abs(result.display.pixels - img.pixels)))
    print(f"criterion 9: reruns identical, signal {sig_err:.2e}, image {img_err:.2e}")
    assert sig_err <= 1e-12
    assert img_err <= 1.0


def test_criterion_10_performance():
    g = GridSpec(-64.0, 0.125, 1024)
    psi = random_state(g, np.random.default_rng(5))
    start = time.perf_counter()
    teleport(psi, General(1.0, 8.0), MeasurementOutcome(0.5, 0.4))
    general_time = time.perf_counter() - start

    rng = np.random.default_rng(6)
    img = ImageAsset(pixels=np.rint(rng.uniform(20, 230, (256, 256))), maxval=255)
    start = time.perf_counter()
    teleport_image(img, General(2.0, 60.0), MeasurementOutcome(10.0, 0.2))
    image_time = time.perf_counter() - start
    print(
        f"criterion 10: general n=1024 {general_time:.3f} s, "
        f"256x256 image {image_time:.2f} s"
    )
    assert general_time < 1.0
    assert image_time < 10.0
