import tracemalloc

import numpy as np
import pytest

from cvteleport import (
    GridSpec,
    IDEAL,
    IdealChannelOutcomeUnboundedError,
    SentinelNotMaterializableError,
    SqueezingParams,
    build_outcome_distribution,
    gaussian_packet,
    load_signal,
    moments,
    sample_outcome,
    sample_outcomes,
)
from cvteleport.channel import _outcome_density, outcome_moments
from cvteleport.signals import bundled_silhouette_path


@pytest.fixture
def packet(unit_grid):
    return gaussian_packet(unit_grid, 0.8, 1.0)


def test_gaussian_input_gives_product_of_gaussians(packet):
    # with unit widths everything is Gaussian; the joint density factorizes
    dist = build_outcome_distribution(packet, SqueezingParams(1.0, 1.0))
    m = moments(packet)
    vx = m.std_x**2 / 2 + 2 / 8
    vp = m.std_p**2 / 2 + 2 / 8
    X3, P4 = np.meshgrid(dist.x3_values, dist.p4_values, indexing="ij")
    analytic = (
        np.exp(-((X3 - m.mean_x / np.sqrt(2)) ** 2) / (2 * vx))
        / np.sqrt(2 * np.pi * vx)
        * np.exp(-((P4 - m.mean_p / np.sqrt(2)) ** 2) / (2 * vp))
        / np.sqrt(2 * np.pi * vp)
    )
    assert np.max(np.abs(dist.density - analytic)) < 1e-7 * analytic.max()


def test_distribution_is_normalized_and_nonnegative(packet):
    dist = build_outcome_distribution(packet, SqueezingParams(0.4, 2.5))
    assert dist.total() == pytest.approx(1.0, abs=1e-6)
    assert np.all(dist.density >= 0.0)


def test_marginal_consistency_with_position_representation(packet):
    # the p4-marginal must agree with the x3 density computed directly from
    # the position-representation state
    params = SqueezingParams(0.6, 1.8)
    dist = build_outcome_distribution(packet, params)
    a = 1.0 / (4 * params.sigma_a**2)
    b = 1.0 / (4 * params.sigma_b**2)
    lam_s = 2 * a * b / (a + b)
    xs = packet.grid.points
    rho = packet.probability()
    direct = np.array(
        [
            np.sum(rho * np.exp(-4 * lam_s * (xs - np.sqrt(2) * c) ** 2))
            for c in dist.x3_values
        ]
    )
    direct /= direct.sum() * dist.x3_step
    marg = dist.marginal_x3()
    assert np.max(np.abs(marg - direct)) < 1e-6 * direct.max()


def test_table_moments_match_mode_decomposition(packet):
    params = SqueezingParams(1 / 18.0, 28.0)
    dist = build_outcome_distribution(packet, params)
    mx3, vx3, mp4, vp4 = outcome_moments(moments(packet), params)
    X3, P4 = np.meshgrid(dist.x3_values, dist.p4_values, indexing="ij")
    w = dist.density * dist.x3_step * dist.p4_step
    assert np.sum(X3 * w) == pytest.approx(mx3, abs=1e-4 * np.sqrt(vx3))
    assert np.sum((X3 - mx3) ** 2 * w) == pytest.approx(vx3, rel=1e-4)
    assert np.sum(P4 * w) == pytest.approx(mp4, abs=1e-4 * np.sqrt(vp4))
    assert np.sum((P4 - mp4) ** 2 * w) == pytest.approx(vp4, rel=1e-4)


def test_density_matches_bruteforce_integration(unit_grid):
    # fully independent route: dense quadrature of the defining double
    # integral, with the remote coordinate integrated numerically
    from cvteleport.grid import SampledWaveFunction, evaluate_bandlimited, normalize

    beta = 0.3  # chirp gives the outcomes a genuine cross-correlation
    amps = np.exp(-((unit_grid.points - 0.5) ** 2) / 4 + 1j * beta * unit_grid.points**2)
    psi = normalize(SampledWaveFunction(unit_grid, amps))
    sa, sb = 0.6, 1.8
    dist = build_outcome_distribution(psi, SqueezingParams(sa, sb), n_x3=65, n_p4=65)

    s2 = np.sqrt(2.0)
    v = np.linspace(-15.5, 15.5, 3001)
    x5 = np.linspace(-28.0, 28.0, 1401)
    psi_v = evaluate_bandlimited(psi, v)

    def brute(x3, p4, sb):
        shifted = v - s2 * x3
        pair = np.exp(-((shifted[None, :] - x5[:, None]) ** 2) / (4 * sa**2))
        pair *= np.exp(-((shifted[None, :] + x5[:, None]) ** 2) / (4 * sb**2))
        f = pair @ (np.exp(-1j * s2 * v * p4) * psi_v) * (v[1] - v[0])
        return np.sum(np.abs(f) ** 2) * (x5[1] - x5[0])

    probes = [(10, 20), (32, 32), (50, 12), (20, 50)]
    brute_vals = np.array(
        [brute(dist.x3_values[i], dist.p4_values[j], sb) for i, j in probes]
    )
    table_vals = np.array([dist.density[i, j] for i, j in probes])
    ratios = brute_vals / table_vals
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-9

    # an ideal sigma_b is the lam_s = 0 limit: the p4 marginal, read at x3 = 0
    p4s = dist.p4_values[[12, 20, 32, 50]]
    brute_vals = np.array([brute(0.0, p4, np.inf) for p4 in p4s])
    ratios = brute_vals / _outcome_density(psi, sa, np.inf, np.zeros(1), p4s)[0]
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-9

    # the chirp's symmetrized x-p covariance carries through at half weight
    X3, P4 = np.meshgrid(dist.x3_values, dist.p4_values, indexing="ij")
    w = dist.density * dist.x3_step * dist.p4_step
    mx, mp = np.sum(X3 * w), np.sum(P4 * w)
    cov = np.sum((X3 - mx) * (P4 - mp) * w)
    assert cov == pytest.approx(beta * moments(psi).std_x ** 2, rel=1e-5)


def test_outcome_density_memory_is_bounded():
    # the silhouette at sigma_a = 0.185, sigma_b = 8.4: a 16384 x 43 pair table
    # under a 257 x 16384 envelope, neither gathered by index nor made complex
    psi = load_signal(bundled_silhouette_path(), GridSpec(-1024.0, 0.5, 4096))
    tracemalloc.start()
    try:
        build_outcome_distribution(psi, SqueezingParams(0.18518518518518517, 8.4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 95e6


def test_build_distribution_rejects_sentinels(packet):
    with pytest.raises(SentinelNotMaterializableError):
        build_outcome_distribution(packet, SqueezingParams(IDEAL, 1.0))


def test_sampling_statistics_match_analytics(packet):
    params = SqueezingParams(0.7, 2.0)
    n = 100_000
    x3, p4 = sample_outcomes(packet, params, seed=77, count=n)
    mx3, vx3, mp4, vp4 = outcome_moments(moments(packet), params)
    assert x3.mean() == pytest.approx(mx3, abs=3 * np.sqrt(vx3 / n))
    assert p4.mean() == pytest.approx(mp4, abs=3 * np.sqrt(vp4 / n))
    # in-cell jitter widens the variance by cell^2/12, inside the 3 SE band
    assert x3.var() == pytest.approx(vx3, rel=0.05)
    assert p4.var() == pytest.approx(vp4, rel=0.05)


def test_sampling_is_deterministic(packet):
    params = SqueezingParams(0.7, 2.0)
    a = sample_outcomes(packet, params, seed=5, count=1000)
    b = sample_outcomes(packet, params, seed=5, count=1000)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    single = sample_outcomes(packet, params, seed=5, count=1)
    one = sample_outcome(packet, params, seed=5)
    assert one.x3 == single[0][0] and one.p4 == single[1][0]


def test_sampling_with_ideal_wide_pins_x3(packet):
    params = SqueezingParams(0.5, IDEAL)
    x3, p4 = sample_outcomes(packet, params, seed=3, count=20_000)
    assert np.all(x3 == 0.0)
    m = moments(packet)
    vp4 = m.std_p**2 / 2 + 1 / (8 * 0.5**2)
    assert p4.var() == pytest.approx(vp4, rel=0.05)


def test_sampling_with_ideal_narrow_pins_p4(packet):
    params = SqueezingParams(IDEAL, 3.0)
    x3, p4 = sample_outcomes(packet, params, seed=3, count=20_000)
    assert np.all(p4 == 0.0)
    m = moments(packet)
    vx3 = m.std_x**2 / 2 + 3.0**2 / 8
    assert x3.var() == pytest.approx(vx3, rel=0.05)


def test_doubly_ideal_channel_not_samplable(packet):
    with pytest.raises(IdealChannelOutcomeUnboundedError):
        sample_outcomes(packet, SqueezingParams(IDEAL, IDEAL), seed=1, count=10)


def test_probable_band_coverage_strong_squeezing(packet):
    # |p4| <= 1/sigma_a captures at least 95% of the mass
    sigma_a = 1 / 180.0
    x3, p4 = sample_outcomes(packet, SqueezingParams(sigma_a, IDEAL), 11, 50_000)
    assert np.mean(np.abs(p4) <= 1.0 / sigma_a) >= 0.95


def test_seeded_draws_are_frozen(packet):
    # Values recorded before the outcome-density code was refactored; any
    # change to the tabulated density or to the sampler shows up here.
    x3, p4 = sample_outcomes(packet, SqueezingParams(0.4, 2.5), seed=7, count=4)
    assert x3.tolist() == [
        0.8912376438701297, 1.8761711822860867, 1.3079869089671898, -0.1849225255761894
    ]
    assert p4.tolist() == [
        -0.41664545246061274, 0.2857098466231387, 0.6129343667250595, -0.44147508724690776
    ]
    x3, p4 = sample_outcomes(packet, SqueezingParams(0.4, IDEAL), seed=7, count=4)
    assert x3.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert p4.tolist() == [
        0.31862280021841344, 1.288435478396001, 0.7668925648324717, -0.7570665159352675
    ]
    x3, p4 = sample_outcomes(packet, SqueezingParams(IDEAL, 2.5), seed=7, count=4)
    assert x3.tolist() == [
        0.8843082251676513, 1.8541209033452388, 1.3325779897817096, -0.19138109098602973
    ]
    assert p4.tolist() == [0.0, 0.0, 0.0, 0.0]
