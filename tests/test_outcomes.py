import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvteleport import (
    GridSpec,
    IdealChannelOutcomeUnboundedError,
    OutcomeTooLargeError,
    SampledWaveFunction,
    Scenario,
    ZeroNormError,
    build_outcome_distribution,
    gaussian_packet,
    load_signal,
    moments,
    normalize,
    run_sweep,
    sample_outcome,
    sample_outcomes,
)
from cvteleport import channel
from cvteleport.channel import (
    _MARGINAL_CELLS,
    _SQRT2,
    _centered_grid,
    _dx_rows_alias_free,
    _lambda_coefficients,
    _outcome_density,
    _sample_cells,
    outcome_moments,
    regime_for,
)
from cvteleport.signals import bundled_silhouette_path
from conftest import closed_form_joint, closed_form_marginal, evaluate_bandlimited, random_state


@pytest.fixture
def packet(unit_grid):
    return gaussian_packet(unit_grid, 0.8, 1.0)


def test_gaussian_input_gives_product_of_gaussians(packet):
    # with unit widths everything is Gaussian; the joint density factorizes
    dist = build_outcome_distribution(packet, regime_for(1.0, 1.0))
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
    dist = build_outcome_distribution(packet, regime_for(0.4, 2.5))
    assert dist.total() == pytest.approx(1.0, abs=1e-6)
    assert np.all(dist.density >= 0.0)


def test_marginal_consistency_with_position_representation(packet):
    # the p4-marginal must agree with the x3 density computed directly from
    # the position-representation state
    params = regime_for(0.6, 1.8)
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
    marg = dist.density.sum(axis=1) * dist.p4_step
    assert np.max(np.abs(marg - direct)) < 1e-6 * direct.max()


def test_table_moments_match_mode_decomposition(packet):
    params = regime_for(1 / 18.0, 28.0)
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
    beta = 0.3  # chirp gives the outcomes a genuine cross-correlation
    amps = np.exp(-((unit_grid.points - 0.5) ** 2) / 4 + 1j * beta * unit_grid.points**2)
    psi = normalize(SampledWaveFunction(unit_grid, amps))
    sa, sb = 0.6, 1.8
    dist = build_outcome_distribution(psi, regime_for(sa, sb))

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

    probes = [(41, 81), (128, 128), (200, 49), (81, 200)]
    brute_vals = np.array(
        [brute(dist.x3_values[i], dist.p4_values[j], sb) for i, j in probes]
    )
    table_vals = np.array([dist.density[i, j] for i, j in probes])
    ratios = brute_vals / table_vals
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-9

    # an ideal sigma_b leaves the p4 marginal, the same at every x3
    p4s = dist.p4_values[[49, 81, 128, 200]]
    brute_vals = np.array([brute(0.0, p4, np.inf) for p4 in p4s])
    ratios = brute_vals / _outcome_density(psi, sa, np.inf, np.zeros(1), p4s)[0]
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-9

    # the chirp's symmetrized x-p covariance carries through at half weight
    X3, P4 = np.meshgrid(dist.x3_values, dist.p4_values, indexing="ij")
    w = dist.density * dist.x3_step * dist.p4_step
    mx, mp = np.sum(X3 * w), np.sum(P4 * w)
    cov = np.sum((X3 - mx) * (P4 - mp) * w)
    assert cov == pytest.approx(beta * moments(psi).std_x ** 2, rel=1e-5)


def _peak_bytes(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_outcome_density_memory_is_bounded():
    # the silhouette at sigma_a = 0.185, sigma_b = 8.4: its 201 samples are
    # the rows of every x3, transformed in blocks of 35 x 256, and a 256 x 46
    # lag table; peak 1.4 MB, where the pair table it replaced peaked at 4.9 MB
    psi = load_signal(bundled_silhouette_path(), GridSpec(-1024.0, 0.5, 4096))
    params = regime_for(0.18518518518518517, 8.4)
    assert _peak_bytes(build_outcome_distribution, psi, params) < 8e6


def test_fig9b_outcome_density_memory_is_bounded():
    # the same 201 rows and blocks and a 256 x 40 lag table, peak 1.4 MB,
    # where a 16335 x 41 pair table with its envelope blocks peaked at
    # 15.6 MB, and the whole lattice at 180 MB
    psi = load_signal(bundled_silhouette_path(), GridSpec(-4096.0, 0.5, 16384))
    params = regime_for(1 / 180.0, 280.0)
    assert _peak_bytes(build_outcome_distribution, psi, params) < 25e6


def _outcome_values(psi, sigma_a, sigma_b, n_out):
    """The x3 and p4 rows of the outcome grid."""
    params = regime_for(sigma_a, sigma_b)
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
    p4_values = _centered_grid(mean_p4, np.sqrt(var_p4), n_out)[0]
    return _centered_grid(mean_x3, np.sqrt(var_x3), n_out)[0], p4_values


def _logged_density(call, *args):
    """``call(*args)`` and the arguments of the one outcome-density line it logs.

    Those are the coordinates drawn, F, the largest row count, the transform
    length N, the lag count and the estimated MB.
    """
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("cvteleport.channel")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        result = call(*args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    (record,) = [r for r in records if r.msg.startswith("outcome density")]
    return result, record.args


def test_x3_only_marginal_contracts_only_the_input_support():
    # The 4096-point x3-only scenario: the window's reach spans 202 rows, of
    # which the silhouette's 201 samples are the only nonzero ones, and the
    # lag 0 needs no transform (N 0).  The marginal matches the sum over
    # every nonzero sample, and the draws are the ones that sum gives.
    psi = load_signal(bundled_silhouette_path(), GridSpec(-1024.0, 0.5, 4096))
    params = regime_for(0.0, 8.4)
    with mock.patch.object(channel, "_sample_cells", wraps=_sample_cells) as spy:
        (x3, _), logged = _logged_density(sample_outcomes, psi, params, 1, 1000)
    assert logged[:5] == ("x3", 1, 201, 0, 1)
    density = spy.call_args.args[0]
    mean_x3, var_x3 = outcome_moments(moments(psi), params)[:2]
    values, step = _centered_grid(mean_x3, np.sqrt(var_x3), _MARGINAL_CELLS)
    support = np.flatnonzero(psi.amplitudes)
    u = np.subtract.outer(_SQRT2 * values, psi.grid.points[support])
    reference = np.exp(-4.0 * u**2 / (2.0 * 8.4**2)) @ psi.probability()[support]
    # the drawn table is normalized, the reference is not
    density, scaled = density / density.sum(), reference / reference.sum()
    assert np.max(np.abs(density - scaled)) <= 1e-15 * scaled.max()
    rng = np.random.default_rng(1)
    cells = _sample_cells(reference, rng, 1000)
    assert np.array_equal(x3, values[cells] + (rng.random(1000) - 0.5) * step)


def _drawn_marginal(psi, params):
    """The outcome cells a single-coordinate draw samples and their density."""
    with mock.patch.object(channel, "_sample_cells", wraps=_sample_cells) as spy:
        sample_outcomes(psi, params, seed=1, count=1)
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
    mean, var = (mean_p4, var_p4) if params.sigma_b == np.inf else (mean_x3, var_x3)
    return _centered_grid(mean, np.sqrt(var), _MARGINAL_CELLS)[0], spy.call_args.args[0]


@settings(max_examples=40)
@given(
    dx=st.floats(0.25, 1.0),
    log_a=st.floats(np.log(1e-3), np.log(512 / 10)),
    log_b=st.floats(np.log(0.1), np.log(20.0)),
)
# sigma_a = 5e-4 on dx = 0.5 asked a pair table upsampled 2048-fold, past
# its clamp at 1024, and sigma_b = dx aliased the native samples' sum.
@example(dx=0.5, log_a=np.log(1e-3), log_b=0.0)
def test_marginals_match_the_closed_form(dx, log_a, log_b):
    # A real Gaussian packet (centre 3, amplitude width 6) on 512 points:
    # sigma_a/dx from 1e-3 to a tenth of the span, sigma_b/dx from 0.1 to 20.
    grid = GridSpec(-256.0 * dx, dx, 512)
    psi = normalize(
        SampledWaveFunction(grid, np.exp(-((grid.points - 3.0) ** 2) / (4.0 * 36.0)))
    )
    for params in [
        regime_for(dx * float(np.exp(log_a)), np.inf),
        regime_for(0.0, dx * float(np.exp(log_b))),
    ]:
        values, density = _drawn_marginal(psi, params)
        exact = closed_form_marginal(psi, params, values)
        err = np.max(np.abs(density / density.max() - exact / exact.max()))
        assert err <= 1e-12, (params, err)


def _gaussian_packet_on(dx):
    """The real Gaussian packet of the marginal test (centre 3, width 6) on 512 points."""
    grid = GridSpec(-256.0 * dx, dx, 512)
    return normalize(
        SampledWaveFunction(grid, np.exp(-((grid.points - 3.0) ** 2) / (4.0 * 36.0)))
    )


def _joint_error(psi, sigma_a, sigma_b, n_out):
    """The joint density's largest miss of `closed_form_joint`, over its maximum."""
    x3_values, p4_values = _outcome_values(psi, sigma_a, sigma_b, n_out)
    density = _outcome_density(psi, sigma_a, sigma_b, x3_values, p4_values)
    exact = closed_form_joint(psi, regime_for(sigma_a, sigma_b), x3_values, p4_values)
    assert np.all(density >= 0.0)
    return np.max(np.abs(density / density.max() - exact / exact.max()))


@pytest.mark.parametrize("dx", [0.25, 0.5, 1.0])
@pytest.mark.parametrize(
    "sigma_a",
    [1e-3, 8e-4, 4e-4, 1e-4, 1e-5, 1e-8, 1e-12],
    # Each id keeps the bound the replaced pair table was held to at that
    # sigma_a; the windowed density meets 1e-12 at every one.
    ids=["0.001-1e-10", "0.0008-9e-05", "0.0004-9e-05", "0.0001-9e-05",
         "1e-05-1e-12", "1e-08-1e-12", "1e-12-1e-12"],
)
def test_joint_density_matches_the_closed_form(dx, sigma_a):
    # sigma_a from 1e-3 down to 1e-12 at sigma_b = 8.4 (mu up to 1.3e23), on
    # grid steps of 0.25 to 1.  The pair table this replaced missed by
    # 8.95e-5 from sigma_a = 8e-4 to 1e-4.
    assert _joint_error(_gaussian_packet_on(dx), sigma_a, 8.4, 257) <= 1e-12


@pytest.mark.parametrize("dx", [0.25, 0.5, 1.0])
@pytest.mark.parametrize(
    "sigma_a, sigma_b",
    [(0.02, 0.02), (0.1, 0.1), (0.3, 0.3), (1.0, 1.0), (5.0, 5.0),
     (0.1, 0.12), (5.0, 5.5), (8.4, 0.185), (3.0, 1e-3), (1e-3, 1e-3)],
)
def test_joint_density_matches_the_closed_form_at_paired_widths(dx, sigma_a, sigma_b):
    # sigma_a = sigma_b from 0.02 to 5 (mu = 0, the Husimi function), close
    # and crossed widths, and both widths below dx (F up to 4096), on grid
    # steps of 0.25 to 1.  The pair table this replaced missed by up to 1.0
    # of the maximum with both widths below dx.
    assert _joint_error(_gaussian_packet_on(dx), sigma_a, sigma_b, 257) <= 1e-12


@settings(max_examples=30)
@given(
    dx=st.floats(0.25, 1.0),
    log_a=st.floats(np.log(0.01), np.log(20.0)),
    log_b=st.floats(np.log(0.01), np.log(20.0)),
    equal=st.booleans(),
)
@example(dx=1.0, log_a=np.log(0.02), log_b=np.log(0.02), equal=True)  # both below dx
@example(dx=0.5, log_a=np.log(8.4), log_b=np.log(0.185), equal=False)  # sigma_a > sigma_b
def test_joint_density_matches_the_closed_form_at_any_widths(dx, log_a, log_b, equal):
    # Both widths log-uniform from 0.01 to 20, at times equal (mu = 0).
    sigma_a = float(np.exp(log_a))
    sigma_b = sigma_a if equal else float(np.exp(log_b))
    assert _joint_error(_gaussian_packet_on(dx), sigma_a, sigma_b, 65) <= 1e-12


def _doubling_factor(psi, regime):
    """The lattice factor as the doubling loop over the window's alias bound finds it."""
    lam_s = _lambda_coefficients(regime.sigma_a, regime.sigma_b)[0]
    factor = 1
    while not _dx_rows_alias_free(2.0 * lam_s, psi.grid.dx / factor):
        factor *= 2
    return factor


def _logged_factor(psi, regime, values):
    """The lattice factor F the outcome density of a single draw logs."""
    x3_values, p4_values = (
        (np.zeros(1), values) if regime.sigma_b == np.inf else (values, np.zeros(1))
    )
    _, logged = _logged_density(
        _outcome_density, psi, regime.sigma_a, regime.sigma_b, x3_values, p4_values
    )
    return logged[1]


@settings(max_examples=60)
@given(
    log2_n=st.integers(6, 10),
    dx=st.floats(0.05, 2.0),
    cut=st.tuples(st.floats(0.0, 0.45), st.floats(0.55, 1.0)),
    log_a=st.floats(np.log(1e-4), np.log(3.0)),
    log_b=st.floats(np.log(0.02), np.log(20.0)),
)
def test_marginal_lattice_factor_matches_the_doubling_loop(log2_n, dx, cut, log_a, log_b):
    # sigma_a from 1e-4 to 3 spans (p4, whose flat window needs F = 1),
    # sigma_b/dx from 0.02 to 20 (x3 refines up to 256-fold), on inputs cut to
    # part of the grid
    g = GridSpec(-(2**log2_n) * dx / 2.0, dx, 2**log2_n)
    kept = (np.arange(g.n) >= cut[0] * g.n) & (np.arange(g.n) < cut[1] * g.n)
    rng = np.random.default_rng(log2_n)
    psi = SampledWaveFunction(g, np.where(kept, rng.normal(size=g.n) + 1.0, 0.0))
    values = np.linspace(-1.0, 1.0, 9)
    for params in [
        regime_for(g.span * float(np.exp(log_a)), np.inf),
        regime_for(0.0, dx * float(np.exp(log_b))),
    ]:
        assert _logged_factor(psi, params, values) == _doubling_factor(psi, params)


def test_transform_length_is_the_least_power_of_two_past_the_lags():
    # N, checked against a doubling loop over rows + d_max/h, on draws at
    # F = 1 and 4, with d_max set by the rows (mu = 0 at equal widths) or by
    # the smoothing's reach
    psi = load_signal(bundled_silhouette_path(), GridSpec(-1024.0, 0.5, 4096))
    values = np.linspace(-2.0, 2.0, 5)
    for sigma_a, sigma_b in [(0.185, 8.4), (5.0, 5.0), (0.185, np.inf), (0.5, 0.3), (40.0, 50.0)]:
        x3 = values if sigma_b < np.inf else np.zeros(1)
        _, (_, factor, rows, size, _, _) = _logged_density(
            _outcome_density, psi, sigma_a, sigma_b, x3, values
        )
        mu = _lambda_coefficients(sigma_a, sigma_b)[1]
        h = psi.grid.dx / factor
        with np.errstate(divide="ignore"):
            d_max = min(np.sqrt(-np.log(np.finfo(float).eps) / mu), rows * h)
        reach = rows + d_max / h
        want = 1
        while want < reach:
            want *= 2
        assert size == want, (sigma_a, sigma_b)


def test_marginal_budget_error_names_what_the_draw_needs():
    # sigma_b = 1e-4 asks the x3-only draw for the silhouette's 262144
    # points refined 32768-fold, 2^33 rows of the interpolant at 40 B each
    # (343597 MB) plus one block of rows; the message names that whole size.
    psi = load_signal(bundled_silhouette_path(), GridSpec(-65536.0, 0.5, 262144))
    with pytest.raises(OutcomeTooLargeError, match=r"needs about 343598 MB, over the 1074"):
        sample_outcomes(psi, regime_for(0.0, 1e-4), seed=1, count=1)


def test_outcome_density_over_budget_fails_before_allocating():
    # On 262144 points every draw reads only the rows within its window's
    # reach of each x3, and at F = 1 only the input's 201 nonzero samples:
    # sigma_a = sigma_b = 5 reads 170 rows, and sigma_b = 5000 all 201, so
    # both joint draws fit, as do sigma_a = 1e7 (p4 only) and the x3-only
    # draws.  A density whose rows would outgrow the budget is refused before
    # they are built: sigma_a = sigma_b = 1e-5 would refine the input to
    # dx/262144, and sigma_b = 1e-4 (x3 only) to dx/32768.
    grid = GridSpec(-65536.0, 0.5, 262144)
    psi = load_signal(bundled_silhouette_path(), grid)
    for sigma_a, sigma_b in [(5.0, 5.0), (0.0, 5.0), (5.0, 5000.0)]:
        params = regime_for(sigma_a, sigma_b)
        assert _peak_bytes(sample_outcomes, psi, params, 1, 1) < 60e6
    for sigma_a, sigma_b in [(0.0, 5000.0), (5.0, np.inf), (1e7, np.inf)]:
        params = regime_for(sigma_a, sigma_b)
        assert _peak_bytes(sample_outcomes, psi, params, 1, 1) < 30e6

    def refuse_all():
        for params in [regime_for(1e-5, 1e-5), regime_for(0.0, 1e-4)]:
            with pytest.raises(OutcomeTooLargeError, match="budget"):
                sample_outcomes(psi, params, seed=1, count=1)

    assert _peak_bytes(refuse_all) < 50e6

    scenarios = [
        Scenario("too_big", regime_for(1e-5, 1e-5), None, None, seed=1),
        Scenario(
            "fits", regime_for(5.0, 5.0), None, None, seed=1, grid=GridSpec(-256.0, 0.5, 1024)
        ),
    ]
    # as `teleport run` does: a scenario grid gets the file placed on that grid
    too_big, fits = list(run_sweep(
        scenarios,
        lambda grid: psi if grid is None else load_signal(bundled_silhouette_path(), grid),
    ))
    assert too_big.error.startswith("OutcomeTooLargeError: ")
    assert not fits.failed


def test_build_distribution_tabulates_the_proper_coordinate_alone(packet):
    # One ideal width leaves the conjugate coordinate improper: one cell at
    # 0 with step 0.  The proper one gets 1025 cells, and its density
    # integrates to 1 and is the Gaussian packet's closed-form marginal.
    for params in [regime_for(0.5, np.inf), regime_for(0.0, 1.0)]:
        dist = build_outcome_distribution(packet, params)
        axes = [(dist.x3_values, dist.x3_step), (dist.p4_values, dist.p4_step)]
        if params.sigma_b == np.inf:  # x3 is the improper coordinate
            axes.reverse()
        (values, step), (improper, improper_step) = axes
        assert improper.tolist() == [0.0] and improper_step == 0.0
        assert values.size == _MARGINAL_CELLS
        density = dist.density.ravel()
        assert density.sum() * step == pytest.approx(1.0, abs=1e-12)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)
        # the table holds +-6 std, so it misses the 2e-9 of mass beyond them
        exact = closed_form_marginal(packet, params, values)
        assert np.max(np.abs(density - exact)) <= 1e-8 * exact.max()
    ideal = regime_for(0.0, np.inf)
    with pytest.raises(IdealChannelOutcomeUnboundedError):
        build_outcome_distribution(packet, ideal)
    with pytest.raises(IdealChannelOutcomeUnboundedError):
        sample_outcomes(packet, ideal, seed=1, count=10)


def test_sampling_statistics_match_analytics(packet):
    params = regime_for(0.7, 2.0)
    n = 100_000
    x3, p4 = sample_outcomes(packet, params, seed=77, count=n)
    mx3, vx3, mp4, vp4 = outcome_moments(moments(packet), params)
    assert x3.mean() == pytest.approx(mx3, abs=3 * np.sqrt(vx3 / n))
    assert p4.mean() == pytest.approx(mp4, abs=3 * np.sqrt(vp4 / n))
    # in-cell jitter widens the variance by cell^2/12, inside the 3 SE band
    assert x3.var() == pytest.approx(vx3, rel=0.05)
    assert p4.var() == pytest.approx(vp4, rel=0.05)


@settings(max_examples=20)
@given(
    log_a=st.floats(np.log(0.05), np.log(5.0)),
    log_b=st.floats(np.log(0.05), np.log(5.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_means_match_the_outcome_moments(log_a, log_b, seed):
    # A smooth random two-packet state; widths from 0.4 dx to 40 dx.  For the
    # joint, the p4-only and the x3-only draw, each random coordinate's
    # sample mean lies within 5 standard errors of `outcome_moments`.
    psi = random_state(GridSpec(-32.0, 0.125, 512), np.random.default_rng(seed))
    sigma_a, sigma_b = float(np.exp(log_a)), float(np.exp(log_b))
    count = 4000
    for params in [
        regime_for(sigma_a, sigma_b),
        regime_for(sigma_a, np.inf),
        regime_for(0.0, sigma_b),
    ]:
        x3, p4 = sample_outcomes(psi, params, seed=seed, count=count)
        mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
        if not params.sigma_b == np.inf:
            assert abs(x3.mean() - mean_x3) <= 5.0 * np.sqrt(var_x3 / count), params
        if not params.sigma_a == 0.0:
            assert abs(p4.mean() - mean_p4) <= 5.0 * np.sqrt(var_p4 / count), params


def test_sampling_is_deterministic(packet):
    params = regime_for(0.7, 2.0)
    a = sample_outcomes(packet, params, seed=5, count=1000)
    b = sample_outcomes(packet, params, seed=5, count=1000)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    single = sample_outcomes(packet, params, seed=5, count=1)
    one = sample_outcome(packet, params, seed=5)
    assert one.x3 == single[0][0] and one.p4 == single[1][0]


def test_sampling_with_ideal_wide_pins_x3(packet):
    params = regime_for(0.5, np.inf)
    x3, p4 = sample_outcomes(packet, params, seed=3, count=20_000)
    assert np.all(x3 == 0.0)
    m = moments(packet)
    vp4 = m.std_p**2 / 2 + 1 / (8 * 0.5**2)
    assert p4.var() == pytest.approx(vp4, rel=0.05)


def test_sampling_with_ideal_narrow_pins_p4(packet):
    params = regime_for(0.0, 3.0)
    x3, p4 = sample_outcomes(packet, params, seed=3, count=20_000)
    assert np.all(p4 == 0.0)
    m = moments(packet)
    vx3 = m.std_x**2 / 2 + 3.0**2 / 8
    assert x3.var() == pytest.approx(vx3, rel=0.05)


def _chirped_packet():
    """psi ~ exp(-x^2/(4 w^2) + i kappa x^2), w^2 = 32, kappa = 0.05, and kappa w^2."""
    g = GridSpec(-1024.0, 0.5, 4096)
    amplitudes = np.exp(-(g.points**2) / 128.0 + 0.05j * g.points**2)
    return normalize(SampledWaveFunction(g, amplitudes)), 0.05 * 32.0


@pytest.mark.parametrize("spread", [-2.0, 0.0, 1.5])
def test_fixed_x3_draws_p4_from_its_conditional_density(spread):
    # The chirp correlates x1 with p1, so Cov(x3, p4) = kappa w^2 and p4
    # given x3 is N(mean_p4 + c (x3 - mean_x3)/var_x3, var_p4 - c^2/var_x3);
    # the marginal would centre every row on mean_p4.  Measured: 7.3e-16.
    psi, c = _chirped_packet()
    params = regime_for(0.185, 8.4)
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
    x3 = mean_x3 + spread * np.sqrt(var_x3)
    dist = build_outcome_distribution(psi, params, x3=x3)
    assert dist.x3_values.tolist() == [x3] and dist.x3_step == 0.0
    assert dist.density.shape == (1, _MARGINAL_CELLS)
    mean = mean_p4 + c * (x3 - mean_x3) / var_x3
    want = np.exp(-((dist.p4_values - mean) ** 2) / (2.0 * (var_p4 - c**2 / var_x3)))
    row, want = dist.density[0] / dist.density.sum(), want / want.sum()
    assert np.max(np.abs(row - want)) <= 5e-15 * want.max()
    x3_drawn, _ = sample_outcomes(psi, params, seed=2, count=3, x3=x3)
    assert x3_drawn.tolist() == [x3] * 3


def test_fixed_coordinate_of_zero_probability_is_refused():
    # x3 = 1e6 leaves every window past the input, so the density sums to 0;
    # p4 = 1e6 lies past pi/h + 2 sqrt(mu ln(1/eps)), so no q is tabulated
    psi, _ = _chirped_packet()
    for fixed in ({"x3": 1e6}, {"p4": 1e6}):
        with pytest.raises(ZeroNormError, match="outcome density vanished"):
            sample_outcome(psi, regime_for(0.185, 8.4), seed=1, **fixed)


@pytest.mark.parametrize("axis", ["x3", "p4"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_fixed_coordinate_is_refused(axis, value):
    # a fixed coordinate keeps MeasurementOutcome's rule whether the other is
    # drawn or fixed, so a sweep stops on it by name in either case
    psi = gaussian_packet(GridSpec(-64.0, 0.25, 512), 3.0, 2.0)
    regime = regime_for(0.5, 2.0)
    with pytest.raises(ValueError, match="measurement outcomes must be finite"):
        build_outcome_distribution(psi, regime, **{axis: value})
    for other in (None, 0.0):
        x3, p4 = (value, other) if axis == "x3" else (other, value)
        with pytest.raises(ValueError, match="measurement outcomes must be finite"):
            list(run_sweep([Scenario("s", regime, x3, p4, seed=1)], lambda grid: psi))


def test_fixed_improper_coordinate_is_kept_whatever_its_size():
    # the density ignores an improper coordinate, so even 1e300 draws
    psi, _ = _chirped_packet()
    x3, p4 = sample_outcomes(psi, regime_for(0.185, np.inf), 1, 3, x3=1e300)
    assert x3.tolist() == [1e300] * 3 and np.all(np.isfinite(p4))
    x3, p4 = sample_outcomes(psi, regime_for(0.0, 8.4), 1, 3, p4=-1e300)
    assert p4.tolist() == [-1e300] * 3 and np.all(np.isfinite(x3))


def test_doubly_ideal_channel_not_samplable(packet):
    with pytest.raises(IdealChannelOutcomeUnboundedError):
        sample_outcomes(packet, regime_for(0.0, np.inf), seed=1, count=10)


def test_probable_band_coverage_strong_squeezing(packet):
    # |p4| <= 1/sigma_a captures at least 95% of the mass
    sigma_a = 1 / 180.0
    x3, p4 = sample_outcomes(packet, regime_for(sigma_a, np.inf), 11, 50_000)
    assert np.mean(np.abs(p4) <= 1.0 / sigma_a) >= 0.95


def test_seeded_draws_are_frozen(packet):
    # Values recorded before the outcome-density code was refactored; any
    # change to the tabulated density or to the sampler shows up here.
    x3, p4 = sample_outcomes(packet, regime_for(0.4, 2.5), seed=7, count=4)
    assert x3.tolist() == [
        0.8912376438701297, 1.8761711822860867, 1.3079869089671898, -0.1849225255761894
    ]
    assert p4.tolist() == [
        -0.41664545246061274, 0.2857098466231387, 0.6129343667250595, -0.44147508724690776
    ]
    x3, p4 = sample_outcomes(packet, regime_for(0.4, np.inf), seed=7, count=4)
    assert x3.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert p4.tolist() == [
        0.31862280021841344, 1.288435478396001, 0.7668925648324717, -0.7570665159352675
    ]
    x3, p4 = sample_outcomes(packet, regime_for(0.0, 2.5), seed=7, count=4)
    assert x3.tolist() == [
        0.8843082251676513, 1.8541209033452388, 1.3325779897817096, -0.19138109098602973
    ]
    assert p4.tolist() == [0.0, 0.0, 0.0, 0.0]
