import hashlib
import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvteleport import (
    GridSpec,
    IDEAL,
    IdealChannelOutcomeUnboundedError,
    OutcomeTooLargeError,
    SampledWaveFunction,
    SampleWithSeed,
    Scenario,
    SentinelNotMaterializableError,
    SqueezingParams,
    build_outcome_distribution,
    gaussian_packet,
    load_signal,
    moments,
    normalize,
    run_sweep,
    sample_outcome,
    sample_outcomes,
    to_momentum,
)
from cvteleport import channel
from cvteleport.channel import (
    OUTCOME_MAX_BYTES,
    _MARGINAL_CELLS,
    _PairCorrelation,
    _SQRT2,
    _centered_grid,
    _contract_envelope,
    _dx_rows_alias_free,
    _envelope_block_rows,
    _envelope_window,
    _lambda_coefficients,
    _least_power_of_two,
    _marginal_density,
    _outcome_density,
    _sample_cells,
    outcome_moments,
)
from cvteleport.signals import bundled_silhouette_path
from conftest import closed_form_joint, closed_form_marginal


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

    # an ideal sigma_b leaves the p4 marginal, the same at every x3
    p4s = dist.p4_values[[12, 20, 32, 50]]
    brute_vals = np.array([brute(0.0, p4, np.inf) for p4 in p4s])
    p4_only = SqueezingParams(sa, IDEAL)
    ratios = brute_vals / channel._marginal_density(psi, p4_only, p4s)
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-9

    # the chirp's symmetrized x-p covariance carries through at half weight
    X3, P4 = np.meshgrid(dist.x3_values, dist.p4_values, indexing="ij")
    w = dist.density * dist.x3_step * dist.p4_step
    mx, mp = np.sum(X3 * w), np.sum(P4 * w)
    cov = np.sum((X3 - mx) * (P4 - mp) * w)
    assert cov == pytest.approx(beta * moments(psi).std_x ** 2, rel=1e-5)


def _one_shot_envelope(rows, centres, lam):
    """exp(-lam*(r - c)^2) on centres x rows, whole."""
    return np.exp(-lam * (rows[None, :] - np.asarray(centres)[:, None]) ** 2)


@pytest.mark.parametrize(
    "n_x3, blocks, extra_rows, lam_s, cols",
    [
        (257, 0, 1000, 0.01, 82),  # a window smaller than one block
        (257, 1, 0, 0.01, 82),  # exactly one block
        (257, 1, 1, 0.01, 82),  # one block and one row
        (_MARGINAL_CELLS, 0, 2500, 2.0 * 0.185**2, 1),  # the p4-only marginal
        (_MARGINAL_CELLS, 3, 5, 1.0 / (2.0 * 8.4**2), 1),  # the x3-only marginal
    ],
    ids=["under-one-block", "one-block", "one-block-plus-one", "p4-only", "x3-only"],
)
def test_blocked_contraction_matches_one_shot(n_x3, blocks, extra_rows, lam_s, cols):
    rows = blocks * _envelope_block_rows(n_x3) + extra_rows
    rng = np.random.default_rng(rows)
    s_values = -512.0 + 0.5 * np.arange(rows)
    centres = np.linspace(s_values[0], s_values[-1], n_x3)
    table = rng.normal(size=(rows, cols))
    if cols == 1:  # the marginals contract probabilities
        table = np.abs(table)
    reference = _one_shot_envelope(s_values, centres, lam_s) @ table
    got = _contract_envelope(s_values, centres, lam_s, table)
    assert got.shape == reference.shape == (n_x3, cols)
    assert np.max(np.abs(got - reference)) <= 1e-15 * np.max(np.abs(reference))


def _peak_bytes(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_outcome_density_memory_is_bounded():
    # the silhouette at sigma_a = 0.185, sigma_b = 8.4: the envelope reaches
    # 1637 of 8192 s rows spaced dx, so a 1637 x 43 pair table (1.1 MB)
    # contracted in 257 x 2040 envelope blocks (4.2 MB); peak 4.9 MB
    psi = load_signal(bundled_silhouette_path(), GridSpec(-1024.0, 0.5, 4096))
    params = SqueezingParams(0.18518518518518517, 8.4)
    assert _peak_bytes(build_outcome_distribution, psi, params) < 8e6


def test_fig9b_outcome_density_memory_is_bounded():
    # 16335 of 32768 s rows spaced dx: a 16335 x 41 pair table (10.7 MB) and
    # one 257 x 2040 envelope block, peak 15.6 MB, where the same window on
    # rows spaced dx/2 peaked at 28 MB, the whole 257 x 32670 envelope at
    # 91 MB and the whole lattice at 180 MB
    psi = load_signal(bundled_silhouette_path(), GridSpec(-4096.0, 0.5, 16384))
    params = SqueezingParams(1 / 180.0, 280.0)
    assert _peak_bytes(build_outcome_distribution, psi, params) < 25e6


def _lattice(psi, pair):
    """The upsampling factor and the s-row stride that ``pair`` chose."""
    h = (pair.d_values[1] - pair.d_values[0]) / 2.0
    return int(round(psi.grid.dx / h)), int(round(pair.s_weight / (2.0 * h)))


def _whole_grid_pair_table(psi, factor, stride, half_steps):
    """The pair table by the direct route, on every s row of the lattice.

    Upsample the whole input by `factor` through its zero-padded spectrum,
    then pair each window of the zero-padded result with its mirror, keeping
    every `stride`-th window.
    """
    g = psi.grid
    big, half = g.n * factor, g.n // 2
    phi = to_momentum(psi)
    raw = np.fft.ifftshift(phi.amplitudes * np.exp(1j * phi.grid.points * g.x_min))
    spectrum = np.zeros(big, dtype=np.complex128)
    spectrum[:half] = raw[:half]
    spectrum[big - half :] = raw[half:]
    fine = np.fft.ifft(spectrum) * (big * g.dp / np.sqrt(2.0 * np.pi))
    win = np.lib.stride_tricks.sliding_window_view(
        np.pad(fine, half_steps), 2 * half_steps + 1
    )[::stride]
    return win * np.conj(win[:, ::-1])


def _every_row(rows, centres, lam):
    """An envelope window opened to every row of the lattice."""
    return slice(0, len(rows))


def _check_pair_table(psi, sigma_a, sigma_b):
    lam_d, lam_s = _lambda_coefficients(sigma_a, sigma_b)
    with mock.patch.object(channel, "_envelope_window", _every_row):
        pair = _PairCorrelation(psi, lam_d, np.zeros(1), lam_s)
    factor, stride = _lattice(psi, pair)
    reference = _whole_grid_pair_table(psi, factor, stride, pair.d_values.size // 2)
    shape = (pair.s_values.size, pair.d_values.size)
    assert pair.table.shape == reference.shape == shape
    err = np.max(np.abs(pair.table - reference))
    assert err <= 1e-14 * np.max(np.abs(reference))
    return factor, stride, pair.d_values.size


@pytest.mark.parametrize(
    "grid, sigma_a, sigma_b, factor, stride, n_d",
    [
        # fig9b: 41 residues of stride 128, each one 32768-point transform
        (GridSpec(-4096.0, 0.5, 16384), 1 / 180.0, 280.0, 256, 128, 41),
        # more columns than residues: each phase serves about 11 columns
        (GridSpec(-1024.0, 0.5, 4096), 0.18518518518518517, 8.4, 8, 4, 43),
        # a resolved sigma_a: one transform, the whole fine grid
        (GridSpec(-1024.0, 0.5, 4096), 5.0, 5.0, 2, 1, 199),
        # a sigma_a far below dx: factor 2048, 25 of its 1024 residues used
        (GridSpec(-1024.0, 0.5, 4096), 0.0004, 8.4, 2048, 1024, 25),
    ],
    ids=["fig9b", "moderate", "resolved", "deep-subgrid"],
)
def test_pair_table_matches_whole_grid_upsampling(
    grid, sigma_a, sigma_b, factor, stride, n_d
):
    psi = load_signal(bundled_silhouette_path(), grid)
    assert _check_pair_table(psi, sigma_a, sigma_b) == (factor, stride, n_d)


@settings(max_examples=40)
@given(
    log2_n=st.integers(4, 8),
    dx=st.floats(0.05, 1.0),
    log_sigma_a=st.floats(-7.0, 1.5),
    sigma_b=st.floats(0.1, 50.0),
    sparse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_table_matches_whole_grid_upsampling_on_random_inputs(
    log2_n, dx, log_sigma_a, sigma_b, sparse, seed
):
    rng = np.random.default_rng(seed)
    n = 2**log2_n
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    if sparse:
        amps[rng.random(n) < 0.8] = 0.0
        amps[n // 2] = 1.0
    psi = SampledWaveFunction(GridSpec(-n * dx / 2.0, dx, n), amps)
    _check_pair_table(psi, float(np.exp(log_sigma_a)), sigma_b)


def test_pair_table_memory_is_bounded():
    # fig9b: a 32768 x 41 table (21.5 MB) from 41 short transforms, peak
    # 25.3 MB; the whole-grid route peaked at 178 MB on its 4.2M-point
    # upsampling
    psi = load_signal(bundled_silhouette_path(), GridSpec(-4096.0, 0.5, 16384))
    lam_d, lam_s = _lambda_coefficients(1 / 180.0, 280.0)
    with mock.patch.object(channel, "_envelope_window", _every_row):
        assert _peak_bytes(_PairCorrelation, psi, lam_d, np.zeros(257), lam_s) < 40e6


def _outcome_values(psi, sigma_a, sigma_b, n_out):
    """The x3 and p4 rows of the outcome grid."""
    params = SqueezingParams(sigma_a, sigma_b)
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
    p4_values = _centered_grid(mean_p4, np.sqrt(var_p4), n_out)[0]
    return _centered_grid(mean_x3, np.sqrt(var_x3), n_out)[0], p4_values


def _density_from(G, lam_d, d_values, p4_values):
    """The density from the envelope-summed pair correlation G: (n_x3, n_p4)."""
    phase = np.exp(-lam_d * d_values**2)[:, None] * np.exp(
        -1j * _SQRT2 * np.multiply.outer(d_values, p4_values)
    )
    return np.clip(np.real(G @ phase), 0.0, None)


def _windowed_against_whole_lattice(psi, sigma_a, sigma_b, n_out=257):
    """`_outcome_density` against the same contraction over every s row.

    The reference is `_PairCorrelation` with the window opened to every row
    of the lattice that lam_s picks.  Asserts agreement to 1e-14 of the
    density maximum and returns the rows the envelope's window kept and the
    rows of the whole lattice.
    """
    x3_values, p4_values = _outcome_values(psi, sigma_a, sigma_b, n_out)
    lam_d, lam_s = _lambda_coefficients(sigma_a, sigma_b)
    centres = 2.0 * _SQRT2 * x3_values
    with mock.patch.object(channel, "_envelope_window", _every_row):
        whole = _PairCorrelation(psi, lam_d, centres, lam_s)
    env = _one_shot_envelope(whole.s_values, centres, lam_s)
    G = (env @ whole.table.view(np.float64)).view(np.complex128) * whole.s_weight
    reference = _density_from(G, lam_d, whole.d_values, p4_values)
    density = _outcome_density(psi, sigma_a, sigma_b, x3_values, p4_values)
    assert np.max(np.abs(density - reference)) <= 1e-14 * reference.max()
    window = _envelope_window(whole.s_values, centres, lam_s)
    return window.stop - window.start, whole.s_values.size


@pytest.mark.parametrize(
    "grid, sigma_a, sigma_b, kept, rows",
    [
        (GridSpec(-4096.0, 0.5, 16384), 1 / 180.0, 280.0, 16335, 32768),
        (GridSpec(-1024.0, 0.5, 4096), 0.18518518518518517, 8.4, 1637, 8192),
        # lam_s over the bound: rows spaced dx/2
        (GridSpec(-512.0, 0.5, 2048), 0.3, 0.3, 2702, 8192),
    ],
    ids=["fig9b", "moderate", "half-dx"],
)
def test_windowed_density_matches_whole_lattice(grid, sigma_a, sigma_b, kept, rows):
    psi = load_signal(bundled_silhouette_path(), grid)
    assert _windowed_against_whole_lattice(psi, sigma_a, sigma_b) == (kept, rows)


@settings(max_examples=40)
@given(
    log2_n=st.integers(9, 12),
    dx_frac=st.floats(0.0, 1.0),
    log_sigma_a=st.floats(-6.0, 1.0),
    log_sigma_b=st.floats(-1.0, 3.0),
    width=st.floats(0.5, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_windowed_density_matches_whole_lattice_on_localized_inputs(
    log2_n, dx_frac, log_sigma_a, log_sigma_b, width, seed
):
    # Noise under a Gaussian of the given width.  The window spans about
    # 14.5 hypot(sigma_a, sigma_b) + 6 width in x, so the smallest dx is
    # chosen to leave part of the grid outside it.
    n = 2**log2_n
    sigma_a, sigma_b = float(np.exp(log_sigma_a)), float(np.exp(log_sigma_b))
    min_dx = max(0.1, (16.0 * np.hypot(sigma_a, sigma_b) + 10.0 * width) / n)
    dx = min_dx + dx_frac * (1.0 - min_dx)
    grid = GridSpec(-n * dx / 2.0, dx, n)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi = SampledWaveFunction(grid, amps * np.exp(-((grid.points / width) ** 2)))
    kept, rows = _windowed_against_whole_lattice(psi, sigma_a, sigma_b, n_out=33)
    assert 0 < kept < rows


def _half_dx_density(psi, sigma_a, sigma_b, x3_values, p4_values):
    """The outcome density over every s row spaced dx/2.

    The pair table comes from `_whole_grid_pair_table` at the upsampling
    factor `_PairCorrelation` picks, with stride factor/4: the lattice it
    keeps where `_dx_rows_alias_free` fails.
    """
    lam_d, lam_s = _lambda_coefficients(sigma_a, sigma_b)
    centres = 2.0 * _SQRT2 * x3_values
    pair = _PairCorrelation(psi, lam_d, centres, lam_s)
    factor = _lattice(psi, pair)[0]
    stride = factor // 4
    table = _whole_grid_pair_table(psi, factor, stride, pair.d_values.size // 2)
    step = 2.0 * psi.grid.dx / factor * stride
    s_values = 2.0 * psi.grid.x_min + step * np.arange(table.shape[0])
    G = _contract_envelope(s_values, centres, lam_s, table.view(np.float64))
    return _density_from(G.view(np.complex128) * step, lam_d, pair.d_values, p4_values)


def _check_dx_rows(psi, sigma_a, sigma_b, n_out):
    """Rows spaced dx where the bound holds, within 1e-14 of the dx/2 reference."""
    lam_d, lam_s = _lambda_coefficients(sigma_a, sigma_b)
    assert _dx_rows_alias_free(lam_s, psi.grid.dx)
    x3_values, p4_values = _outcome_values(psi, sigma_a, sigma_b, n_out)
    pair = _PairCorrelation(psi, lam_d, 2.0 * _SQRT2 * x3_values, lam_s)
    factor, stride = _lattice(psi, pair)
    assert factor >= 4 and stride == factor // 2
    density = _outcome_density(psi, sigma_a, sigma_b, x3_values, p4_values)
    reference = _half_dx_density(psi, sigma_a, sigma_b, x3_values, p4_values)
    assert np.max(np.abs(density - reference)) <= 1e-14 * reference.max()


@pytest.mark.parametrize(
    "grid, sigma_a, sigma_b, n_out",
    [
        (GridSpec(-4096.0, 0.5, 16384), 1 / 180.0, 280.0, 257),
        (GridSpec(-1024.0, 0.5, 4096), 0.18518518518518517, 8.4, 257),
    ],
    ids=["fig9b", "moderate"],
)
def test_dx_rows_match_half_dx_reference(grid, sigma_a, sigma_b, n_out):
    psi = load_signal(bundled_silhouette_path(), grid)
    _check_dx_rows(psi, sigma_a, sigma_b, n_out)


@settings(max_examples=40)
@given(
    log2_n=st.integers(8, 9),
    dx=st.floats(0.05, 1.0),
    log_ratio=st.floats(-4.6, -0.4),
    log_reach=st.floats(-3.0, -0.001),
    seed=st.integers(0, 2**32 - 1),
)
def test_dx_rows_match_half_dx_reference_on_random_inputs(
    log2_n, dx, log_ratio, log_reach, seed
):
    # Complex noise under a Gaussian fills the band up to its edge, where the
    # alias is largest.  sigma_a/dx runs from 0.01 to 0.67, so the factor is
    # 4 to 256, and sigma_b puts lam_s at exp(log_reach) of the bound, from
    # 0.05 to 1.  The envelope's window then stays inside the grid, where the
    # input's interpolant has decayed: an envelope that reaches the grid's
    # ends also sums the interpolant's cut there, which no s lattice sums
    # exactly.
    rng = np.random.default_rng(seed)
    n = 2**log2_n
    grid = GridSpec(-n * dx / 2.0, dx, n)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi = SampledWaveFunction(grid, amps * np.exp(-((32.0 * grid.points / (n * dx)) ** 2)))
    sigma_a = dx * float(np.exp(log_ratio))
    a = 1.0 / (4.0 * sigma_a**2)
    bound = np.pi**2 / (4.0 * -np.log(np.finfo(np.float64).eps) * dx**2)
    lam_s = float(np.exp(log_reach)) * bound
    # lam_s = 2ab/(a+b) solved for b = 1/(4 sigma_b^2)
    sigma_b = 1.0 / (2.0 * np.sqrt(lam_s * a / (2.0 * a - lam_s)))
    _check_dx_rows(psi, sigma_a, sigma_b, n_out=33)


def test_rows_stay_half_dx_where_the_bound_fails():
    # sigma_a = sigma_b = 0.3 on dx = 0.5: lam_s*dx^2 = 0.69, ten times the
    # bound, so the rows stay spaced dx/2 and the density is bitwise the one
    # recorded before rows spaced dx existed.
    psi = gaussian_packet(GridSpec(-32.0, 0.5, 128), 1.0, 3.0, 0.4)
    lam_d, lam_s = _lambda_coefficients(0.3, 0.3)
    assert not _dx_rows_alias_free(lam_s, psi.grid.dx)
    x3_values, p4_values = _outcome_values(psi, 0.3, 0.3, 33)
    pair = _PairCorrelation(psi, lam_d, 2.0 * _SQRT2 * x3_values, lam_s)
    assert _lattice(psi, pair) == (4, 1)
    density = _outcome_density(psi, 0.3, 0.3, x3_values, p4_values)
    assert hashlib.sha256(density.tobytes()).hexdigest() == (
        "ef67aa3db17340221974751b029c0231e824308847eede3bfa419b9778bc10a7"
    )
    reference = _half_dx_density(psi, 0.3, 0.3, x3_values, p4_values)
    assert np.max(np.abs(density - reference)) <= 1e-14 * reference.max()


def test_x3_only_marginal_contracts_only_the_input_support():
    # The 4096-point x3-only scenario: the envelope's window holds 821 rows,
    # of which the silhouette's 201 samples are the only nonzero weights.
    # Leaving the zero rows out keeps the marginal and the draws.
    psi = load_signal(bundled_silhouette_path(), GridSpec(-1024.0, 0.5, 4096))
    calls = []

    def spy(*args):
        calls.append((args, _contract_envelope(*args)))
        return calls[-1][1]

    with mock.patch.object(channel, "_contract_envelope", spy):
        x3, _ = sample_outcomes(psi, SqueezingParams(IDEAL, 8.4), seed=1, count=1000)
    ((s_values, centres, lam_s, weights), density), = calls
    assert weights.shape == (201, 1) and weights[0, 0] > 0.0 and weights[-1, 0] > 0.0
    s_all = 2.0 * psi.grid.points
    window = _envelope_window(s_all, centres, lam_s)
    assert window.stop - window.start == 821
    reference = _contract_envelope(
        s_all[window], centres, lam_s, psi.probability()[window, None]
    )
    assert np.max(np.abs(density - reference)) <= 1e-15 * reference.max()
    mean_x3, var_x3 = outcome_moments(moments(psi), SqueezingParams(IDEAL, 8.4))[:2]
    values, step = _centered_grid(mean_x3, np.sqrt(var_x3), _MARGINAL_CELLS)
    assert np.array_equal(centres, 2.0 * _SQRT2 * values)
    rng = np.random.default_rng(1)
    cells = _sample_cells(reference[:, 0], rng, 1000)
    assert np.array_equal(x3, values[cells] + (rng.random(1000) - 0.5) * step)


def _drawn_marginal(psi, params):
    """The outcome cells a single-coordinate draw samples and their density."""
    with mock.patch.object(channel, "_sample_cells", wraps=_sample_cells) as spy:
        sample_outcomes(psi, params, seed=1, count=1)
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
    mean, var = (mean_p4, var_p4) if params.b_is_ideal else (mean_x3, var_x3)
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
        SqueezingParams(dx * float(np.exp(log_a)), IDEAL),
        SqueezingParams(IDEAL, dx * float(np.exp(log_b))),
    ]:
        values, density = _drawn_marginal(psi, params)
        exact = closed_form_marginal(psi, params, values)
        err = np.max(np.abs(density / density.max() - exact / exact.max()))
        assert err <= 1e-12, (params, err)


@pytest.mark.parametrize("dx", [0.25, 0.5, 1.0])
@pytest.mark.parametrize(
    "sigma_a, tol",
    [(1e-3, 1e-10), (8e-4, 9e-5), (4e-4, 9e-5), (1e-4, 9e-5),
     (1e-5, 1e-12), (1e-8, 1e-12), (1e-12, 1e-12)],
)
def test_joint_density_matches_the_closed_form(dx, sigma_a, tol):
    # The packet of the marginal test at sigma_b = 8.4 and sigma_a from 1e-3
    # down to 1e-12, on grid steps of 0.25 to 1: the pair table's factor runs
    # up to 2^41.  As a fraction of the maximum the density misses by at most
    # 5.3e-13 at sigma_a = 1e-5, 1e-8 and 1e-12 and by 4.9e-11 at 1e-3.
    # From 8e-4 to 1e-4 it misses by 8.95e-5, where the difference lattice's
    # step sits at 0.61 of the difference Gaussian's width and aliases the p4
    # phase near the outcome grid's edge: 9e-5 pins that known residual of
    # the factor rule (ROADMAP item 2) and tightens to 1e-12 once it is fixed.
    grid = GridSpec(-256.0 * dx, dx, 512)
    psi = normalize(
        SampledWaveFunction(grid, np.exp(-((grid.points - 3.0) ** 2) / (4.0 * 36.0)))
    )
    x3_values, p4_values = _outcome_values(psi, sigma_a, 8.4, 257)
    density = _outcome_density(psi, sigma_a, 8.4, x3_values, p4_values)
    exact = closed_form_joint(psi, SqueezingParams(sigma_a, 8.4), x3_values, p4_values)
    err = np.max(np.abs(density / density.max() - exact / exact.max()))
    assert err <= tol


def test_pair_table_transforms_only_the_residues_its_columns_use():
    # sigma_a = 1e-5 on the silhouette: the factor is 2^17, its stride 2^16
    # residues, and the 39 columns use 39 of them, one short transform each.
    psi = load_signal(bundled_silhouette_path(), GridSpec(-1024.0, 0.5, 4096))
    lam_d, lam_s = _lambda_coefficients(1e-5, 8.4)
    with mock.patch.object(channel.np.fft, "ifft", wraps=np.fft.ifft) as spy:
        pair = _PairCorrelation(psi, lam_d, np.zeros(1), lam_s)
    assert _lattice(psi, pair) == (2**17, 2**16)
    assert spy.call_count == pair.d_values.size == 39


def _doubling_factor(psi, params):
    """The marginal's lattice factor as the doubling loop found it."""
    g = psi.grid
    factor = 1
    if params.b_is_ideal:
        lam = 2.0 * params.sigma_a**2
        support = np.flatnonzero(psi.amplitudes)
        reach = 2.0 * np.sqrt(lam * -np.log(np.finfo(np.float64).eps))
        span_needed = (support[-1] - support[0] + 1) * g.dx + reach
        while not g.span * factor >= span_needed:
            factor *= 2
    else:
        lam = 1.0 / (2.0 * params.sigma_b**2)
        while not _dx_rows_alias_free(lam, g.dx / factor):
            factor *= 2
    return factor


def _logged_factor(psi, params, values):
    """The lattice factor `_marginal_density` reports in its DEBUG line."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("cvteleport.channel")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        _marginal_density(psi, params, values)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    (record,) = [r for r in records if r.msg.startswith("outcome marginal")]
    return record.args[1]


@settings(max_examples=60)
@given(
    log2_n=st.integers(6, 10),
    dx=st.floats(0.05, 2.0),
    cut=st.tuples(st.floats(0.0, 0.45), st.floats(0.55, 1.0)),
    log_a=st.floats(np.log(1e-4), np.log(3.0)),
    log_b=st.floats(np.log(0.02), np.log(20.0)),
)
def test_marginal_lattice_factor_matches_the_doubling_loop(log2_n, dx, cut, log_a, log_b):
    # sigma_a from 1e-4 to 3 spans (p4 pads up to 64-fold), sigma_b/dx from
    # 0.02 to 20 (x3 refines up to 128-fold), on inputs cut to part of the grid
    g = GridSpec(-(2**log2_n) * dx / 2.0, dx, 2**log2_n)
    kept = (np.arange(g.n) >= cut[0] * g.n) & (np.arange(g.n) < cut[1] * g.n)
    rng = np.random.default_rng(log2_n)
    psi = SampledWaveFunction(g, np.where(kept, rng.normal(size=g.n) + 1.0, 0.0))
    values = np.linspace(-1.0, 1.0, 9)
    for params in [
        SqueezingParams(g.span * float(np.exp(log_a)), IDEAL),
        SqueezingParams(IDEAL, dx * float(np.exp(log_b))),
    ]:
        assert _logged_factor(psi, params, values) == _doubling_factor(psi, params)


def test_least_power_of_two_settles_a_rounded_estimate():
    # an estimate one ulp off the threshold, either way, still gives the
    # least power of two the exact test accepts
    for k in range(60):
        for threshold in (2.0**k, np.nextafter(2.0**k, 0.0), np.nextafter(2.0**k, np.inf)):
            want = 1
            while not want >= threshold:
                want *= 2
            for estimate in (threshold, np.nextafter(threshold, 0.0),
                             np.nextafter(threshold, np.inf)):
                assert _least_power_of_two(estimate, lambda f: f >= threshold) == want
    assert _least_power_of_two(np.inf, lambda f: f >= np.inf) == np.inf
    assert _least_power_of_two(1e300, lambda f: f >= 1e300) == 2.0**997
    past = np.nextafter(2.0**1023, np.inf)  # its power of two overflows
    assert _least_power_of_two(past, lambda f: f >= past) == np.inf


def test_marginal_budget_error_names_what_the_draw_needs():
    # sigma_a = 1e7 pads the silhouette's 262144 points 2048-fold, to 2^29
    # points at 48 B each (25770 MB) plus one 4.2 MB envelope block; the
    # doubling loop this replaced named its first doubling over the budget
    # (128-fold, 1615 MB).
    psi = load_signal(bundled_silhouette_path(), GridSpec(-65536.0, 0.5, 262144))
    with pytest.raises(OutcomeTooLargeError, match=r"needs about 25774 MB, over the 1074"):
        sample_outcomes(psi, SqueezingParams(1e7, IDEAL), seed=1, count=1)


def test_outcome_density_over_budget_fails_before_allocating():
    # On 262144 points, sigma_a = sigma_b = 5 has a 524288-row s lattice, but
    # its envelope reaches only a few thousand rows: the joint draw fits.  At
    # sigma_b = 5000 the window holds 289349 rows, and the joint draw's
    # 289349 x 281 pair table alone (1.30 GB) is over the budget.  The
    # marginals have no pair table.  The x3-only draws contract the input's
    # probabilities over their 201 nonzero rows of the envelope's window (at
    # sigma_b = 5000, of 144849).  The p4-only draw contracts |phi|^2 over the
    # 82685 momentum rows its envelope reaches, where its 524288 x 281 pair
    # table (2.4 GB) was refused.  A marginal whose lattice would outgrow the
    # budget is refused before it is built: sigma_a = 1e7 would pad the input
    # to 2^29 points, and sigma_b = 1e-4 would refine it to dx/16384.
    grid = GridSpec(-65536.0, 0.5, 262144)
    psi = load_signal(bundled_silhouette_path(), grid)
    assert 289349 * 281 * 16 > OUTCOME_MAX_BYTES > 90e6
    for params in [SqueezingParams(5.0, 5.0), SqueezingParams(IDEAL, 5.0)]:
        assert _peak_bytes(sample_outcomes, psi, params, 1, 1) < 60e6
    for params in [SqueezingParams(IDEAL, 5000.0), SqueezingParams(5.0, IDEAL)]:
        assert _peak_bytes(sample_outcomes, psi, params, 1, 1) < 30e6

    def refuse_all():
        for params in [
            SqueezingParams(5.0, 5000.0),
            SqueezingParams(1e7, IDEAL),
            SqueezingParams(IDEAL, 1e-4),
        ]:
            with pytest.raises(OutcomeTooLargeError, match="budget"):
                sample_outcomes(psi, params, seed=1, count=1)

    assert _peak_bytes(refuse_all) < 50e6

    draw = SampleWithSeed(1)
    scenarios = [
        Scenario("too_big", SqueezingParams(5.0, 5000.0), draw),
        Scenario("fits", SqueezingParams(5.0, 5.0), draw, GridSpec(-128.0, 0.5, 512)),
    ]
    report = run_sweep(scenarios, psi)
    assert report.by_label("too_big").error.startswith("OutcomeTooLargeError: ")
    assert not report.by_label("fits").failed


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
