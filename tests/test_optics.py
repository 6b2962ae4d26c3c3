"""Tests of the references that conftest.py keeps: squeezed vacua, the beam
splitter, the closed-form EPR resource and the three-mode oracle."""

import numpy as np
import pytest

from cvteleport import (
    ConvolutionOnly,
    GridSpec,
    GridTooNarrowError,
    Ideal,
    MeasurementOutcome,
    ZeroNormError,
    gaussian_packet,
    moments,
    regime_for,
)
from cvteleport.analysis import fidelity

from conftest import (
    beam_splitter,
    epr_from_beam_splitter,
    epr_state,
    oracle_teleport,
    product_state,
    rel_l2,
    squeezed_vacuum,
    two_mode_norm,
)


def test_squeezing_params_validation():
    with pytest.raises(ValueError):
        regime_for(-1.0, 2.0)
    # sigma_b = inf is the ideal limit: the convolution-only regime
    assert regime_for(1.0, float("inf")) == ConvolutionOnly(1.0)
    p = regime_for(0.0, 280.0)
    assert p.sigma_a == 0.0 and p.sigma_b != np.inf


def test_squeezed_vacuum_unit_width():
    g = GridSpec(-16.0, 0.125, 256)
    m = moments(squeezed_vacuum(1.0, g))
    assert m.mean_x == pytest.approx(0.0, abs=1e-8)
    assert m.std_x == pytest.approx(1 / np.sqrt(2), abs=1e-8)
    assert m.std_p == pytest.approx(1 / np.sqrt(2), abs=1e-8)


def test_squeezed_vacuum_strong_x_squeezing():
    # sigma_a = 1/180 needs a fine grid; momentum spread is 180/sqrt(2)
    sigma = 1.0 / 180.0
    g = GridSpec(-0.75, 1.5 / 1024, 1024)
    m = moments(squeezed_vacuum(sigma, g))
    assert m.std_p == pytest.approx(180.0 / np.sqrt(2), rel=1e-6)


def test_squeezed_vacuum_strong_p_squeezing():
    sigma = 280.0
    g = GridSpec(-2048.0, 4.0, 1024)
    m = moments(squeezed_vacuum(sigma, g))
    assert m.std_x == pytest.approx(280.0 / np.sqrt(2), rel=1e-6)


def test_squeezed_vacuum_narrow_grid_rejected():
    with pytest.raises(GridTooNarrowError):
        squeezed_vacuum(10.0, GridSpec(-16.0, 0.125, 256))


def test_epr_state_separable_when_widths_match():
    g = GridSpec(-16.0, 0.125, 256)
    sigma = 1.3
    state = epr_state(regime_for(sigma, sigma), g)
    expected = product_state(squeezed_vacuum(sigma, g), squeezed_vacuum(sigma, g))
    assert np.max(np.abs(state - expected)) < 1e-12


def test_epr_state_rejects_sentinels():
    g = GridSpec(-16.0, 0.125, 256)
    for regime in (regime_for(0.0, 1.0), ConvolutionOnly(1.0), Ideal()):
        with pytest.raises(ValueError, match="ideal squeezing"):
            epr_state(regime, g)


def test_epr_state_refuses_a_vanishing_norm():
    # every x2 + x5 on this grid is at least 2, where the sigma_b = 1e-3 factor underflows
    with pytest.raises(ZeroNormError):
        epr_state(regime_for(1.0, 1e-3), GridSpec(1.0, 0.125, 64))


def test_epr_state_exact_exchange_symmetry():
    g = GridSpec(-16.0, 0.125, 256)
    state = epr_state(regime_for(0.4, 2.5), g)
    assert np.array_equal(state, state.T)


def test_epr_correlation_ridge():
    # strongly squeezed pair concentrates along x2 = x5
    g = GridSpec(-16.0, 0.125, 256)
    state = epr_state(regime_for(0.1, 8.0), g)
    prob = np.abs(state) ** 2
    ridge = np.trace(prob) * g.dx
    anti = np.trace(np.fliplr(prob)) * g.dx
    assert ridge > 50 * anti


def test_epr_conditional_spread_monotone_in_sigma_a():
    g = GridSpec(-16.0, 0.125, 256)
    xs = g.points
    mid = g.n // 2
    spreads = []
    for sigma_a in (1.6, 0.8, 0.4, 0.2):
        state = epr_state(regime_for(sigma_a, 3.0), g)
        column = np.abs(state[mid]) ** 2
        column /= column.sum()
        mean = np.dot(xs, column)
        spreads.append(np.sqrt(np.dot((xs - mean) ** 2, column)))
    assert all(b < a for a, b in zip(spreads, spreads[1:]))


def test_beam_splitter_rotational_invariance():
    # equal-width round Gaussian is invariant under the rotation
    g = GridSpec(-16.0, 0.125, 256)
    state = product_state(gaussian_packet(g, 0.0, 1.2), gaussian_packet(g, 0.0, 1.2))
    out = beam_splitter(state, g)
    assert np.max(np.abs(out - state)) < 2e-3


def test_beam_splitter_norm_preserved():
    g = GridSpec(-16.0, 0.125, 256)
    state = product_state(gaussian_packet(g, 0.5, 1.5), gaussian_packet(g, -1.0, 2.0))
    assert abs(two_mode_norm(beam_splitter(state, g), g) - 1.0) < 2e-3


def test_beam_splitter_inverse_round_trip():
    g = GridSpec(-16.0, 0.125, 256)
    state = product_state(gaussian_packet(g, 1.0, 1.5), gaussian_packet(g, -0.5, 1.8))
    back = beam_splitter(beam_splitter(state, g), g, inverse=True)
    err = np.linalg.norm(back - state)
    err /= np.linalg.norm(state)
    assert err < 5e-3


_PROBES = [(64, 64), (70, 58), (50, 80), (90, 40), (0, 0)]

# Reference values from the interpolator-based implementation that preceded
# the numpy bilinear lookup: (norm, amplitudes at _PROBES).
_BS_FORWARD = (
    0.9986767268678173,
    [
        0.30873065368318414,
        0.2864441270396132 + 0.09420694174787031j,
        0.008921666280428007 - 0.007318536108911202j,
        0.0002475434457346309 + 0.001745783162817424j,
        0.0,
    ],
)
_BS_INVERSE = (
    0.9986767268679316,
    [
        0.30873065368318414,
        0.3093581642360697 + 0.22857103787887012j,
        -0.0013022405697001595 - 0.018505820426127143j,
        -0.022848903627112754 + 0.013871569968097382j,
        0.0,
    ],
)


@pytest.mark.parametrize("inverse,expected", [(False, _BS_FORWARD), (True, _BS_INVERSE)])
def test_beam_splitter_pinned_values(inverse, expected):
    g = GridSpec(-8.0, 0.125, 128)
    state = product_state(
        gaussian_packet(g, 1.0, 1.5, 0.6), gaussian_packet(g, -0.5, 1.2, -0.3)
    )
    out = beam_splitter(state, g, inverse=inverse)
    norm, probes = expected
    assert abs(two_mode_norm(out, g) - norm) < 1e-12
    got = np.array([out[i, j] for i, j in _PROBES])
    assert np.max(np.abs(got - np.array(probes))) < 1e-12


def test_epr_from_beam_splitter_pinned_values():
    g = GridSpec(-12.0, 0.1875, 128)
    built = epr_from_beam_splitter(regime_for(1.0, 1.5), g)
    probes = [(64, 64), (60, 70), (70, 58), (50, 75), (64, 20)]
    expected = [
        0.4616151876570709,
        0.18854572412946818,
        0.13107831179923238,
        0.0019072834460348925,
        1.0322750381407406e-11,
    ]
    got = np.array([built[i, j] for i, j in probes])
    assert abs(two_mode_norm(built, g) - 1.0) < 1e-12
    assert np.max(np.abs(got - np.array(expected))) < 1e-12


_EQUIVALENCE_PAIRS = [(0.9, 1.2), (2.1, 1.8), (1.0, 1.5), (1.6, 1.1), (2.0, 1.0)]


@pytest.mark.parametrize("sigma_a,sigma_b", _EQUIVALENCE_PAIRS)
def test_epr_construction_equivalence(sigma_a, sigma_b):
    params = regime_for(sigma_a, sigma_b)
    errors = []
    for n in (256, 512):
        g = GridSpec(-16.0, 32.0 / n, n)
        direct = epr_state(params, g)
        built = epr_from_beam_splitter(params, g)
        errors.append(float(np.max(np.abs(direct - built))))
    assert errors[0] <= 5e-3
    assert errors[1] < errors[0]


def test_oracle_refuses_large_grids_and_sentinels():
    g = GridSpec(-12.0, 24.0 / 128, 128)
    psi = gaussian_packet(g, 0.0, 1.0)
    with pytest.raises(ValueError, match="n <= 64"):
        oracle_teleport(psi, regime_for(1.0, 1.0), MeasurementOutcome(0, 0))
    g64 = GridSpec(-12.0, 24.0 / 64, 64)
    psi64 = gaussian_packet(g64, 0.0, 1.0)
    for regime in (regime_for(0.0, 1.0), ConvolutionOnly(1.0), Ideal()):
        with pytest.raises(ValueError, match="ideal squeezing"):
            oracle_teleport(psi64, regime, MeasurementOutcome(0, 0))


def test_oracle_equal_widths_outputs_resource_mode():
    # sigma_a = sigma_b makes the resource separable: the output is the
    # squeezed-vacuum mode itself, independent of the input.
    g = GridSpec(-12.0, 24.0 / 64, 64)
    psi = gaussian_packet(g, 0.6, 1.4)
    out = oracle_teleport(psi, regime_for(1.2, 1.2), MeasurementOutcome(0.0, 0.0))
    vac = squeezed_vacuum(1.2, g)
    assert rel_l2(vac, out) < 1e-10
    assert fidelity(psi, out) == pytest.approx(0.8889477575654505, abs=1e-9)


def test_oracle_asymmetric_widths_blur():
    g = GridSpec(-12.0, 24.0 / 64, 64)
    psi = gaussian_packet(g, 0.4, 0.9)
    out = oracle_teleport(psi, regime_for(0.7, 5.0), MeasurementOutcome(0.0, 0.0))
    m_in, m_out = moments(psi), moments(out)
    assert m_out.std_x > m_in.std_x
    assert m_out.mean_x == pytest.approx(m_in.mean_x, abs=0.2)


def test_oracle_fidelity_monotone_toward_ideal():
    g = GridSpec(-12.0, 24.0 / 64, 64)
    psi = gaussian_packet(g, 0.6, 1.4)
    fids = [
        fidelity(
            psi,
            oracle_teleport(psi, regime_for(sa, 6.0), MeasurementOutcome(0, 0)),
        )
        for sa in (2.0, 1.0, 0.5)
    ]
    assert all(b > a for a, b in zip(fids, fids[1:]))
