import numpy as np
import pytest

from cvteleport import (
    GridMismatchError,
    GridSpec,
    SampledWaveFunction,
    ZeroNormError,
    gaussian_packet,
    inner_product,
    moments,
    normalize,
    to_momentum,
)
from cvteleport.grid import place_samples, resample

from conftest import evaluate_bandlimited, position_transform_along, random_state, rel_l2


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.1, 100)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.1, 4)  # too small
    with pytest.raises(ValueError):
        GridSpec(0.0, -0.1, 16)
    with pytest.raises(ValueError, match="endpoints must be finite"):
        GridSpec(1e308, 1e307, 64)  # x_max overflows
    with pytest.raises(ValueError, match="x_max must exceed x_min"):
        GridSpec.from_bounds(1.0, 0.0, 8)
    g = GridSpec(-4.0, 0.5, 16)
    assert g.x_max == pytest.approx(3.5)
    assert g.dp == pytest.approx(2 * np.pi / 8.0)
    assert g.conjugate().points[g.n // 2] == 0.0


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda g: SampledWaveFunction(g, np.ones(g.n + 1)), ValueError, "expected 16 amplitudes"),
        (lambda g: SampledWaveFunction(g, np.full(g.n, np.nan)), ValueError, "must be finite"),
        (
            lambda g: setattr(SampledWaveFunction(g, np.ones(g.n)), "grid", g),
            AttributeError,
            "immutable",
        ),
        (lambda g: moments(SampledWaveFunction(g, np.zeros(g.n))), ZeroNormError, "null"),
        (lambda g: gaussian_packet(g, 0.0, width=0.0), ValueError, "width must be positive"),
    ],
    ids=["wrong-shape", "nan-amplitude", "assign-attribute", "zero-moments", "zero-width"],
)
def test_wave_function_inputs_are_refused_by_name(build, error, match):
    with pytest.raises(error, match=match):
        build(GridSpec(-4.0, 0.5, 16))


def test_normalize_constant():
    # constant amplitude 1 with n*dx = 4 has norm 2
    g = GridSpec(0.0, 0.5, 8)
    psi = normalize(SampledWaveFunction(g, np.ones(8)))
    assert np.allclose(psi.amplitudes, 0.5)


def test_normalize_idempotent(unit_grid):
    psi = gaussian_packet(unit_grid, 0.3, 1.1)
    again = normalize(psi)
    assert np.max(np.abs(again.amplitudes - psi.amplitudes)) < 1e-14


@pytest.mark.parametrize("scale", [1e200, 1e308, 1.5e308j])
def test_normalize_huge_amplitudes(unit_grid, rng, scale):
    # the squared norm overflows; the state must still reach unit norm, not zeros
    psi = random_state(unit_grid, rng)
    peak = np.abs(psi.amplitudes.view(np.float64)).max()
    huge = SampledWaveFunction(unit_grid, psi.amplitudes / peak * scale)
    expected = psi.amplitudes * (scale / abs(scale))  # the phase of scale stays
    assert np.max(np.abs(normalize(huge).amplitudes - expected)) <= 1e-15


def test_normalize_zero_raises():
    g = GridSpec(0.0, 0.5, 8)
    with pytest.raises(ZeroNormError):
        normalize(SampledWaveFunction(g, np.zeros(8)))


def test_momentum_gaussian_profile(unit_grid):
    # exp(-x^2/(2 sigma^2)) maps to a Gaussian with e-folding |phi| ~ exp(-p^2 sigma^2 / 2)
    sigma = 1.4
    psi = gaussian_packet(unit_grid, 0.0, sigma)
    phi = to_momentum(psi)
    ps = phi.grid.points
    expected = np.exp(-(ps**2) * sigma**2 / 2.0)
    expected /= np.linalg.norm(expected)
    measured = np.abs(phi.amplitudes) / np.linalg.norm(phi.amplitudes)
    assert np.max(np.abs(measured - expected)) < 1e-12


def test_momentum_shift_theorem(unit_grid):
    x0 = 2.0  # on-grid shift
    base = gaussian_packet(unit_grid, 0.0, 1.2)
    shifted = gaussian_packet(unit_grid, x0, 1.2)
    pb, ps_ = to_momentum(base), to_momentum(shifted)
    assert np.max(np.abs(np.abs(pb.amplitudes) - np.abs(ps_.amplitudes))) < 1e-12
    mask = np.abs(pb.amplitudes) > 1e-6
    phase = ps_.amplitudes[mask] / pb.amplitudes[mask]
    expected = np.exp(-1j * ps_.grid.points[mask] * x0)
    assert np.max(np.abs(phase - expected)) < 1e-8


def test_momentum_quadrature_oracle(unit_grid):
    # direct Riemann sum of the transform integral at a few momenta
    psi = gaussian_packet(unit_grid, 0.7, 1.3, momentum=0.4)
    phi = to_momentum(psi)
    xs = unit_grid.points
    for k in (40, 128, 150, 200):
        p = phi.grid.points[k]
        direct = np.sum(psi.amplitudes * np.exp(-1j * p * xs)) * unit_grid.dx
        direct /= np.sqrt(2 * np.pi)
        assert abs(direct - phi.amplitudes[k]) < 1e-12


def test_round_trip_and_parseval(rng):
    g = GridSpec(-20.0, 40.0 / 512, 512)
    for _ in range(100):
        psi = random_state(g, rng)
        phi = to_momentum(psi)
        back = SampledWaveFunction(
            g, position_transform_along(phi.amplitudes, phi.grid, g, axis=0)
        )
        assert rel_l2(psi, back) < 1e-10
        assert abs(psi.norm() - phi.norm()) < 1e-10


def test_moments_gaussian(unit_grid):
    # amplitude exp(-x^2/(2 sigma^2)) has position spread sigma/sqrt(2)
    sigma = 1.25
    m = moments(gaussian_packet(unit_grid, 0.5, sigma))
    assert m.mean_x == pytest.approx(0.5, abs=1e-9)
    assert m.std_x == pytest.approx(sigma / np.sqrt(2), rel=1e-9)
    assert m.std_p == pytest.approx(1.0 / (sigma * np.sqrt(2)), rel=1e-9)
    assert m.mean_p == pytest.approx(0.0, abs=1e-9)


def test_moments_mean_p_of_a_moving_packet(unit_grid):
    m = moments(gaussian_packet(unit_grid, 0.0, 1.1, momentum=0.9))
    assert m.mean_p == pytest.approx(0.9, abs=1e-6)


def test_moments_single_spike():
    g = GridSpec(0.0, 0.5, 16)
    amps = np.zeros(16)
    amps[6] = 1.0  # x = 3.0
    m = moments(normalize(SampledWaveFunction(g, amps)))
    assert m.mean_x == pytest.approx(3.0)
    assert m.support_length == pytest.approx(g.dx)


def test_inner_product_basics(unit_grid):
    psi = gaussian_packet(unit_grid, 0.0, 1.0)
    assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)
    xs = unit_grid.points
    even = normalize(SampledWaveFunction(unit_grid, np.exp(-(xs**2))))
    odd = normalize(SampledWaveFunction(unit_grid, xs * np.exp(-(xs**2))))
    assert abs(inner_product(even, odd)) < 1e-12
    with pytest.raises(GridMismatchError):
        inner_product(psi, gaussian_packet(GridSpec(-16.0, 0.25, 256), 0.0, 1.0))


def test_inner_product_shifted_gaussian_overlap(unit_grid):
    # <g|g shifted by d> = exp(-d^2/(8 std^2)) for position spread std
    sigma, d = 1.2, 1.5
    a = gaussian_packet(unit_grid, 0.0, sigma)
    b = gaussian_packet(unit_grid, d, sigma)
    std = sigma / np.sqrt(2)
    assert abs(inner_product(a, b)) == pytest.approx(
        np.exp(-(d**2) / (8 * std**2)), rel=1e-10
    )


def test_uncertainty_bound(rng):
    g = GridSpec(-20.0, 40.0 / 512, 512)
    for _ in range(100):
        m = moments(random_state(g, rng, packets=3))
        assert m.std_x * m.std_p >= 0.5 * (1 - 1e-6)


def test_bandlimited_evaluation_exact_on_grid(unit_grid, rng):
    psi = random_state(unit_grid, rng)
    sub = unit_grid.points[::37]
    vals = evaluate_bandlimited(psi, sub)
    assert np.max(np.abs(vals - psi.amplitudes[::37])) < 1e-12


def test_place_samples_exact_when_commensurate():
    g = GridSpec(-8.0, 0.5, 32)
    xs = np.arange(-2.0, 2.0001, 0.5)
    vals = np.exp(-(xs**2))
    psi = place_samples(xs, vals, g)
    idx = np.flatnonzero(np.abs(psi.amplitudes) > 0)
    expected = vals / np.sqrt(np.sum(vals**2) * 0.5)
    assert np.allclose(psi.amplitudes[idx], expected)


def test_resample_identity(unit_grid):
    psi = gaussian_packet(unit_grid, 0.2, 1.0)
    assert rel_l2(resample(psi, unit_grid), psi) < 1e-14
