import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cvteleport import GridSpec, SampledWaveFunction, moments, normalize
from cvteleport.channel import _finish, convolution_kernel, outcome_moments

# Every property test runs the same examples on every run: derandomized, with
# no example database and no deadline.  A test sets only its max_examples.
settings.register_profile("cvteleport", derandomize=True, database=None, deadline=None)
settings.load_profile("cvteleport")


def rel_l2(a, b):
    """Relative L2 distance between two states on a common grid."""
    return float(
        np.linalg.norm(a.amplitudes - b.amplitudes) / np.linalg.norm(a.amplitudes)
    )


def convolve_sampled_kernel(psi, sigma_a, p4):
    """Direct convolution with the kernel sampled on the grid.

    Equivalent to the spectral route whenever the kernel is resolved
    (sigma_a a few grid steps or more); kept as the cross-check path.
    """
    g = psi.grid
    u = (np.arange(2 * g.n - 1) - (g.n - 1)) * g.dx
    kernel = convolution_kernel(sigma_a, p4, u)
    full = np.convolve(psi.amplitudes, kernel)
    return _finish(g, full[g.n - 1 : 2 * g.n - 1] * g.dx)


def random_state(grid, rng, packets=2):
    """Smooth random state: a few Gaussian packets, resolved and well inside."""
    span = grid.span
    kick_max = 0.12 * np.pi / grid.dx
    amps = np.zeros(grid.n, dtype=np.complex128)
    xs = grid.points
    mid = grid.x_min + span / 2
    for _ in range(packets):
        width = rng.uniform(3.0 * grid.dx, span / 14)
        center = mid + rng.uniform(-0.12, 0.12) * span
        kick = rng.uniform(-kick_max, kick_max)
        coeff = rng.normal() + 1j * rng.normal()
        amps += coeff * np.exp(
            -((xs - center) ** 2) / (4.0 * width**2) + 1j * kick * xs
        )
    return normalize(SampledWaveFunction(grid, amps))


def _gaussian(values, mean, var):
    values = np.asarray(values)
    return np.exp(-((values - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def closed_form_marginal(psi, params, values):
    """N(mean, var) at ``values`` for the one random outcome coordinate.

    For a real Gaussian input every outcome density is Gaussian, with the
    means and variances `outcome_moments` gives; the x3-p4 covariance is
    zero.  The coordinate is p4 when sigma_b is ideal, else x3.
    """
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
    mean, var = (mean_p4, var_p4) if params.b_is_ideal else (mean_x3, var_x3)
    return _gaussian(values, mean, var)


def closed_form_joint(psi, params, x3_values, p4_values):
    """The joint (x3, p4) density on x3_values x p4_values for a real Gaussian input.

    The product of the two Gaussians `outcome_moments` gives: for such an
    input the x3-p4 covariance is zero.
    """
    mean_x3, var_x3, mean_p4, var_p4 = outcome_moments(moments(psi), params)
    return np.multiply.outer(
        _gaussian(x3_values, mean_x3, var_x3), _gaussian(p4_values, mean_p4, var_p4)
    )


def closed_form_teleport(grid, mu, w, k0, sigma_a, sigma_b, x3, p4):
    """psi_tel on ``grid`` for psi(v) ~ exp(-(v - mu)^2/(4 w^2) + i*k0*v), normalized.

    With a = 1/(4 sigma_a^2), b = 1/(4 sigma_b^2), c = 1/(4 w^2),
    T = 2*sqrt(2)*x3 and q = sqrt(2)*p4 the kernel integral over v is
    Gaussian, so psi_tel(x) ~ exp(beta^2/(4 alpha) + gamma) with
    alpha = a + b + c, beta = 2a*x - 2b*(x - T) + 2c*mu + i*(k0 - q) and
    gamma = -a*x^2 - b*(x - T)^2 + i*q*x - c*mu^2.  The dropped factors are
    real and positive, so the global phase is the channel's.  The widths are
    a regime's: sigma_b = inf sets b = 0, and sigma_a = 0 is the limit
    exp(-((x - sqrt(2)*x3)/sigma_b)^2) * psi(x).
    """
    x = grid.points
    c = 1.0 / (4.0 * w**2)
    b = 1.0 / (4.0 * sigma_b**2)
    if sigma_a == 0.0:
        exponent = -4.0 * b * (x - np.sqrt(2.0) * x3) ** 2 - c * (x - mu) ** 2 + 1j * k0 * x
    else:
        a = 1.0 / (4.0 * sigma_a**2)
        T, q = 2.0 * np.sqrt(2.0) * x3, np.sqrt(2.0) * p4
        alpha = a + b + c
        beta = 2.0 * a * x - 2.0 * b * (x - T) + 2.0 * c * mu + 1j * (k0 - q)
        gamma = -a * x**2 - b * (x - T) ** 2 + 1j * q * x - c * mu**2
        exponent = beta**2 / (4.0 * alpha) + gamma
    exponent -= exponent.real.max()
    return normalize(SampledWaveFunction(grid, np.exp(exponent)))


def pytest_configure(config):
    # The tests run with database=None, but hypothesis still caches the
    # constants it finds in local modules; keep that cache in pytest's own.
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture
def unit_grid():
    return GridSpec(-16.0, 0.125, 256)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
