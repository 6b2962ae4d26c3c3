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
