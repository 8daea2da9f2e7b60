"""Shared fixtures: the packaged reference cell and small reusable datasets."""

from __future__ import annotations

import numpy as np
import pytest

from cellident.bench import generate_profile, generate_synthetic_dataset, one_c_current
from cellident.identify import default_box
from cellident.params import reference_cell


@pytest.fixture(scope="session")
def cell():
    """(CellParameters, cathode OCV, anode OCV) of the packaged reference cell."""
    return reference_cell()


@pytest.fixture(scope="session")
def params(cell):
    return cell[0]


@pytest.fixture(scope="session")
def ocv_pair(cell):
    return cell[1], cell[2]


@pytest.fixture(scope="session")
def box():
    return default_box()


@pytest.fixture(scope="session")
def i_1c(params):
    return one_c_current(params)


@pytest.fixture(scope="session")
def train_dataset(cell):
    """Noise-free staircase training dataset on the reference cell."""
    params, ocv_p, ocv_n = cell
    profile = generate_profile("rcid-like", 3600.0, 1.0, 0, params)
    train, _, _ = generate_synthetic_dataset(
        params, ocv_p, ocv_n, [profile], [profile], 0.0, 42)
    return train


@pytest.fixture(scope="session")
def short_dataset(cell):
    """Small noise-free dataset for tests that only need a cheap objective."""
    params, ocv_p, ocv_n = cell
    profile = generate_profile("rcid-like", 600.0, 1.0, 0, params)
    train, _, _ = generate_synthetic_dataset(
        params, ocv_p, ocv_n, [profile], [profile], 0.0, 42)
    return train


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def bo_like_data():
    """``(s, seed) -> (points, values)`` shaped like a BO trace in the unit
    cube: a uniform initial design of 10, then points closing in on one
    minimum with a spread shrinking from 0.2 to 1e-3.  At the default jitter
    the Cholesky factor's condition number reaches about 1e5, as on real
    ``bo-long`` traces."""
    def make(s, seed):
        rng = np.random.default_rng(seed)
        n0 = min(10, s)
        centre = rng.uniform(size=3)
        spread = np.geomspace(0.2, 1e-3, s - n0)[:, None]
        points = np.vstack([
            rng.uniform(size=(n0, 3)),
            np.clip(centre + spread * rng.normal(size=(s - n0, 3)), 0.0, 1.0)])
        values = (np.sum((points - centre) ** 2, axis=1)
                  + 1e-4 * rng.normal(size=s))
        return points, values
    return make


@pytest.fixture(scope="session")
def solve_posterior():
    """Reference GP posterior: the triangular solve v = L^{-1} k* of GPML
    Algorithm 2.1 in place of the cached inverse factor."""
    from scipy.linalg import solve_triangular

    from cellident.gp import se_kernel

    def posterior(state, theta):
        theta = np.asarray(theta, dtype=float)
        query = np.atleast_2d(theta)
        k_star = se_kernel(state.points, query)
        mean_std = k_star.T @ state.alpha
        v = solve_triangular(state.chol, k_star, lower=True,
                             check_finite=False)
        var_std = np.maximum(1.0 - np.sum(v * v, axis=0), 0.0)
        mean = mean_std * state.scale + state.mean_shift
        var = var_std * state.scale ** 2
        if theta.ndim == 1:
            return float(mean[0]), float(var[0])
        return mean, var
    return posterior


class _Counted:
    """A unit-cube objective that counts the calls it receives."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, point):
        self.count += 1
        return self.fn(point)


@pytest.fixture(scope="session")
def counted():
    """``counted(fn)`` wraps an objective so a test can check that an
    optimizer called the raw objective exactly ``budget`` times."""
    return _Counted
