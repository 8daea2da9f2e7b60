"""Shared fixtures: the packaged reference cell and small reusable datasets."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from cellident.bench import (
    default_config,
    generate_profile,
    generate_synthetic_dataset,
    one_c_current,
    resolve_cell,
)
from cellident.ecm import (
    check_step,
    electrolyte_potential,
    exchange_current_factors,
    fixed_terms,
    overpotential,
    terminal_voltage,
)
from cellident.identify import default_box


@pytest.fixture(scope="session")
def cell():
    """(CellParameters, cathode OCV, anode OCV) of the packaged reference cell."""
    return resolve_cell(default_config())[:3]


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


@pytest.fixture(scope="session")
def simulate_pinned():
    """``simulate_pinned(params, ocv_p, ocv_n, profile)``: the ``volts``,
    ``eta_p`` and ``eta_n`` of ``simulate``'s term functions with each
    exchange current pinned at its electrode's initial concentration, which
    makes every dynamic term exactly linear in the applied current."""
    def run(params, ocv_p, ocv_n, profile):
        check_step(params, profile.dt)
        fixed = dataclasses.replace(
            fixed_terms(params, ocv_p, ocv_n, profile),
            sqrt_arg_p=exchange_current_factors(params, "p", params.c_p0)[1],
            sqrt_arg_n=exchange_current_factors(params, "n", params.c_n0)[1])
        eta_p = overpotential(params, fixed, "p")
        eta_n = overpotential(params, fixed, "n")
        volts = terminal_voltage(fixed, eta_p, eta_n,
                                 electrolyte_potential(params, profile),
                                 np.empty(profile.n))
        return SimpleNamespace(volts=volts, eta_p=eta_p, eta_n=eta_n)
    return run


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
    Algorithm 2.1 in place of the cached inverse factor, with L factored
    here from the Gram matrix plus the state's jitter."""
    from scipy.linalg import cholesky, solve_triangular

    from cellident.gp import _kernel, _neg_half_sq_norms

    def kernel(a, b):
        return _kernel(a, _neg_half_sq_norms(a), b, _neg_half_sq_norms(b))

    def posterior(state, queries):
        k_star = kernel(state.points, queries)
        mean_std = k_star.T @ state.alpha
        gram = kernel(state.points, state.points)
        chol = cholesky(gram + state.jitter * np.eye(len(gram)), lower=True)
        v = solve_triangular(chol, k_star, lower=True, check_finite=False)
        var_std = np.maximum(1.0 - np.sum(v * v, axis=0), 0.0)
        mean = mean_std * state.scale + state.mean_shift
        var = var_std * state.scale ** 2
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
