"""The two-step simulator (``fixed_terms``, then the term functions summed
by ``simulate``) and the caching objective against the one-step simulator
they replaced, compared with ``==``.

``reference_simulate_detailed`` is a copy of the one-step simulator with its
exchange-current and overpotential helpers inlined, so the oracle does not
change when the split does; it returns every voltage contribution.
"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cellident.baselines import GD_PROBE
from cellident.bench import generate_profile, generate_synthetic_dataset
from cellident.ecm import (
    check_step,
    electrolyte_potential,
    fixed_terms,
    ohmic_drop,
    overpotential,
    simulate,
    surface_concentration,
)
from cellident.errors import SimulationDiverged
from cellident.identify import (
    DIVERGENCE_PENALTY,
    IdentificationDataset,
    VoltageFitObjective,
)
from cellident.profiles import CurrentProfile


def _reference_i0(params, electrode, c_surf):
    p = params
    if electrode == "p":
        k, c_max, c_e, E_io = p.k_p, p.c_max_p, p.c_e_p, p.E_io_p
    else:
        k, c_max, c_e, E_io = p.k_n, p.c_max_n, p.c_e_n, p.E_io_n
    c = np.asarray(c_surf, dtype=float)
    arg = c * (c_max - c) * c_e
    bad = np.flatnonzero(np.atleast_1d(arg) <= 0.0)
    if bad.size:
        raise SimulationDiverged("non-positive exchange-current argument "
                                 f"at sample {int(bad[0])}")
    arrhenius = math.exp((1.0 / p.T_ref - 1.0 / p.T) * E_io / p.R_gas)
    i0 = arrhenius * p.F * k * np.sqrt(arg)
    return float(i0) if np.isscalar(c_surf) else i0


def _reference_eta(params, electrode, current, i0):
    p = params
    J = p.J_p if electrode == "p" else p.J_n
    return p.R_gas * p.T0 * (-J * np.asarray(current, dtype=float)) / (p.F * i0)


def reference_simulate_detailed(params, ocv_p, ocv_n, profile,
                                freeze_exchange_current=False):
    check_step(params, profile.dt)
    I = profile.current
    p = params
    c_p = surface_concentration(p, "p", profile)
    c_n = surface_concentration(p, "n", profile)
    if freeze_exchange_current:
        i0_p = _reference_i0(p, "p", p.c_p0)
        i0_n = _reference_i0(p, "n", p.c_n0)
    else:
        i0_p = _reference_i0(p, "p", c_p)
        i0_n = _reference_i0(p, "n", c_n)
    u_p = ocv_p(c_p / p.c_max_p)
    u_n = ocv_n(c_n / p.c_max_n)

    eta_p = _reference_eta(p, "p", I, i0_p)
    eta_n = _reference_eta(p, "n", I, i0_n)
    phi_e = electrolyte_potential(p, profile)
    phi_ohm = ohmic_drop(p, I)

    volts = u_p - u_n - (eta_p - eta_n) + phi_e + phi_ohm - I * p.R_c
    if not np.all(np.isfinite(volts)):
        k = int(np.flatnonzero(~np.isfinite(volts))[0])
        raise SimulationDiverged(f"non-finite terminal voltage at sample {k}")

    return SimpleNamespace(volts=volts, c_p=c_p, c_n=c_n,
                           eta_p=np.asarray(eta_p), eta_n=np.asarray(eta_n),
                           phi_e=phi_e, phi_ohm=phi_ohm)


def reference_loss(base, ocv_p, ocv_n, dataset, theta):
    """(loss, per-profile losses) of the objective before it cached
    anything."""
    params = base.replace(k_p=float(theta[0]), k_n=float(theta[1]),
                          D_e=float(theta[2]))
    per = []
    for profile, measured in zip(dataset.profiles, dataset.voltages):
        try:
            sim = reference_simulate_detailed(params, ocv_p, ocv_n, profile)
            residual = sim.volts - measured
            per.append(float(np.add.reduce(residual * residual)))
        except SimulationDiverged:
            per.append(DIVERGENCE_PENALTY)
    return float(sum(per)), tuple(per)


def one_profile_objectives(base, ocv_p, ocv_n, box, dataset):
    """One objective per profile of ``dataset``: their losses are the
    per-profile losses of an objective over the whole dataset."""
    return [VoltageFitObjective(base, ocv_p, ocv_n, box, IdentificationDataset(
        profiles=(profile,), voltages=(measured,)))
        for profile, measured in zip(dataset.profiles, dataset.voltages)]


def _sample(exc) -> int:
    return int(re.search(r"at sample (\d+)", str(exc))[1])


FIELDS = ("volts", "c_p", "c_n", "eta_p", "eta_n", "phi_e", "phi_ohm")


@pytest.fixture(scope="module")
def profiles(cell):
    params = cell[0]
    return {
        "staircase": generate_profile("rcid-like", 900.0, 0.5, 0, params),
        "drive": generate_profile("drive-cycle-like", 600.0, 1.0, 5, params),
    }


@pytest.fixture(scope="module")
def noisy_dataset(cell, profiles):
    params, ocv_p, ocv_n = cell
    train, _, _ = generate_synthetic_dataset(
        params, ocv_p, ocv_n, [profiles["staircase"], profiles["drive"]],
        [profiles["drive"]], 0.005, 11)
    return train


class TestSimulatorSplit:
    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("kind", ["staircase", "drive"])
    @pytest.mark.parametrize("scale", [(1.0, 1.0, 1.0), (1.7, 0.6, 1.4),
                                       (0.55, 1.9, 0.7)])
    def test_every_field_matches(self, cell, profiles, simulate_pinned,
                                 freeze, kind, scale):
        """``simulate``'s voltage and each term function's output.  freeze
        pins i0 at the initial concentrations: scalar square roots in the
        fixed terms, broadcast by ``overpotential``."""
        params, ocv_p, ocv_n = cell
        theta = params.replace(k_p=params.k_p * scale[0],
                               k_n=params.k_n * scale[1],
                               D_e=params.D_e * scale[2])
        profile = profiles[kind]
        fixed = fixed_terms(theta, ocv_p, ocv_n, profile)
        got = {"c_p": surface_concentration(theta, "p", profile),
               "c_n": surface_concentration(theta, "n", profile),
               "phi_e": electrolyte_potential(theta, profile),
               "phi_ohm": fixed.phi_ohm}
        if freeze:
            pinned = simulate_pinned(theta, ocv_p, ocv_n, profile)
            got.update(volts=pinned.volts, eta_p=pinned.eta_p,
                       eta_n=pinned.eta_n)
        else:
            got.update(volts=simulate(theta, ocv_p, ocv_n, profile),
                       eta_p=overpotential(theta, fixed, "p"),
                       eta_n=overpotential(theta, fixed, "n"))
        want = reference_simulate_detailed(theta, ocv_p, ocv_n, profile,
                                           freeze_exchange_current=freeze)
        for name in FIELDS:
            a, b = got[name], getattr(want, name)
            assert np.shape(a) == np.shape(b), name
            assert np.array_equal(a, b), name

    def test_divergence_matches(self, cell, i_1c):
        params, ocv_p, ocv_n = cell
        harsh = CurrentProfile(dt=1.0, current=np.full(600, 20.0 * i_1c))
        with pytest.raises(SimulationDiverged) as got:
            simulate(params, ocv_p, ocv_n, harsh)
        with pytest.raises(SimulationDiverged) as want:
            reference_simulate_detailed(params, ocv_p, ocv_n, harsh)
        assert _sample(got.value) == _sample(want.value)


class TestObjectiveSplit:
    def test_losses_match_at_corners_and_random_points(self, cell, box,
                                                       noisy_dataset, rng):
        params, ocv_p, ocv_n = cell
        corners = [np.array([a, b, c], dtype=float)
                   for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        units = corners + list(rng.uniform(size=(12, 3))) + corners[:2]
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, noisy_dataset)
        singles = one_profile_objectives(params, ocv_p, ocv_n, box,
                                         noisy_dataset)
        for unit in units:
            theta = box.denormalize(unit)
            evaluation = objective(theta)
            loss, per = reference_loss(params, ocv_p, ocv_n, noisy_dataset, theta)
            assert evaluation.loss == loss
            assert tuple(single(theta).loss for single in singles) == per
            assert not evaluation.penalized


# A theta sequence is a start point and moves, each applied to the last theta
# in unit coordinates: the patterns the term cache must get right.
_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_moves = st.one_of(
    st.tuples(st.just("probe"), st.integers(0, 2), st.sampled_from([1, -1])),
    st.tuples(st.just("step"), st.lists(_unit, min_size=3, max_size=3)),
    st.tuples(st.just("edge"), st.integers(0, 2), st.sampled_from([0.0, 1.0])),
    st.tuples(st.just("repeat")),
    st.tuples(st.just("revert"), st.integers(0, 20)),
    st.tuples(st.just("penalize"), st.integers(0, 2),
              st.sampled_from([1e-9, 1e-300]), st.booleans()),
)


def _theta_sequence(box, start, moves):
    """Physical thetas: GD probes either way along one axis, clipped at the
    box edge, steps and edge points, exact repeats, returns to an earlier
    theta, and a component scaled far below the box or set to 5e-324, which
    is charged the penalty.  Moves other than ``revert`` start from the last in-box point."""
    unit = np.array(start)
    thetas = [box.denormalize(unit)]
    for move in moves:
        kind = move[0]
        if kind == "probe":
            _, i, sign = move
            unit = unit.copy()
            unit[i] += sign * GD_PROBE
            unit = np.clip(unit, 0.0, 1.0)
        elif kind == "step":
            unit = np.array(move[1])
        elif kind == "edge":
            _, i, side = move
            unit = unit.copy()
            unit[i] = side
        theta = box.denormalize(unit)
        if kind == "revert":
            theta = thetas[move[1] % len(thetas)].copy()
        elif kind == "penalize":   # or the smallest double, which overflows
            _, i, scale, smallest = move
            theta[i] = 5e-324 if smallest else theta[i] * scale
        thetas.append(theta)
    return thetas


class TestThetaTermCache:
    """The objective keeps each profile's last eta_p, eta_n and phi_e; over
    any sequence of thetas its losses, whole and per profile, are those of a
    fresh objective and of the one-step simulator, bit for bit."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(start=st.lists(_unit, min_size=3, max_size=3),
           moves=st.lists(_moves, min_size=1, max_size=14))
    def test_sequence_matches_fresh_objective_and_reference(
            self, cell, box, noisy_dataset, start, moves):
        params, ocv_p, ocv_n = cell
        cached = VoltageFitObjective(params, ocv_p, ocv_n, box, noisy_dataset)
        singles = one_profile_objectives(params, ocv_p, ocv_n, box,
                                         noisy_dataset)
        for theta in _theta_sequence(box, start, moves):
            got = cached(theta)
            fresh = VoltageFitObjective(params, ocv_p, ocv_n, box,
                                        noisy_dataset)(theta)
            with np.errstate(all="ignore"):
                loss, per = reference_loss(params, ocv_p, ocv_n,
                                           noisy_dataset, theta)
            # the reference charges only divergence; the objective also
            # charges a residual beyond the penalty, overflow and NaN
            per = tuple(v if v <= DIVERGENCE_PENALTY else DIVERGENCE_PENALTY
                        for v in per)
            assert tuple(single(theta).loss for single in singles) == per
            assert got.loss == fresh.loss == float(sum(per))
            assert got.penalized == fresh.penalized == (
                DIVERGENCE_PENALTY in per)
