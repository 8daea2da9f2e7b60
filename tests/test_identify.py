"""Search box, voltage-fit objective, and dataset file round trips."""

import copy
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellident import ecm, identify
from cellident.bench import generate_profile, generate_synthetic_dataset
from cellident.errors import ConfigError, DataError, OutOfBox
from cellident.identify import (
    DIVERGENCE_PENALTY,
    THETA_NAMES,
    IdentificationDataset,
    ParameterBox,
    VoltageFitObjective,
    default_box,
    load_current_csv,
    load_dataset,
    load_profile_csv,
    save_dataset,
    save_profile_csv,
)
from cellident.params import CellParameters
from cellident.profiles import CurrentProfile

unit_points = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3, max_size=3)


class TestParameterBox:
    def test_normalize_endpoints(self, box):
        np.testing.assert_allclose(box.normalize(box.lower), np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(box.normalize(box.upper), np.ones(3), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(unit=unit_points)
    def test_round_trip_linear(self, unit):
        box = default_box()
        u = np.array(unit)
        back = box.normalize(box.denormalize(u))
        np.testing.assert_allclose(back, u, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(unit=unit_points)
    def test_round_trip_log(self, unit):
        box = ParameterBox(names=("a", "b", "c"),
                           lower=np.array([1e-12, 1e-11, 0.5]),
                           upper=np.array([1e-9, 1e-8, 2.0]),
                           scales=("log", "log", "linear"))
        u = np.array(unit)
        back = box.normalize(box.denormalize(u))
        np.testing.assert_allclose(back, u, atol=1e-9)

    def test_log_midpoint_is_geometric(self):
        box = ParameterBox(names=("a",), lower=np.array([1e-12]),
                           upper=np.array([1e-8]), scales=("log",))
        middle = box.denormalize(np.full(box.n, 0.5))
        assert middle[0] == pytest.approx(1e-10, rel=1e-9)

    def test_maps_match_per_dimension_formula(self):
        """The edges are the bounds, log10-mapped per log dimension, bit for
        bit, and they follow a box rebuilt with dataclasses.replace."""
        box = ParameterBox(names=("a", "b"), lower=np.array([1e-12, 0.5]),
                           upper=np.array([1e-9, 2.0]),
                           scales=("log", "linear"))
        u = np.array([[0.3, 0.7], [1.0, 0.0]])
        lo, hi = np.log10(1e-12), np.log10(1e-9)
        theta = box.denormalize(u)
        np.testing.assert_array_equal(theta[:, 0], 10.0 ** (lo + u[:, 0] * (hi - lo)))
        np.testing.assert_array_equal(theta[:, 1], 0.5 + u[:, 1] * 1.5)
        np.testing.assert_array_equal(
            box.normalize(theta)[:, 0], (np.log10(theta[:, 0]) - lo) / (hi - lo))
        wider = dataclasses.replace(box, upper=np.array([1e-8, 4.0]))
        np.testing.assert_allclose(wider.denormalize(np.ones(2)), [1e-8, 4.0],
                                   rtol=1e-12)

    def test_out_of_box_is_strict(self, box):
        with pytest.raises(OutOfBox):
            box.normalize(box.upper * 1.01)
        with pytest.raises(OutOfBox):
            box.denormalize(np.array([0.5, 0.5, 1.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 2])
    def test_non_finite_points_are_out_of_box(self, box, bad, index):
        """NaN compares false against both bounds; the range check must still
        reject it."""
        middle = box.denormalize(np.full(box.n, 0.5))
        theta, unit = middle.copy(), np.full(3, 0.5)
        theta[index] = unit[index] = bad
        with pytest.raises(OutOfBox):
            box.normalize(theta)
        with pytest.raises(OutOfBox):
            box.denormalize(unit)
        with pytest.raises(OutOfBox):
            box.normalize(np.stack([middle, theta]))

    def test_dimension_mismatch(self, box):
        with pytest.raises(ValueError, match="dimension 2, box has 3"):
            box.normalize(np.array([1e-11, 1e-10]))
        with pytest.raises(ValueError, match="dimension 4, box has 3"):
            box.denormalize(np.zeros(4))

    def test_invalid_definitions(self):
        with pytest.raises(DataError):
            ParameterBox(names=("a",), lower=np.array([1.0]), upper=np.array([1.0]))
        with pytest.raises(DataError):
            ParameterBox(names=("a", "b"), lower=np.array([0.0]),
                         upper=np.array([1.0]))
        with pytest.raises(DataError):
            ParameterBox(names=("a",), lower=np.array([-1.0]),
                         upper=np.array([1.0]), scales=("log",))
        with pytest.raises(DataError):
            ParameterBox(names=("a",), lower=np.array([0.0]),
                         upper=np.array([1.0]), scales=("cubic",))

    def test_dict_round_trip(self, box):
        rebuilt = ParameterBox.from_dict(box.to_dict())
        assert rebuilt.names == box.names
        np.testing.assert_array_equal(rebuilt.lower, box.lower)
        np.testing.assert_array_equal(rebuilt.upper, box.upper)
        with pytest.raises(DataError, match="unknown"):
            ParameterBox.from_dict({**box.to_dict(), "color": "red"})

    def test_default_box_brackets_truth(self, params, box):
        truth = np.array([params.k_p, params.k_n, params.D_e])
        assert np.all(box.lower < truth)
        assert np.all(truth < box.upper)
        assert box.names == THETA_NAMES


class TestDataset:
    def test_name_and_pairing_validation(self):
        profile = CurrentProfile(dt=1.0, current=np.ones(5))
        volts = np.ones(5)
        with pytest.raises(DataError):
            IdentificationDataset(profiles=(profile,), voltages=(volts,),
                                  names=("a.csv", "b.csv"))
        with pytest.raises(DataError):
            IdentificationDataset(profiles=(profile,), voltages=())
        dataset = IdentificationDataset(profiles=(profile,), voltages=(volts,))
        assert dataset.profiles == (profile,)
        assert dataset.names == ("profile 0",)

    def test_voltage_list_is_coerced_to_float64(self):
        profile = CurrentProfile(dt=1.0, current=np.ones(3))
        dataset = IdentificationDataset(profiles=(profile,),
                                        voltages=([3, 3.1, 3.2],))
        (volts,) = dataset.voltages
        assert isinstance(volts, np.ndarray) and volts.dtype == np.float64
        np.testing.assert_array_equal(volts, [3.0, 3.1, 3.2])

    @pytest.mark.parametrize("volts", [np.ones((1, 5)), np.ones((5, 1)),
                                       np.array([]), np.ones(4), np.ones(6)],
                             ids=["2-D row", "2-D column", "empty",
                                  "too short", "too long"])
    def test_voltage_off_the_profile_grid_rejected(self, volts):
        profile = CurrentProfile(dt=1.0, current=np.ones(5))
        with pytest.raises(DataError, match="pair 0: profile and voltage "
                                            "grids disagree"):
            IdentificationDataset(profiles=(profile,), voltages=(volts,))


class TestObjective:
    def test_zero_loss_at_truth(self, cell, box, train_dataset):
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, train_dataset)
        truth = np.array([params.k_p, params.k_n, params.D_e])
        evaluation = objective(truth)
        assert evaluation.loss == 0.0
        assert not evaluation.penalized

    def test_zero_loss_at_truth_on_sub_second_steps(self, cell, box):
        """Noise-free data on steps of 0.25 s and 0.5 s, the train layout of
        perfbench's sim-heavy workload: the data and the objective take
        phi_e from the one electrolyte recursion, so the truth scores 0."""
        params, ocv_p, ocv_n = cell
        profiles = [generate_profile("rcid-like", 3600.0, 0.25, 0, params),
                    generate_profile("drive-cycle-like", 7200.0, 0.5, 1, params)]
        train, _, _ = generate_synthetic_dataset(
            params, ocv_p, ocv_n, profiles, profiles[:1], 0.0, 5)
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, train)
        evaluation = objective(np.array([params.k_p, params.k_n, params.D_e]))
        assert (evaluation.loss, evaluation.penalized) == (0.0, False)

    def test_additive_over_profiles(self, cell, box):
        params, ocv_p, ocv_n = cell
        p1 = CurrentProfile(dt=1.0, current=np.full(200, 0.5))
        p2 = CurrentProfile(dt=1.0, current=-np.full(300, 0.4))
        both, _, _ = generate_synthetic_dataset(params, ocv_p, ocv_n,
                                                [p1, p2], [p1], 0.0, 1)
        only1, _, _ = generate_synthetic_dataset(params, ocv_p, ocv_n,
                                                 [p1], [p1], 0.0, 1)
        only2, _, _ = generate_synthetic_dataset(params, ocv_p, ocv_n,
                                                 [p2], [p1], 0.0, 1)
        theta = np.array([params.k_p * 1.3, params.k_n * 0.8, params.D_e * 1.1])
        loss_both = VoltageFitObjective(params, ocv_p, ocv_n, box, both)(theta)
        loss_1 = VoltageFitObjective(params, ocv_p, ocv_n, box, only1)(theta)
        loss_2 = VoltageFitObjective(params, ocv_p, ocv_n, box, only2)(theta)
        assert loss_both.loss == loss_1.loss + loss_2.loss

    def test_unit_view_clips_and_returns_float(self, cell, box, short_dataset):
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, short_dataset)
        inside = objective.unit(np.ones(3))
        outside = objective.unit(np.array([1.4, 1.0, 1.0]))
        assert isinstance(inside, float)
        assert outside == inside
        assert (objective.unit(np.array([-0.2, 0.5, 1.7]))
                == objective.unit(np.array([0.0, 0.5, 1.0])))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_penalty(self, faint_cell, ocv_pair, box,
                                short_dataset):
        """A theta whose i0_p underflows to zero breaks the model at that
        theta only: each profile is charged the penalty, nothing raised."""
        two = IdentificationDataset(profiles=2 * short_dataset.profiles,
                                    voltages=2 * short_dataset.voltages)
        objective = VoltageFitObjective(faint_cell, *ocv_pair, box, two)
        evaluation = objective(np.array([1e-30, faint_cell.k_n,
                                         faint_cell.D_e]))
        assert evaluation.penalized
        assert evaluation.loss == 2.0 * DIVERGENCE_PENALTY

    @pytest.mark.parametrize("scale", [1e-9, 1e-300])
    def test_residual_beyond_the_penalty_is_charged_the_penalty(
            self, cell, box, short_dataset, scale):
        """A tiny k_n makes the voltage huge but finite; its squared
        residual (1e-300: one that overflows) is charged the penalty."""
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box,
                                        short_dataset)
        theta = np.array([params.k_p, scale * params.k_n, params.D_e])
        with np.errstate(over="ignore"):
            evaluation = objective(theta)
        assert evaluation.penalized
        assert evaluation.loss == DIVERGENCE_PENALTY

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("index,value", [
        (0, 5e-324), (1, 5e-324),   # eta = numerator / (F i0) overflows
        (2, 3e-323),                # C1/D_e overflows, inf * 0 in phi_e
        (0, 1e-300),                # finite voltage, the residual sum overflows
    ])
    def test_overflowing_theta_is_penalized_without_warnings(
            self, cell, box, short_dataset, index, value):
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box,
                                        short_dataset)
        theta = np.array([params.k_p, params.k_n, params.D_e])
        theta[index] = value
        evaluation = objective(theta)
        assert evaluation.penalized
        assert evaluation.loss == DIVERGENCE_PENALTY

    def test_unit_rejects_nan_before_the_model(self, cell, box, short_dataset):
        """A NaN point is rejected at the box, not later as invalid cell
        parameters."""
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, short_dataset)
        for point in ([np.nan, 0.5, 0.5], [0.5, 0.5, np.nan]):
            with pytest.raises(OutOfBox):
                objective.unit(np.array(point))

    def test_wrong_box_names_rejected(self, cell, short_dataset):
        params, ocv_p, ocv_n = cell
        other = ParameterBox(names=("a", "b", "c"), lower=np.zeros(3),
                             upper=np.ones(3))
        with pytest.raises(DataError):
            VoltageFitObjective(params, ocv_p, ocv_n, other, short_dataset)

    def test_theta_shape_checked(self, cell, box, short_dataset):
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, short_dataset)
        with pytest.raises(ValueError, match=r"shape \(2,\), expected \(3,\)"):
            objective(np.array([1e-11, 1e-10]))

    def test_landscape_is_continuous_in_the_box(self, cell, box, short_dataset,
                                                rng):
        """Random segments through the cube show no penalty cliffs or jumps."""
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, short_dataset)
        worst_jump = 0.0
        for _ in range(10):
            a, b = rng.uniform(size=3), rng.uniform(size=3)
            line = np.linspace(0.0, 1.0, 100)
            losses = np.array([objective.unit(a + s * (b - a)) for s in line])
            assert np.all(np.isfinite(losses))
            assert np.all(losses < DIVERGENCE_PENALTY)
            worst_jump = max(worst_jump, np.max(np.abs(np.diff(losses))))
        # landscape spans a few V^2 over the whole box; steps of 1/99 of a
        # segment must move the loss by far less than that
        assert worst_jump < 0.5


class TestFixedTermCache:
    """The objective builds each profile's theta-free terms when it is
    constructed, and no call builds them again."""

    @pytest.fixture()
    def built(self, monkeypatch):
        """Profiles that ``fixed_terms`` was called for, in call order."""
        profiles = []
        real = identify.fixed_terms

        def counting(params, ocv_p, ocv_n, profile):
            profiles.append(profile)
            return real(params, ocv_p, ocv_n, profile)

        monkeypatch.setattr(identify, "fixed_terms", counting)
        return profiles

    @pytest.fixture()
    def pair(self, cell):
        params, ocv_p, ocv_n = cell
        p1 = CurrentProfile(dt=1.0, current=np.full(200, 0.5))
        p2 = CurrentProfile(dt=1.0, current=-np.full(300, 0.4))
        dataset, _, _ = generate_synthetic_dataset(params, ocv_p, ocv_n,
                                                   [p1, p2], [p1], 0.0, 1)
        return dataset

    def test_built_once_per_profile_per_objective(self, cell, box, pair,
                                                  built, rng):
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, pair)
        for unit in rng.uniform(size=(6, 3)):
            objective.unit(unit)
        assert built == list(pair.profiles)
        VoltageFitObjective(params, ocv_p, ocv_n, box, pair).unit(np.zeros(3))
        assert built == 2 * list(pair.profiles)

    def test_divergence_penalty_charged_on_every_call(
            self, faint_cell, ocv_pair, box, pair, built):
        """Repeating a theta that diverges recomputes no term, and the
        kept non-finite eta_p is charged again each time."""
        objective = VoltageFitObjective(faint_cell, *ocv_pair, box, pair)
        underflow = np.array([1e-30, faint_cell.k_n, faint_cell.D_e])
        for _ in range(3):
            evaluation = objective(underflow)
            assert evaluation.penalized
            assert evaluation.loss == 2.0 * DIVERGENCE_PENALTY
        assert built == list(pair.profiles)

    def test_too_large_d_e_raises_on_every_call(self, cell, box, pair,
                                                built):
        """A physical theta past the box still has its step checked."""
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, pair)
        truth = np.array([params.k_p, params.k_n, params.D_e])
        assert objective(truth).loss == 0.0
        for _ in range(2):
            with pytest.raises(ConfigError):
                objective(np.array([params.k_p, params.k_n, 1.0e-8]))
        assert objective(truth).loss == 0.0
        assert len(built) == len(pair.profiles)

    def test_step_checked_for_a_diverged_profile(self, faint_cell, ocv_pair,
                                                  box, pair, built):
        """A profile penalized at the last theta still checks its step when
        D_e changes: a too-large D_e raises, not a penalty."""
        objective = VoltageFitObjective(faint_cell, *ocv_pair, box, pair)
        underflow = np.array([1e-30, faint_cell.k_n, faint_cell.D_e])
        assert objective(underflow).loss == 2.0 * DIVERGENCE_PENALTY
        with pytest.raises(ConfigError):
            objective(np.array([1e-30, faint_cell.k_n, 1.0e-8]))
        assert objective(underflow).loss == 2.0 * DIVERGENCE_PENALTY
        assert built == list(pair.profiles)

    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_box_too_wide_for_a_step_raises_at_construction(
            self, cell, pair, built, scale):
        """The largest D_e ``unit`` can produce must resolve every step:
        else ConfigError naming the first profile it fails on, before any
        term is built or any theta evaluated."""
        params, ocv_p, ocv_n = cell
        fine = CurrentProfile(dt=0.05, current=np.full(200, 0.5))
        dataset = IdentificationDataset(
            profiles=(fine, *pair.profiles),
            voltages=(np.full(200, 3.0), *pair.voltages),
            names=("fine.csv", "coarse.csv", "other.csv"))
        wide = ParameterBox(names=THETA_NAMES,
                            lower=np.array([2.0e-11, 2.8e-11, 1.6e-10]),
                            upper=np.array([4.5e-11, 5.6e-11, 1.0e-8]),
                            scales=("linear", "linear", scale))
        d_e = wide.denormalize(np.ones(3))[2]
        with pytest.raises(ConfigError) as info:
            VoltageFitObjective(params, ocv_p, ocv_n, wide, dataset)
        assert str(info.value).startswith(
            f"search box upper D_e = {d_e:g} m^2/s cannot be simulated on "
            "coarse.csv with dt = 1 s: dt = 1 s exceeds")
        assert "other.csv" not in str(info.value)
        assert built == []

    def test_step_checked_before_any_profile_diverges(self, cell, box,
                                                       built, i_1c):
        """A dataset that both diverges and has too coarse a step is the
        step's ConfigError, whichever profile comes first."""
        params, ocv_p, ocv_n = cell
        harsh = CurrentProfile(dt=1.0, current=np.full(600, 20.0 * i_1c))
        coarse = CurrentProfile(dt=10.0, current=np.full(200, 0.5))
        dataset = IdentificationDataset(
            profiles=(harsh, coarse), voltages=(np.full(600, 3.0),
                                                np.full(200, 3.0)))
        with pytest.raises(ConfigError, match="on profile 1 with dt = 10 s"):
            VoltageFitObjective(params, ocv_p, ocv_n, box, dataset)
        assert built == []

    def test_construction_names_each_diverging_profile_and_sample(
            self, cell, box, pair, built, i_1c):
        """Profiles whose theta-free terms diverge cannot be fit at any
        theta: construction raises one DataError naming each of them with
        fixed_terms' own message, and no other profile."""
        params, ocv_p, ocv_n = cell
        fake_volts = np.full(600, 3.0)
        harsh = {name: CurrentProfile(dt=1.0, current=np.full(600, sign * i_1c))
                 for name, sign in (("discharge.csv", 20.0),
                                    ("charge.csv", -20.0))}
        dataset = IdentificationDataset(
            profiles=(harsh["discharge.csv"], pair.profiles[0],
                      harsh["charge.csv"]),
            voltages=(fake_volts, pair.voltages[0], fake_volts),
            names=("discharge.csv", "good.csv", "charge.csv"))
        with pytest.raises(DataError) as info:
            VoltageFitObjective(params, ocv_p, ocv_n, box, dataset)
        assert built == list(dataset.profiles)
        for name, profile in harsh.items():
            with pytest.raises(DataError) as direct:
                ecm.fixed_terms(params, ocv_p, ocv_n, profile)
            assert re.search(r"at sample \d+", str(direct.value))
            assert f"{name}: {direct.value}" in str(info.value)
        assert "good.csv" not in str(info.value)

    def test_ocv_table_error_raised_at_construction(self, cell, box, pair,
                                                    built):
        """An out-of-table OCV query is a DataError of construction, raised
        before any call, naming each profile that makes one, as a
        divergence is named."""
        params, ocv_p, ocv_n = cell
        narrow = copy.copy(ocv_p)
        narrow.x = 0.5 * ocv_p.x   # the cell starts at cathode x = 0.8
        with pytest.raises(DataError) as info:
            VoltageFitObjective(params, narrow, ocv_n, box, pair)
        assert built == list(pair.profiles)
        for name in pair.names:
            assert (f"{name}: stoichiometry query outside table range"
                    in str(info.value))


class TestThetaTermCache:
    """Each profile keeps eta_p for its k_p, eta_n for its k_n and phi_e for
    its D_e, and checks the step only when D_e changed; a call recomputes
    only what its theta changed.  No call runs ``CellParameters.validate``,
    and a new D_e runs one filter per profile, the electrolyte recursion:
    the theta-free solid lags are not filtered again."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Per-name call counts of the term functions, the step check, the
        C filter every lag runs through and the cell check."""
        counts = {"_linear_filter": 0, "overpotential": 0,
                  "electrolyte_potential": 0, "check_step": 0, "validate": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ecm, "_linear_filter",
                            counting("_linear_filter", ecm._linear_filter))
        for name in ("overpotential", "electrolyte_potential", "check_step"):
            monkeypatch.setattr(identify, name,
                                counting(name, getattr(identify, name)))
        monkeypatch.setattr(CellParameters, "validate",
                            counting("validate", CellParameters.validate))
        return counts

    @pytest.fixture()
    def objective(self, cell, box):
        params, ocv_p, ocv_n = cell
        p1 = CurrentProfile(dt=0.5, current=np.full(400, 0.5))
        p2 = CurrentProfile(dt=1.0, current=-np.full(300, 0.4))
        pair, _, _ = generate_synthetic_dataset(params, ocv_p, ocv_n,
                                                [p1, p2], [p1], 0.0, 1)
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, pair)
        objective(box.denormalize(np.full(box.n, 0.5)))
        return objective

    @pytest.mark.parametrize("index", [0, 1])
    def test_k_change_never_filters(self, objective, calls, box, index):
        theta = box.denormalize(np.full(box.n, 0.5))
        theta[index] *= 1.01
        objective(theta)
        assert calls == {"_linear_filter": 0, "overpotential": 2,
                         "electrolyte_potential": 0, "check_step": 0,
                         "validate": 0}

    def test_d_e_change_recomputes_only_phi_e(self, objective, calls, box):
        theta = box.denormalize(np.full(box.n, 0.5))
        theta[2] *= 1.01
        objective(theta)
        # one electrolyte filter per profile; the solid lags are fixed terms
        assert calls == {"_linear_filter": 2, "overpotential": 0,
                         "electrolyte_potential": 2, "check_step": 2,
                         "validate": 0}

    def test_repeat_recomputes_nothing(self, objective, calls, box):
        objective(box.denormalize(np.full(box.n, 0.5)))
        objective.unit(np.full(3, 0.5))
        assert calls == {"_linear_filter": 0, "overpotential": 0,
                         "electrolyte_potential": 0, "check_step": 0,
                         "validate": 0}

    def test_new_theta_recomputes_every_term(self, objective, calls, box):
        objective(box.denormalize(np.array([0.1, 0.2, 0.3])))
        assert calls == {"_linear_filter": 2, "overpotential": 4,
                         "electrolyte_potential": 2, "check_step": 2,
                         "validate": 0}

    def test_losses_after_a_raising_call_match_a_fresh_objective(
            self, cell, objective, box):
        """A call that raises part-way leaves no term out of step with the
        component value it is kept for.  At D_e = 9e-10 the fastest
        electrolyte lag allows dt = 0.5 s but not 1 s, so the first profile
        takes the new terms and the second raises."""
        params, ocv_p, ocv_n = cell
        before = box.denormalize(np.array([0.2, 0.7, 0.4]))
        objective(before)
        with pytest.raises(ConfigError):
            objective(np.array([before[0] * 1.1, before[1], 9.0e-10]))
        with pytest.raises(ValueError, match="k_n must be strictly positive"):
            objective(np.array([before[0] * 1.2, -1.0, before[2]]))
        for theta in (before, box.denormalize(np.full(box.n, 0.5)), before):
            got = objective(theta)
            want = VoltageFitObjective(params, ocv_p, ocv_n, box,
                                       objective.dataset)(theta)
            assert (got.loss, got.penalized) == (want.loss, want.penalized)

    def test_a_term_that_raises_is_not_kept(self, cell, objective, box,
                                            monkeypatch):
        """The next call at the same k_p computes eta_p again."""
        params, ocv_p, ocv_n = cell
        theta = box.denormalize(np.full(box.n, 0.5))
        theta[0] *= 1.05
        real, fail = identify.overpotential, [True]

        def failing_once(p, fixed, electrode):
            if fail and electrode == "p":
                fail.clear()
                raise RuntimeError("injected failure")
            return real(p, fixed, electrode)

        monkeypatch.setattr(identify, "overpotential", failing_once)
        with pytest.raises(RuntimeError, match="injected failure"):
            objective(theta)
        want = VoltageFitObjective(params, ocv_p, ocv_n, box,
                                   objective.dataset)(theta)
        assert objective(theta).loss == want.loss


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        profile = CurrentProfile(dt=0.5, current=np.array([1.0, -2.0, 0.5]))
        volts = np.array([3.2, 3.1, 3.15])
        path = tmp_path / "run.csv"
        save_profile_csv(path, profile, volts)
        loaded_p, loaded_v = load_profile_csv(path)
        assert loaded_p.dt == pytest.approx(0.5)
        np.testing.assert_allclose(loaded_p.current, profile.current, atol=1e-9)
        np.testing.assert_allclose(loaded_v, volts, atol=1e-9)

    def test_loaded_columns_are_contiguous_copies(self, tmp_path):
        """Neither the current nor the voltage is a strided view that keeps
        the parsed table alive."""
        path = tmp_path / "run.csv"
        save_profile_csv(path, CurrentProfile(dt=1.0, current=np.ones(4)),
                         np.full(4, 3.5))
        loaded_p, loaded_v = load_profile_csv(path)
        for column in (loaded_p.current, loaded_v,
                       load_current_csv(path).current):
            assert column.flags.c_contiguous and column.flags.owndata

    def test_mismatched_grids_rejected_on_save(self, tmp_path):
        profile = CurrentProfile(dt=1.0, current=np.ones(3))
        with pytest.raises(DataError, match="grids disagree"):
            save_profile_csv(tmp_path / "x.csv", profile, np.ones(4))

    def test_two_dimensional_voltage_rejected_on_save(self, tmp_path):
        profile = CurrentProfile(dt=1.0, current=np.ones(3))
        with pytest.raises(DataError, match="grids disagree"):
            save_profile_csv(tmp_path / "x.csv", profile, np.ones((1, 3)))
        assert not (tmp_path / "x.csv").exists()

    def test_load_errors(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_profile_csv(tmp_path / "nope.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n0,1,3\n1,1,3\n")
        with pytest.raises(DataError, match="columns"):
            load_profile_csv(bad)
        uneven = tmp_path / "uneven.csv"
        uneven.write_text("time_s,current_A,voltage_V\n0,1,3\n1,1,3\n3,1,3\n")
        with pytest.raises(DataError, match="uniformly"):
            load_profile_csv(uneven)

    @pytest.mark.parametrize("cell", ["", "nan", "inf"],
                             ids=["blank", "nan", "inf"])
    def test_non_finite_voltage_rejected(self, tmp_path, cell):
        path = tmp_path / "run.csv"
        path.write_text(f"time_s,current_A,voltage_V\n0,1,3\n1,1,{cell}\n"
                        "2,1,3\n3,1,\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path} has a blank or non-finite voltage_V in data row 2")):
            load_profile_csv(path)

    @pytest.mark.parametrize("cell", ["", "nan", "-inf"],
                             ids=["blank", "nan", "inf"])
    @pytest.mark.parametrize("column", ["time_s", "current_A"])
    def test_non_finite_time_or_current_rejected(self, tmp_path, column,
                                                 cell):
        """Both loaders name the file and the first bad data row, not a
        grid that is not uniform or a current without a file."""
        rows = [[0, 1, 3], [1, 1, 3], [2, 1, 3], [3, 1, 3]]
        col = 0 if column == "time_s" else 1
        rows[2][col] = rows[3][col] = cell
        body = "".join(",".join(map(str, row)) + "\n" for row in rows)
        dataset = tmp_path / "dataset.csv"
        dataset.write_text("time_s,current_A,voltage_V\n" + body)
        excitation = tmp_path / "excitation.csv"
        excitation.write_text("time_s,current_A,temp_C\n" + body)
        for load, path in ((load_profile_csv, dataset),
                           (load_current_csv, excitation)):
            with pytest.raises(DataError, match=re.escape(
                    f"{path} has a blank or non-finite {column} in data "
                    "row 3")):
                load(path)

    @pytest.mark.parametrize("times", [(0, -1, -2), (0, 0, 0), (2, 1, 0)])
    def test_time_must_increase(self, tmp_path, times):
        rows = "".join(f"{t},1,3\n" for t in times)
        dataset = tmp_path / "dataset.csv"
        dataset.write_text("time_s,current_A,voltage_V\n" + rows)
        excitation = tmp_path / "excitation.csv"
        excitation.write_text("time_s,current_A,temp_C\n" + rows)
        for load, path in ((load_profile_csv, dataset),
                           (load_current_csv, excitation)):
            with pytest.raises(DataError, match=re.escape(str(path))
                               + " needs an increasing time_s column, got a "
                               "first step of -?[01] s"):
                load(path)

    def test_column_rules(self, tmp_path):
        """Dataset files need exactly three columns; an excitation file needs
        time_s and current_A and may carry others."""
        extra = tmp_path / "extra.csv"
        extra.write_text("time_s,current_A,voltage_V,temp_C\n"
                         "0,1,3,25\n0.5,2,3,25\n")
        with pytest.raises(DataError,
                           match="columns time_s,current_A,voltage_V"):
            load_profile_csv(extra)
        profile = load_current_csv(extra)
        assert profile.dt == 0.5
        np.testing.assert_array_equal(profile.current, [1.0, 2.0])
        no_current = tmp_path / "no_current.csv"
        no_current.write_text("time_s,voltage_V\n0,3\n1,3\n")
        with pytest.raises(DataError, match="columns time_s,current_A"):
            load_current_csv(no_current)
        single = tmp_path / "single.csv"
        single.write_text("time_s,current_A\n0,1\n")
        with pytest.raises(DataError, match="two samples"):
            load_current_csv(single)


class TestDatasetIo:
    def _toy_datasets(self):
        p1 = CurrentProfile(dt=1.0, current=np.array([1.0, 0.0, -1.0, 0.0]))
        v1 = np.array([3.0, 3.1, 3.2, 3.1])
        p2 = CurrentProfile(dt=2.0, current=np.array([0.5, 0.5, 0.0]))
        v2 = np.array([3.0, 2.9, 3.0])
        train = IdentificationDataset(profiles=(p1, p2), voltages=(v1, v2))
        test = IdentificationDataset(profiles=(p1,), voltages=(v1,))
        return train, test

    def test_round_trip_with_meta(self, tmp_path):
        train, test = self._toy_datasets()
        manifest = save_dataset(tmp_path, train, test,
                                extra_meta={"noise_sigma_v": 0.001})
        loaded_train, loaded_test, meta = load_dataset(manifest)
        assert meta == {"noise_sigma_v": 0.001}
        assert len(loaded_train.profiles) == 2 and len(loaded_test.profiles) == 1
        assert loaded_train.names == ("train_0.csv", "train_1.csv")
        assert loaded_test.names == ("test_0.csv",)
        for orig, back in zip(train.profiles, loaded_train.profiles):
            np.testing.assert_allclose(back.current, orig.current, atol=1e-9)

    def test_manifest_errors(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "manifest.json")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"train": ["a.csv"], "test": [], "x": 1}))
        with pytest.raises(DataError, match=re.escape(
                f"unknown manifest {path} keys: ['x']")):
            load_dataset(path)
        path.write_text(json.dumps({"test": ["a.csv"]}))
        with pytest.raises(DataError, match=re.escape(
                f"manifest {path} lists no train profiles")):
            load_dataset(path)
        # profiles are read in manifest order, so a.csv must exist for the
        # empty-test check to be reached
        profile = CurrentProfile(dt=1.0, current=np.array([1.0, 0.0, -1.0]))
        volts = np.array([3.0, 3.1, 3.2])
        save_profile_csv(tmp_path / "a.csv", profile, volts)
        path.write_text(json.dumps({"train": ["a.csv"], "test": []}))
        with pytest.raises(DataError, match=re.escape(
                f"manifest {path} lists no test profiles")):
            load_dataset(path)
        path.write_text(json.dumps({"train": ["a.csv"], "test": ["b.csv"]}))
        with pytest.raises(DataError, match="not found"):
            load_dataset(path)

    @pytest.mark.parametrize("train", [1, True, "a.csv", [1], ["a.csv", None],
                                       {"a.csv": 1}])
    def test_profile_lists_must_be_lists_of_names(self, tmp_path, train):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"train": train, "test": ["a.csv"]}))
        with pytest.raises(DataError, match="train must be a list of file names"):
            load_dataset(path)
