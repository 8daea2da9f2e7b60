"""Search box, voltage-fit objective, and dataset file round trips."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellident import identify
from cellident.bench import generate_synthetic_dataset
from cellident.errors import DataError, DimensionMismatch, OutOfBox, StepTooCoarse
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
from cellident.profiles import CurrentProfile, VoltageSeries

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
        assert box.midpoint()[0] == pytest.approx(1e-10, rel=1e-9)

    def test_out_of_box_is_strict(self, box):
        with pytest.raises(OutOfBox):
            box.normalize(box.upper * 1.01)
        with pytest.raises(OutOfBox):
            box.denormalize(np.array([0.5, 0.5, 1.1]))

    def test_dimension_mismatch(self, box):
        with pytest.raises(DimensionMismatch):
            box.normalize(np.array([1e-11, 1e-10]))
        with pytest.raises(DimensionMismatch):
            box.denormalize(np.zeros(4))

    def test_clip_unit(self, box):
        clipped = box.clip_unit(np.array([-0.2, 0.5, 1.7]))
        np.testing.assert_array_equal(clipped, [0.0, 0.5, 1.0])

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
    def test_role_and_pairing_validation(self):
        profile = CurrentProfile(dt=1.0, current=np.ones(5))
        volts = VoltageSeries(dt=1.0, volts=np.ones(5))
        with pytest.raises(DataError):
            IdentificationDataset(profiles=(profile,), voltages=(volts,),
                                  role="validation")
        with pytest.raises(DataError):
            IdentificationDataset(profiles=(profile,), voltages=(), role="train")
        bad = VoltageSeries(dt=1.0, volts=np.ones(4))
        with pytest.raises(DataError):
            IdentificationDataset(profiles=(profile,), voltages=(bad,), role="train")
        assert len(IdentificationDataset(profiles=(profile,), voltages=(volts,))) == 1


class TestObjective:
    def test_zero_loss_at_truth(self, cell, box, train_dataset):
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, train_dataset)
        truth = np.array([params.k_p, params.k_n, params.D_e])
        evaluation = objective(truth)
        assert evaluation.loss == 0.0
        assert evaluation.per_profile == (0.0,)
        assert not evaluation.penalized

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
        assert loss_both.loss == pytest.approx(loss_1.loss + loss_2.loss,
                                               rel=1e-12)
        assert loss_both.per_profile == (loss_1.loss, loss_2.loss)

    def test_unit_view_clips_and_returns_float(self, cell, box, short_dataset):
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, short_dataset)
        inside = objective.unit(np.ones(3))
        outside = objective.unit(np.array([1.4, 1.0, 1.0]))
        assert isinstance(inside, float)
        assert outside == inside

    def test_divergence_penalty(self, cell, box, i_1c):
        """A dataset whose excitation breaks the model charges the penalty."""
        params, ocv_p, ocv_n = cell
        harsh = CurrentProfile(dt=1.0, current=np.full(600, 20.0 * i_1c))
        fake_volts = VoltageSeries(dt=1.0, volts=np.full(600, 3.0))
        dataset = IdentificationDataset(profiles=(harsh, harsh),
                                        voltages=(fake_volts, fake_volts))
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, dataset)
        evaluation = objective(box.midpoint())
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
        assert evaluation.per_profile == (DIVERGENCE_PENALTY,)

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
        assert evaluation.per_profile == (DIVERGENCE_PENALTY,)

    def test_wrong_box_names_rejected(self, cell, short_dataset):
        params, ocv_p, ocv_n = cell
        other = ParameterBox(names=("a", "b", "c"), lower=np.zeros(3),
                             upper=np.ones(3))
        with pytest.raises(DataError):
            VoltageFitObjective(params, ocv_p, ocv_n, other, short_dataset)

    def test_theta_shape_checked(self, cell, box, short_dataset):
        params, ocv_p, ocv_n = cell
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, short_dataset)
        with pytest.raises(DimensionMismatch):
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
    """The objective builds each profile's theta-free terms on its first call."""

    @pytest.fixture()
    def built(self, monkeypatch):
        """Profiles that ``fixed_terms`` was called for, in call order."""
        profiles = []
        real = identify.fixed_terms

        def counting(model, profile, *args, **kwargs):
            profiles.append(profile)
            return real(model, profile, *args, **kwargs)

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

    def test_divergence_penalty_charged_on_every_call(self, cell, box, pair,
                                                      built, i_1c):
        params, ocv_p, ocv_n = cell
        harsh = CurrentProfile(dt=1.0, current=np.full(600, 20.0 * i_1c))
        fake_volts = VoltageSeries(dt=1.0, volts=np.full(600, 3.0))
        dataset = IdentificationDataset(profiles=(pair.profiles[0], harsh),
                                        voltages=(pair.voltages[0], fake_volts))
        objective = VoltageFitObjective(params, ocv_p, ocv_n, box, dataset)
        truth = np.array([params.k_p, params.k_n, params.D_e])
        for _ in range(3):
            evaluation = objective(truth)
            assert evaluation.penalized
            assert evaluation.per_profile == (0.0, DIVERGENCE_PENALTY)
        assert built == [pair.profiles[0], harsh]

    def test_too_large_d_e_raises_on_every_call(self, cell, pair, built):
        params, ocv_p, ocv_n = cell
        wide = ParameterBox(names=THETA_NAMES,
                            lower=np.array([2.0e-11, 2.8e-11, 1.6e-10]),
                            upper=np.array([4.5e-11, 5.6e-11, 1.0e-8]))
        objective = VoltageFitObjective(params, ocv_p, ocv_n, wide, pair)
        truth = np.array([params.k_p, params.k_n, params.D_e])
        assert objective(truth).loss == 0.0
        for _ in range(2):
            with pytest.raises(StepTooCoarse):
                objective(wide.upper.copy())
        assert objective(truth).loss == 0.0
        assert len(built) == len(pair.profiles)

    def test_ocv_table_error_raised_on_every_call(self, cell, box, pair,
                                                  built):
        """An out-of-table OCV query is an error, never cached or penalized."""
        params, ocv_p, ocv_n = cell
        narrow = copy.copy(ocv_p)
        narrow.x = 0.5 * ocv_p.x   # the cell starts at cathode x = 0.8
        objective = VoltageFitObjective(params, narrow, ocv_n, box, pair)
        for _ in range(3):
            with pytest.raises(DataError, match="outside table range"):
                objective(box.midpoint())
        assert built == 3 * [pair.profiles[0]]


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        profile = CurrentProfile(dt=0.5, current=np.array([1.0, -2.0, 0.5]))
        volts = VoltageSeries(dt=0.5, volts=np.array([3.2, 3.1, 3.15]))
        path = tmp_path / "run.csv"
        save_profile_csv(path, profile, volts)
        loaded_p, loaded_v = load_profile_csv(path)
        assert loaded_p.dt == pytest.approx(0.5)
        np.testing.assert_allclose(loaded_p.current, profile.current, atol=1e-9)
        np.testing.assert_allclose(loaded_v.volts, volts.volts, atol=1e-9)

    def test_mismatched_grids_rejected_on_save(self, tmp_path):
        profile = CurrentProfile(dt=1.0, current=np.ones(3))
        volts = VoltageSeries(dt=1.0, volts=np.ones(4))
        with pytest.raises(DataError):
            save_profile_csv(tmp_path / "x.csv", profile, volts)

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
        v1 = VoltageSeries(dt=1.0, volts=np.array([3.0, 3.1, 3.2, 3.1]))
        p2 = CurrentProfile(dt=2.0, current=np.array([0.5, 0.5, 0.0]))
        v2 = VoltageSeries(dt=2.0, volts=np.array([3.0, 2.9, 3.0]))
        train = IdentificationDataset(profiles=(p1, p2), voltages=(v1, v2))
        test = IdentificationDataset(profiles=(p1,), voltages=(v1,), role="test")
        return train, test

    def test_round_trip_with_meta(self, tmp_path):
        train, test = self._toy_datasets()
        manifest = save_dataset(tmp_path, train, test,
                                extra_meta={"noise_sigma_v": 0.001})
        loaded_train, loaded_test, meta = load_dataset(manifest)
        assert meta == {"noise_sigma_v": 0.001}
        assert len(loaded_train) == 2 and len(loaded_test) == 1
        assert loaded_train.role == "train" and loaded_test.role == "test"
        for orig, back in zip(train.profiles, loaded_train.profiles):
            np.testing.assert_allclose(back.current, orig.current, atol=1e-9)

    def test_manifest_errors(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "manifest.json")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"train": ["a.csv"], "test": [], "x": 1}))
        with pytest.raises(DataError, match="unknown keys"):
            load_dataset(path)
        # profiles are read in manifest order, so a.csv must exist for the
        # empty-test check to be reached
        profile = CurrentProfile(dt=1.0, current=np.array([1.0, 0.0, -1.0]))
        volts = VoltageSeries(dt=1.0, volts=np.array([3.0, 3.1, 3.2]))
        save_profile_csv(tmp_path / "a.csv", profile, volts)
        path.write_text(json.dumps({"train": ["a.csv"], "test": []}))
        with pytest.raises(DataError, match="no test profiles"):
            load_dataset(path)
        path.write_text(json.dumps({"train": ["a.csv"], "test": ["b.csv"]}))
        with pytest.raises(DataError, match="not found"):
            load_dataset(path)
