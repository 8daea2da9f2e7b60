"""Benchmark orchestration: configs, synthetic data, sweep, and reports."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cellident import bench
from cellident.bench import (
    MAX_PROFILE_SAMPLES,
    BenchmarkReport,
    ExperimentConfig,
    ProfileSpec,
    build_dataset,
    build_objectives,
    default_config,
    export_report,
    generate_profile,
    generate_synthetic_dataset,
    one_c_current,
    resolve_cell,
    run_benchmark,
)
from cellident.baselines import min_budget
from cellident.ecm import electrolyte_time_constants, simulate
from cellident.errors import ConfigError, DataError
from cellident.identify import (
    THETA_NAMES,
    IdentificationDataset,
    ParameterBox,
    default_box,
)
from cellident.profiles import CurrentProfile
from cellident.params import reference_cell_path


@pytest.fixture(scope="module")
def tiny_config():
    return default_config(
        budget=12,
        repetitions=2,
        master_seed=777,
        train_profiles=(ProfileSpec(kind="rcid-like", duration_s=600.0,
                                    dt_s=1.0),),
        test_profiles=(ProfileSpec(kind="drive-cycle-like", duration_s=300.0,
                                   dt_s=1.0),),
    )


@pytest.fixture(scope="module")
def tiny_run(tiny_config, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench")
    report = run_benchmark(tiny_config, out_dir=out_dir)
    return report, out_dir


class TestOneCCurrent:
    def test_limiting_electrode_capacity(self, params):
        q_p = params.F * params.eps_am_p * params.L_p * params.A * params.c_max_p
        q_n = params.F * params.eps_am_n * params.L_n * params.A * params.c_max_n
        assert one_c_current(params) == min(q_p, q_n) / 3600.0
        # the reference cell is cathode-limited, in the low single-digit amps
        assert q_p < q_n
        assert 1.0 < one_c_current(params) < 3.0


class TestProfileSpec:
    def test_accepts_known_kinds(self):
        ProfileSpec(kind="rcid-like", duration_s=600.0, dt_s=1.0)
        ProfileSpec(kind="drive-cycle-like", duration_s=600.0, dt_s=1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ProfileSpec(kind="sinusoid", duration_s=600.0, dt_s=1.0)

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigError):
            ProfileSpec(kind="rcid-like", duration_s=600.0, dt_s=0.0)
        with pytest.raises(ConfigError):
            ProfileSpec(kind="rcid-like", duration_s=99.0, dt_s=1.0)

    @pytest.mark.parametrize("duration,dt", [
        (600.0, float("nan")), (600.0, float("inf")), (600.0, -1.0),
        (float("nan"), 1.0), (float("inf"), 1.0), (-5.0, 1.0)])
    def test_rejects_non_finite_or_negative_grid(self, duration, dt):
        with pytest.raises(ConfigError, match="dt_s|duration_s"):
            ProfileSpec(kind="rcid-like", duration_s=duration, dt_s=dt)

    @pytest.mark.parametrize("kind,tile", [("rcid-like", 0),
                                           ("drive-cycle-like", 600)])
    def test_sample_cap_counts_what_the_generator_allocates(self, kind, tile):
        """round(duration/dt) + 1 samples, plus the 300-s base tile of a
        drive cycle (600 samples at dt 0.5 s): the cap passes, one more
        sample fails."""
        at_cap = (MAX_PROFILE_SAMPLES - 1 - tile) * 0.5
        ProfileSpec(kind=kind, duration_s=at_cap, dt_s=0.5)
        ProfileSpec(kind=kind, duration_s=at_cap + 0.2, dt_s=0.5)   # rounds off
        with pytest.raises(ConfigError, match=(
                f"needs {MAX_PROFILE_SAMPLES + 1:,} samples, above the cap")):
            ProfileSpec(kind=kind, duration_s=at_cap + 0.5, dt_s=0.5)

    @pytest.mark.parametrize("kind,duration,dt", [
        ("rcid-like", 1e15, 1.0), ("drive-cycle-like", 1e-6, 1e-9),
        ("rcid-like", 1e-300, 5e-324), ("drive-cycle-like", 1e308, 1e-300)])
    def test_sample_cap_rejects_huge_and_unrepresentable_counts(
            self, kind, duration, dt):
        with pytest.raises(ConfigError, match="above the cap"):
            ProfileSpec(kind=kind, duration_s=duration, dt_s=dt)

    def test_dict_round_trip(self):
        spec = ProfileSpec(kind="rcid-like", duration_s=600.0, dt_s=0.5)
        assert ProfileSpec.from_dict(spec.to_dict()) == spec

    def test_dict_rejects_unknown_and_missing_keys(self):
        good = ProfileSpec(kind="rcid-like", duration_s=600.0, dt_s=1.0).to_dict()
        with pytest.raises(ConfigError, match="unknown"):
            ProfileSpec.from_dict({**good, "ramp": True})
        del good["dt_s"]
        with pytest.raises(ConfigError, match="missing"):
            ProfileSpec.from_dict(good)


class TestExperimentConfig:
    def test_defaults(self):
        config = default_config()
        assert config.budget == 50
        assert config.repetitions == 10
        assert config.s0 == 10
        assert config.methods == ("bo", "gd", "pso")
        assert config.noise_sigma_v == 0.0

    @pytest.mark.parametrize("overrides", [
        {"repetitions": 0},
        {"budget": 1},
        {"methods": ()},
        {"methods": ("bo", "annealing")},
        {"noise_sigma_v": -1e-3},
        {"s0": 0},
        {"s0": 51},
        {"train_profiles": ()},
        {"test_profiles": ()},
    ])
    def test_validation(self, overrides):
        with pytest.raises(ConfigError):
            default_config(**overrides)

    @pytest.mark.parametrize("names,lower,match", [
        (["k_n", "k_p", "D_e"], [2.0e-11, 2.8e-11, 1.6e-10], "box names"),
        (["k_p", "k_n", "R_s"], [2.0e-11, 2.8e-11, 1.6e-10], "box names"),
        (["k_p", "k_n", "D_e"], [-1e-11, 2.8e-11, 1.6e-10], "lower bounds"),
        (["k_p", "k_n", "D_e"], [2.0e-11, 2.8e-11, 0.0], "lower bounds"),
    ])
    def test_box_validation(self, names, lower, match):
        box = {"names": names, "lower": lower,
               "upper": [4.5e-11, 5.6e-11, 4.0e-10]}
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict({"box": box})

    def test_dict_round_trip(self, tiny_config):
        rebuilt = ExperimentConfig.from_dict(tiny_config.to_dict())
        assert rebuilt.to_dict() == tiny_config.to_dict()

    def test_dict_rejects_unknown_key(self, tiny_config):
        raw = tiny_config.to_dict()
        raw["verbose"] = True
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict(raw)

    def test_from_json_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_json(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            ExperimentConfig.from_json(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            ExperimentConfig.from_json(arr)

    def test_from_json_round_trip(self, tiny_config, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config.to_dict()))
        rebuilt = ExperimentConfig.from_json(path)
        assert rebuilt.to_dict() == tiny_config.to_dict()


_JUNK = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4), st.integers(-5, -1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.5, 12.9,
                     "abc", "nan", "12", 2**70]))


def _or_junk(valid):
    return st.one_of(valid, _JUNK)


@st.composite
def _typed_configs(draw):
    """Config dicts whose numeric fields hold either a valid value or any
    other JSON-like value: strings, bools, null, floats, NaN, +-inf and
    negatives."""
    fields = {"budget": st.integers(10, 60), "repetitions": st.integers(1, 3),
              "s0": st.integers(1, 10), "master_seed": st.integers(0, 2**32),
              "noise_sigma_v": st.one_of(st.floats(0.0, 0.01),
                                         st.integers(0, 1))}
    raw = {key: draw(_or_junk(valid)) for key, valid in fields.items()
           if draw(st.booleans())}
    if draw(st.booleans()):
        raw["train_profiles"] = [{
            "kind": "rcid-like",
            "duration_s": draw(_or_junk(st.sampled_from([600, 600.0]))),
            "dt_s": draw(_or_junk(st.sampled_from([1, 1.0])))}]
    if draw(st.booleans()):
        raw["box"] = default_box().to_dict()
        side = raw["box"][draw(st.sampled_from(["lower", "upper"]))]
        i = draw(st.integers(0, 2))
        side[i] = draw(_or_junk(st.just(side[i])))
    return raw


class TestConfigTypes:
    """The loader takes JSON integers for counts and seeds and finite
    numbers for real values; anything else is a ConfigError."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(raw=_typed_configs())
    def test_loads_typed_values_or_raises_config_error(self, raw):
        try:
            config = ExperimentConfig.from_dict(raw)
        except ConfigError:
            return
        for key in ("budget", "repetitions", "s0", "master_seed"):
            assert type(getattr(config, key)) is int
        assert config.master_seed >= 0
        assert math.isfinite(config.noise_sigma_v)
        assert config.noise_sigma_v >= 0.0
        for spec in config.train_profiles:
            assert math.isfinite(spec.duration_s) and math.isfinite(spec.dt_s)
        assert np.all(np.isfinite([config.box.lower, config.box.upper]))

    @pytest.mark.parametrize("raw", [
        {"budget": "abc"}, {"budget": 12.9}, {"budget": True},
        {"repetitions": 1.0}, {"s0": 5.5}, {"master_seed": "7"},
        {"noise_sigma_v": "nan"}, {"noise_sigma_v": float("nan")},
        {"noise_sigma_v": float("inf")}, {"noise_sigma_v": True},
        {"master_seed": -1},
        {"train_profiles": [{"kind": "rcid-like", "duration_s": "600",
                             "dt_s": 1.0}]},
        {"box": {**default_box().to_dict(),
                 "lower": ["x", 2.8e-11, 1.6e-10]}},
        {"box": {**default_box().to_dict(),
                 "upper": [4.5e-11, 5.6e-11, float("inf")]}},
        {"box": 3},
        {"parameter_file": 5}, {"parameter_file": ["cell.json"]},
        {"methods": "bo"}, {"methods": ["gd", "gd"]},
    ])
    def test_rejected(self, raw):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("overrides", [
        {"master_seed": -1}, {"noise_sigma_v": float("nan")},
        {"noise_sigma_v": float("inf")}, {"methods": ("gd", "gd")},
    ])
    def test_replace_checked_too(self, overrides):
        """CLI overrides go through dataclasses.replace, not from_dict."""
        with pytest.raises(ConfigError):
            default_config(**overrides)


    def test_methods_string_named_as_written(self):
        with pytest.raises(ConfigError, match="got 'bo'"):
            ExperimentConfig.from_dict({"methods": "bo"})

    def test_parameter_file_null_is_the_packaged_cell(self):
        assert ExperimentConfig.from_dict(
            {"parameter_file": None}).parameter_file is None


class TestResolveCell:
    def test_provenance_hashes_recompute(self):
        params, ocv_p, ocv_n, provenance = resolve_cell(default_config())
        path = reference_cell_path()
        assert provenance["parameter_file"] == "packaged:reference_cell.json"
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert provenance["parameter_sha256"] == expected
        assert len(provenance["ocv_cathode_sha256"]) == 64
        assert len(provenance["ocv_anode_sha256"]) == 64
        assert params.k_p > 0 and ocv_p.u[0] > ocv_n.u[0]


    def test_provenance_holds_no_absolute_path(self, tmp_path, monkeypatch):
        source = reference_cell_path().parent
        for name in ("reference_cell.json", "ocv_cathode.csv", "ocv_anode.csv"):
            (tmp_path / name).write_bytes((source / name).read_bytes())
        monkeypatch.chdir(tmp_path)
        packaged = resolve_cell(default_config())[3]
        given = resolve_cell(default_config(parameter_file="reference_cell.json"))[3]
        assert given["parameter_file"] == "reference_cell.json"
        assert given["parameter_sha256"] == packaged["parameter_sha256"]
        for provenance in (packaged, given):
            text = json.dumps(provenance)
            assert str(source) not in text and str(tmp_path) not in text


class TestStepResolution:
    """A box whose largest D_e the profile steps cannot resolve is rejected."""

    def test_default_config_accepted(self, cell):
        config = default_config()
        params, ocv_p, ocv_n = cell
        train, test, _ = build_dataset(config, params, ocv_p, ocv_n)
        build_objectives(params, ocv_p, ocv_n, config.box, train, test)

    def test_large_d_e_rejected_before_any_run(self, tmp_path, monkeypatch):
        box = default_box().to_dict()
        box["upper"][2] = 1e-8
        runs = []
        monkeypatch.setattr(bench, "run_method",
                            lambda *args: runs.append(args))
        with pytest.raises(ConfigError, match=(
                r"upper D_e = 1e-08 m\^2/s cannot be simulated on "
                r"train_profiles\[0\] with dt = 1 s")):
            run_benchmark(default_config(box=ParameterBox.from_dict(box)),
                          out_dir=tmp_path)
        assert runs == []
        assert list(tmp_path.iterdir()) == []


class TestGenerateProfile:
    def test_soc_window_guard(self, params):
        # starting the anode at 8% leaves no room for the opening discharge
        shallow = params.replace(c_n0=2400.0)
        with pytest.raises(ConfigError, match="electrode n"):
            generate_profile("rcid-like", 3600.0, 1.0, 0, shallow)

    def test_reference_cell_passes_window(self, params):
        profile = generate_profile("rcid-like", 600.0, 1.0, 0, params)
        assert profile.n == 601

    def test_unknown_kind(self, params):
        with pytest.raises(ConfigError, match="kind"):
            generate_profile("sinusoid", 600.0, 1.0, 0, params)

    @pytest.mark.parametrize("kind", ["rcid-like", "drive-cycle-like"])
    @pytest.mark.parametrize("duration,dt", [
        (600.0, 0.0), (600.0, -1.0), (600.0, float("nan")), (-5.0, 1.0),
        (99.0, 1.0), (float("inf"), 1.0)])
    def test_bad_grid_rejected_before_building(self, params, monkeypatch,
                                               kind, duration, dt):
        def unbuilt(*args, **kwargs):
            raise AssertionError("waveform built for a rejected grid")

        monkeypatch.setattr(bench, "staircase_profile", unbuilt)
        monkeypatch.setattr(bench, "noise_cycle_profile", unbuilt)
        with pytest.raises(ConfigError):
            generate_profile(kind, duration, dt, 0, params)


class TestBuildDataset:
    @pytest.mark.parametrize("key", ["train_profiles", "test_profiles"])
    def test_profile_leaving_the_soc_window_is_named(self, cell, key):
        """generate_profile's ConfigError names only the kind; build_dataset
        prefixes the profile's config key."""
        short = ProfileSpec(kind="rcid-like", duration_s=600.0, dt_s=1.0)
        long = ProfileSpec(kind="rcid-like", duration_s=36000.0, dt_s=1.0)
        config = default_config(**{key: (short, long)})
        with pytest.raises(ConfigError, match=(
                rf"^{key}\[1\]: profile kind 'rcid-like' drives electrode")):
            build_dataset(config, *cell)


class TestGenerateSyntheticDataset:
    def test_zero_noise_is_exact_simulation(self, cell):
        params, ocv_p, ocv_n = cell
        profile = generate_profile("rcid-like", 600.0, 1.0, 0, params)
        train, test, meta = generate_synthetic_dataset(
            params, ocv_p, ocv_n, [profile], [profile], 0.0, seed=5)
        clean = simulate(params, ocv_p, ocv_n, profile)
        np.testing.assert_array_equal(train.voltages[0], clean)
        np.testing.assert_array_equal(test.voltages[0], clean)

    def test_noise_level_matches_sigma(self, cell):
        params, ocv_p, ocv_n = cell
        profile = generate_profile("rcid-like", 600.0, 1.0, 0, params)
        sigma = 2e-3
        train, _, _ = generate_synthetic_dataset(
            params, ocv_p, ocv_n, [profile], [profile], sigma, seed=5)
        clean = simulate(params, ocv_p, ocv_n, profile)
        residual = train.voltages[0] - clean
        assert abs(np.std(residual) - sigma) < 0.1 * sigma

    def test_bitwise_reproducible(self, cell):
        params, ocv_p, ocv_n = cell
        profile = generate_profile("rcid-like", 600.0, 1.0, 0, params)
        a, _, _ = generate_synthetic_dataset(
            params, ocv_p, ocv_n, [profile], [profile], 1e-3, seed=9)
        b, _, _ = generate_synthetic_dataset(
            params, ocv_p, ocv_n, [profile], [profile], 1e-3, seed=9)
        c, _, _ = generate_synthetic_dataset(
            params, ocv_p, ocv_n, [profile], [profile], 1e-3, seed=10)
        np.testing.assert_array_equal(a.voltages[0], b.voltages[0])
        assert not np.array_equal(a.voltages[0], c.voltages[0])

    def test_meta_records_truth(self, cell):
        params, ocv_p, ocv_n = cell
        profile = generate_profile("rcid-like", 600.0, 1.0, 0, params)
        _, _, meta = generate_synthetic_dataset(
            params, ocv_p, ocv_n, [profile], [profile], 0.0, seed=0)
        assert meta["truth"] == {"k_p": params.k_p, "k_n": params.k_n,
                                 "D_e": params.D_e}

    def test_negative_sigma_rejected(self, cell):
        params, ocv_p, ocv_n = cell
        profile = generate_profile("rcid-like", 600.0, 1.0, 0, params)
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(params, ocv_p, ocv_n, [profile],
                                       [profile], -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, cell, sigma):
        params, ocv_p, ocv_n = cell
        profile = generate_profile("rcid-like", 600.0, 1.0, 0, params)
        with pytest.raises(ConfigError, match="noise_sigma_v"):
            generate_synthetic_dataset(params, ocv_p, ocv_n, [profile],
                                       [profile], sigma, seed=0)

    def test_profiles_seeded_in_train_then_test_order(self, cell):
        params, ocv_p, ocv_n = cell
        a = generate_profile("rcid-like", 600.0, 1.0, 0, params)
        b = generate_profile("drive-cycle-like", 300.0, 1.0, 1, params)
        train, test, _ = generate_synthetic_dataset(
            params, ocv_p, ocv_n, [a, b], [b], 1e-3, seed=4)
        children = np.random.SeedSequence(4).spawn(3)
        for profile, measured, child in zip(
                (a, b, b), train.voltages + test.voltages, children):
            clean = simulate(params, ocv_p, ocv_n, profile)
            noise = np.random.default_rng(child).normal(0.0, 1e-3,
                                                        size=profile.n)
            np.testing.assert_array_equal(measured, clean + noise)
        assert train.profiles == (a, b) and test.profiles == (b,)
        assert train.names == ("train_profiles[0]", "train_profiles[1]")
        assert test.names == ("test_profiles[0]",)

    def test_coarse_grid_propagates_step_error(self, cell):
        """check_step's error, relabelled with the failing profile's role
        and index."""
        params, ocv_p, ocv_n = cell
        coarse = generate_profile("rcid-like", 600.0, 5.0, 0, params)
        fine = generate_profile("rcid-like", 600.0, 1.0, 0, params)
        for train, test, name in (([coarse], [fine], r"train_profiles\[0\]"),
                                  ([fine, fine], [fine, coarse],
                                   r"test_profiles\[1\]")):
            with pytest.raises(ConfigError, match=(
                    rf"cannot simulate {name} at dt = 5 s: dt = 5 s exceeds")):
                generate_synthetic_dataset(params, ocv_p, ocv_n, train, test,
                                           0.0, seed=0)


class TestRunBenchmark:
    def test_rows_and_budget(self, tiny_run):
        report, _ = tiny_run
        rows = report.results["rows"]
        assert len(rows) == 6  # 3 methods x 2 repetitions
        assert {(r["method"], r["rep"]) for r in rows} == {
            (m, rep) for m in ("bo", "gd", "pso") for rep in (0, 1)}
        for row in rows:
            assert row["failed"] is False
            assert row["evaluations"] == 12
            assert row["train_loss_V2"] >= 0.0
            assert row["test_loss_V2"] >= 0.0
            assert set(row["theta"]) == {"k_p", "k_n", "D_e"}

    def test_aggregates_recompute(self, tiny_run):
        report, _ = tiny_run
        report.validate()
        for method in ("bo", "gd", "pso"):
            agg = report.results["aggregates"][method]
            assert agg["n_ok"] == 2
            assert set(agg) == {"train_mean", "train_var", "test_mean",
                                "test_var", "n_ok"}

    def test_profile_lengths(self, tiny_run):
        report, _ = tiny_run
        assert report.results["profile_lengths"] == {"train": [601],
                                                     "test": [301]}

    def test_body_is_deterministic(self, tiny_config, tiny_run):
        report, _ = tiny_run
        again = run_benchmark(tiny_config)
        assert again.body_bytes() == report.body_bytes()

    def test_meta_checksum_matches_body(self, tiny_run):
        report, _ = tiny_run
        expected = hashlib.sha256(report.body_bytes()).hexdigest()
        assert report.meta["body_sha256"] == expected
        assert report.meta["total_seconds"] > 0.0

    def test_artifacts_written(self, tiny_run):
        _, out_dir = tiny_run
        assert (out_dir / "report.json").exists()
        assert (out_dir / "dataset" / "manifest.json").exists()
        for method in ("bo", "gd", "pso"):
            for rep in (0, 1):
                assert (out_dir / f"trace_{method}_rep{rep}.csv").exists()

    def test_exports_written_from_the_run(self, tiny_run, tmp_path):
        """The tables and voltage traces match a re-export of the report."""
        report, out_dir = tiny_run
        written = export_report(report, tmp_path / "re")
        assert written
        for path in written:
            rel = path.relative_to(tmp_path / "re")
            assert (out_dir / rel).read_bytes() == path.read_bytes(), rel
        assert len(list((out_dir / "traces").iterdir())) == 6

    def test_report_round_trips_through_disk(self, tiny_run):
        report, out_dir = tiny_run
        loaded = BenchmarkReport.load(out_dir / "report.json")
        assert loaded.body_bytes() == report.body_bytes()

    def test_paired_seeding_across_methods(self, tiny_run):
        """GD's start and PSO's first particle come from the same seed."""
        _, out_dir = tiny_run
        for rep in (0, 1):
            first = {}
            for method in ("gd", "pso"):
                lines = (out_dir / f"trace_{method}_rep{rep}.csv").read_text().splitlines()
                first[method] = lines[1].split(",")[1:4]
            assert first["gd"] == first["pso"]

    def test_failure_recorded_not_raised(self, monkeypatch):
        def broken(*args):
            raise ValueError("forced optimizer failure")

        monkeypatch.setattr(bench, "gradient_descent", broken)
        config = default_config(
            methods=("gd",), budget=6, s0=2, repetitions=1,
            train_profiles=(ProfileSpec(kind="rcid-like", duration_s=600.0,
                                        dt_s=1.0),),
            test_profiles=(ProfileSpec(kind="rcid-like", duration_s=600.0,
                                       dt_s=1.0),),
        )
        report = run_benchmark(config)
        (row,) = report.results["rows"]
        assert row["failed"] is True
        assert "ValueError" in row["error"]
        assert row["train_loss_V2"] is None
        agg = report.results["aggregates"]["gd"]
        assert agg["n_ok"] == 0
        assert agg["train_mean"] is None
        report.validate()  # aggregates with no surviving rows still check out


    def test_profile_the_model_cannot_simulate_rejected_before_any_row(
            self, tmp_path, monkeypatch, i_1c):
        """A training profile whose theta-free terms diverge is a DataError
        naming it before any run, and nothing is written."""
        real = bench.build_dataset

        def harsh_train(*args):
            train, test, meta = real(*args)
            n = test.profiles[0].n
            harsh = CurrentProfile(dt=1.0, current=np.full(n, 20.0 * i_1c))
            train = IdentificationDataset(profiles=(harsh,),
                                          voltages=test.voltages[:1])
            return train, test, meta

        monkeypatch.setattr(bench, "build_dataset", harsh_train)
        runs = []
        monkeypatch.setattr(bench, "run_method",
                            lambda *args: runs.append(args))
        config = default_config(
            methods=("random", "gd"), budget=6, s0=2, repetitions=1,
            train_profiles=(ProfileSpec(kind="rcid-like", duration_s=600.0,
                                        dt_s=1.0),),
            test_profiles=(ProfileSpec(kind="rcid-like", duration_s=600.0,
                                       dt_s=1.0),))
        with pytest.raises(DataError, match=(
                "no theta can fit data the model cannot simulate: "
                "profile 0: electrode")):
            run_benchmark(config, out_dir=tmp_path)
        assert runs == []
        assert list(tmp_path.iterdir()) == []


class TestBudgetMinimums:
    @pytest.mark.parametrize("methods,budget", [
        (("bo", "gd", "pso"), 4), (("gd",), 4), (("pso",), 9)])
    def test_rejected_before_any_run(self, tmp_path, monkeypatch, methods,
                                     budget):
        runs = []
        monkeypatch.setattr(bench, "run_method",
                            lambda *args: runs.append(args))
        with pytest.raises(ConfigError, match="minimum"):
            run_benchmark(default_config(methods=methods, budget=budget, s0=2),
                          out_dir=tmp_path)
        assert runs == []
        assert list(tmp_path.iterdir()) == []

    def test_minimum_itself_runs(self):
        config = default_config(
            methods=("gd", "random"), budget=5, s0=2, repetitions=1,
            train_profiles=(ProfileSpec(kind="rcid-like", duration_s=200.0,
                                        dt_s=1.0),),
            test_profiles=(ProfileSpec(kind="rcid-like", duration_s=200.0,
                                       dt_s=1.0),))
        rows = run_benchmark(config).results["rows"]
        assert [(r["method"], r["failed"], r["evaluations"]) for r in rows] \
            == [("gd", False, 5), ("random", False, 5)]


# half the factors near the default box, half anywhere in (0, 10]
_FACTORS = st.one_of(st.floats(0.5, 1.5), st.floats(1e-300, 10.0))
_METHODS = ("bo", "gd", "pso", "random")
_BREAKS = ("names", "lower", "order", "methods", "budget", "s0", "D_e",
           "duration", "floor")


def _d_e_limit(params, dt) -> float:
    """Largest D_e that ``check_step`` accepts at step ``dt``: the fastest
    electrolyte time constant, inversely proportional to D_e, must reach
    10 dt (the solid ones do at every dt drawn here)."""
    return params.D_e * min(electrolyte_time_constants(params)) / (10.0 * dt)


def _d_e_floor(params, dt) -> float:
    """Smallest D_e that ``check_step_floor`` accepts at step ``dt``: the
    slowest electrolyte time constant times eps^(1/3) must not exceed dt."""
    return (params.D_e * max(electrolyte_time_constants(params))
            * np.finfo(float).eps ** (1 / 3) / dt)


@st.composite
def _raw_configs(draw, broken):
    """A config dict drawn from the loader's rules: names
    THETA_NAMES, bounds at (0, 10]x the default box's with lower below
    upper, linear or log, an upper D_e between the step's floor and its
    coarse limit, distinct known methods, a budget of 2..12 that reaches
    each method's minimum, 1 <= s0 <= budget and profiles of 100-300 dt;
    then, unless ``broken`` is None, the rule it names (one of _BREAKS) is
    broken."""
    base = default_box()
    dt = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]))
    cell = resolve_cell(default_config())[0]
    d_e_cap = 0.999 * _d_e_limit(cell, dt)
    d_e_floor = 1.001 * _d_e_floor(cell, dt)
    factors = [sorted(draw(st.lists(_FACTORS, min_size=2, max_size=2)))
               for _ in THETA_NAMES]
    lower = [a * v for (a, _), v in zip(factors, base.lower)]
    upper = [b * v for (_, b), v in zip(factors, base.upper)]
    if upper[2] > d_e_cap:   # keep the D_e range, scaled under the cap
        lower[2], upper[2] = (lower[2] * d_e_cap / upper[2], d_e_cap)
    elif upper[2] < d_e_floor:   # the same, scaled over the floor
        lower[2], upper[2] = (lower[2] * d_e_floor / upper[2], d_e_floor)
    methods = draw(st.lists(st.sampled_from(_METHODS), min_size=1,
                            max_size=4, unique=True))
    need = max(2, *(min_budget(m, len(THETA_NAMES)) for m in methods))
    budget = draw(st.integers(need, 12))
    raw = {
        "box": {"names": list(THETA_NAMES), "lower": lower, "upper": upper,
                "scales": draw(st.lists(st.sampled_from(["linear", "log"]),
                                        min_size=3, max_size=3))},
        "methods": methods,
        "budget": budget,
        "s0": draw(st.integers(1, budget)),
        "repetitions": 1,
        "noise_sigma_v": draw(st.sampled_from([0.0, 1e-3])),
        "master_seed": draw(st.integers(0, 2**32 - 1)),
    }
    n_steps = draw(st.integers(100, 300))
    i = draw(st.integers(0, 2))
    box = raw["box"]
    if broken == "names":   # permuted, or one unknown
        box["names"] = draw(st.permutations(THETA_NAMES + ("R_s",)).map(
            lambda names: names[:3]).filter(
                lambda names: tuple(names) != THETA_NAMES))
    elif broken == "lower":
        box["lower"][i] = draw(st.floats(-1.0, 0.0)) * base.lower[i]
    elif broken == "order":
        box["lower"][i], box["upper"][i] = box["upper"][i], box["lower"][i]
    elif broken == "methods":
        raw["methods"] = draw(st.sampled_from([[], ["bo", "bo"], ["sgd"]]))
    elif broken == "budget":   # below a method's minimum, else below 2
        raw["budget"] = draw(st.integers(2, need - 1) if need > 2
                             else st.integers(-2, 1))
    elif broken == "s0":
        raw["s0"] = draw(st.sampled_from([0, budget + 1]))
    elif broken == "D_e":   # the whole D_e range too large for the step
        box["lower"][2] = d_e_cap * draw(st.floats(1.01, 10.0))
        box["upper"][2] = 2.0 * box["lower"][2]
    elif broken == "floor":   # the whole D_e range too small for the step
        box["upper"][2] = d_e_floor * draw(st.floats(0.01, 0.99))
        box["lower"][2] = 0.5 * box["upper"][2]
    elif broken == "duration":
        n_steps = draw(st.integers(1, 99))
    spec = {"kind": draw(st.sampled_from(["rcid-like", "drive-cycle-like"])),
            "duration_s": dt * n_steps, "dt_s": dt}
    return {**raw, "train_profiles": [spec], "test_profiles": [spec]}


class TestEveryLoadedConfigRuns:
    """A config that breaks a rule fails to load or run_benchmark rejects
    it with a ConfigError before any row; any other runs, and no row
    fails.  Every rule of _BREAKS, and none, is drawn on purpose."""

    @pytest.mark.parametrize("broken", [None, *_BREAKS])
    @settings(max_examples=25, derandomize=True, deadline=None,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_runs_or_rejected_up_front(self, broken, data):
        raw = data.draw(_raw_configs(broken))
        try:
            report = run_benchmark(ExperimentConfig.from_dict(raw))
        except ConfigError:
            event("rejected")
            assert broken is not None
            return
        event("ran")
        assert broken is None
        failed = [r for r in report.results["rows"] if r["failed"]]
        assert failed == []

    @pytest.mark.parametrize("lower,upper,scales", [
        # found by the property: denormal lower bounds overflow the loss
        ([3e-11, 6.2302e-319, 3.56012e-318], [3.6e-10, 4.5e-10, 3.2e-9],
         ["log", "log", "log"]),
        ([3e-11, 6.2302e-319, 8.4e-11], [1.5e-10, 4.5e-10, 1.3e-9],
         ["log", "linear", "linear"]),
        # ten times the default box
        ([2e-10, 2.8e-10, 1.6e-9], [4.5e-10, 5.6e-10, 4e-9],
         ["linear", "linear", "linear"]),
    ])
    @pytest.mark.filterwarnings(   # overflows are penalized, not printed
        "error::RuntimeWarning")
    def test_extreme_boxes_run(self, lower, upper, scales):
        spec = {"kind": "drive-cycle-like", "duration_s": 29.4, "dt_s": 0.1}
        raw = {"box": {"names": list(THETA_NAMES), "lower": lower,
                       "upper": upper, "scales": scales},
               "methods": ["bo", "random"], "budget": 8, "s0": 5,
               "repetitions": 1, "noise_sigma_v": 1e-3,
               "master_seed": 20260817,
               "train_profiles": [spec], "test_profiles": [spec]}
        rows = run_benchmark(ExperimentConfig.from_dict(raw)).results["rows"]
        assert [(r["method"], r["failed"]) for r in rows] == [
            ("bo", False), ("random", False)]


class TestReportValidation:
    def test_tampered_aggregate_rejected_in_memory(self, tiny_run):
        report, _ = tiny_run
        doc = json.loads(json.dumps(report.results))  # deep copy
        doc["aggregates"]["bo"]["train_mean"] = 123.456
        with pytest.raises(DataError, match="does not match"):
            BenchmarkReport(results=doc).validate()

    def test_tampered_file_rejected_on_load(self, tiny_run, tmp_path):
        report, out_dir = tiny_run
        doc = json.loads((out_dir / "report.json").read_text())
        doc["results"]["aggregates"]["gd"]["test_var"] = 0.777
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            BenchmarkReport.load(bad)

    @pytest.mark.parametrize("edit", ["theta", "truth"])
    def test_checksum_verified_on_load(self, tiny_run, tmp_path, edit):
        _, out_dir = tiny_run
        doc = json.loads((out_dir / "report.json").read_text())
        if edit == "theta":
            doc["results"]["rows"][0]["theta"]["D_e"] *= 2.0
        else:
            doc["results"]["truth"]["k_n"] *= 2.0
        bad = tmp_path / "edited.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="body_sha256"):
            BenchmarkReport.load(bad)
        del doc["meta"]["body_sha256"]   # no checksum: only rows are checked
        bad.write_text(json.dumps(doc))
        assert BenchmarkReport.load(bad).results == doc["results"]

    def test_missing_sections_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"meta": {}}))
        with pytest.raises(DataError, match="results"):
            BenchmarkReport.load(path)
        with pytest.raises(DataError, match="rows"):
            BenchmarkReport(results={}).validate()

    @pytest.mark.parametrize("edit", [
        "results list", "rows string", "rows of numbers", "rows lack failed",
        "aggregates list", "aggregate string", "config methods differ"])
    def test_malformed_structure_rejected_on_load(self, tiny_run, tmp_path,
                                                  edit):
        _, out_dir = tiny_run
        doc = json.loads((out_dir / "report.json").read_text())
        del doc["meta"]["body_sha256"]
        results = doc["results"]
        if edit == "results list":
            doc["results"] = [results]
        elif edit == "rows string":
            results["rows"] = "rows"
        elif edit == "rows of numbers":
            results["rows"] = [1]
        elif edit == "rows lack failed":
            for row in results["rows"]:
                del row["failed"]
        elif edit == "aggregate string":
            results["aggregates"]["bo"]["train_mean"] = "abc"
        elif edit == "config methods differ":
            results["config"]["methods"] = ["bo", "gd"]
        else:
            results["aggregates"] = []
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="malformed.json"):
            BenchmarkReport.load(bad)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            BenchmarkReport.load(tmp_path / "nowhere.json")


class TestExportReport:
    def test_summary_and_repetition_tables(self, tiny_run, tmp_path):
        report, _ = tiny_run
        written = export_report(report, tmp_path / "out", with_traces=False)
        names = {p.name for p in written}
        assert names == {"report.json", "summary.csv", "repetitions.csv"}

        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0] == ("method,time_mean_s,time_var_s2,train_mean_V2,"
                              "train_var_V4,test_mean_V2,test_var_V4")
        assert [line.split(",")[0] for line in summary[1:]] == ["bo", "gd", "pso"]

        reps = (tmp_path / "out" / "repetitions.csv").read_text().splitlines()
        assert reps[0] == "method,rep,failed,train_loss_V2,test_loss_V2,evaluations"
        assert len(reps) == 1 + 6

    def test_voltage_traces_exported(self, tiny_run, tmp_path):
        report, _ = tiny_run
        written = export_report(report, tmp_path / "tr", formats=("json",),
                                with_traces=True)
        trace_files = sorted(p.name for p in written if p.parent.name == "traces")
        assert trace_files == sorted(
            f"voltage_{m}_rep{r}_test0.csv"
            for m in ("bo", "gd", "pso") for r in (0, 1))
        sample = (tmp_path / "tr" / "traces" / trace_files[0]).read_text().splitlines()
        assert sample[0] == ("time_s,current_A,voltage_meas_V,"
                             "voltage_model_V,error_V")
        assert len(sample) == 1 + 301

    def test_no_voltage_trace_under_the_step_floor(self, tiny_run, tmp_path):
        """A fitted D_e so small that the test step is under the floor of
        ``check_step_floor`` gets no trace; the other rows keep theirs."""
        report, _ = tiny_run
        doc = json.loads(json.dumps(report.results))
        doc["rows"][0]["theta"]["D_e"] = 1e-16
        written = export_report(BenchmarkReport(results=doc), tmp_path / "tr",
                                formats=("json",), with_traces=True)
        trace_files = [p.name for p in written if p.parent.name == "traces"]
        row = doc["rows"][0]
        assert f"voltage_{row['method']}_rep{row['rep']}_test0.csv" not in trace_files
        assert len(trace_files) == len(doc["rows"]) - 1
