"""End-to-end command-line checks via click's test runner."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from cellident import bench
from cellident.cli import main
from cellident.params import reference_cell_path


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "budget": 12,
        "repetitions": 1,
        "train_profiles": [
            {"kind": "rcid-like", "duration_s": 600.0, "dt_s": 1.0}],
        "test_profiles": [
            {"kind": "drive-cycle-like", "duration_s": 300.0, "dt_s": 1.0}],
    }))
    return path


@pytest.fixture(scope="module")
def dataset_dir(config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    result = CliRunner().invoke(main, [
        "gen-data", "--config", str(config_path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


class TestSimulate:
    def test_generated_profile(self, runner, tmp_path):
        out = tmp_path / "volts.csv"
        result = runner.invoke(main, [
            "simulate", "--kind", "rcid-like", "--duration", "600",
            "--dt", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "wrote 601 samples" in result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "time_s,current_A,voltage_V"
        assert len(lines) == 602

    def test_profile_file_input(self, runner, tmp_path):
        src = tmp_path / "current.csv"
        rows = "\n".join(f"{t},1.0" for t in range(30))
        src.write_text("time_s,current_A\n" + rows + "\n")
        out = tmp_path / "volts.csv"
        result = runner.invoke(main, [
            "simulate", "--profile", str(src), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.exists()

    def test_profile_and_kind_conflict(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--profile", "x.csv", "--kind", "rcid-like",
            "--out", str(tmp_path / "v.csv")])
        assert result.exit_code == 2

    def test_neither_profile_nor_kind(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--out", str(tmp_path / "v.csv")])
        assert result.exit_code == 2

    def test_missing_profile_file(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--profile", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "v.csv")])
        assert result.exit_code == 3

    def test_wrong_columns(self, runner, tmp_path):
        src = tmp_path / "odd.csv"
        src.write_text("seconds,amps\n0,1\n1,1\n")
        result = runner.invoke(main, [
            "simulate", "--profile", str(src), "--out", str(tmp_path / "v.csv")])
        assert result.exit_code == 3

    def test_coarse_step_is_config_error(self, runner, tmp_path):
        out = tmp_path / "v.csv"
        result = runner.invoke(main, [
            "simulate", "--kind", "rcid-like", "--duration", "600",
            "--dt", "5", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config error: dt = 5 s exceeds one tenth" in result.output
        assert not out.exists()


    @pytest.mark.parametrize("grid", [
        ["--dt", "0"], ["--dt", "-1"], ["--dt", "nan"], ["--duration", "-5"]])
    def test_invalid_grid_is_config_error(self, runner, tmp_path, grid):
        out = tmp_path / "v.csv"
        result = runner.invoke(main, [
            "simulate", "--kind", "rcid-like", *grid, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config error: profile" in result.output
        assert not out.exists()

    def test_profile_leaving_the_soc_window_is_config_error(self, runner,
                                                            tmp_path):
        out = tmp_path / "v.csv"
        result = runner.invoke(main, [
            "simulate", "--kind", "rcid-like", "--duration", "36000",
            "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config error: profile kind 'rcid-like'" in result.output
        assert not out.exists()


class TestGenData:
    def test_manifest_written(self, dataset_dir):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert len(manifest["train"]) == 1
        assert len(manifest["test"]) == 1

    def test_unknown_config_key(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"budgett": 5}))
        result = runner.invoke(main, [
            "gen-data", "--config", str(bad), "--out", str(tmp_path / "d")])
        assert result.exit_code == 2


class TestIdentify:
    def test_gd_small_budget(self, runner, config_path, dataset_dir, tmp_path):
        out = tmp_path / "fit"
        result = runner.invoke(main, [
            "identify", "--config", str(config_path),
            "--data", str(dataset_dir / "manifest.json"),
            "--method", "gd", "--budget", "6", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "gd: train loss" in result.output
        assert (out / "trace.csv").exists()
        best = json.loads((out / "best_theta.json").read_text())
        assert best["method"] == "gd"
        assert best["evaluations"] == 6
        assert set(best["theta"]) == {"k_p", "k_n", "D_e"}
        assert best["train_loss_V2"] >= 0.0
        assert best["test_loss_V2"] >= 0.0

    def test_bo_budget_clamps_initial_design(self, runner, config_path,
                                              dataset_dir, tmp_path):
        """--budget below the default initial-design size still runs."""
        out = tmp_path / "fit_bo"
        result = runner.invoke(main, [
            "identify", "--config", str(config_path),
            "--data", str(dataset_dir / "manifest.json"),
            "--method", "bo", "--budget", "8", "--out", str(out)])
        assert result.exit_code == 0, result.output
        best = json.loads((out / "best_theta.json").read_text())
        assert best["evaluations"] == 8

    def test_missing_manifest(self, runner, tmp_path):
        result = runner.invoke(main, [
            "identify", "--data", str(tmp_path / "nowhere.json"),
            "--budget", "6", "--out", str(tmp_path / "fit")])
        assert result.exit_code == 3

    def test_box_too_wide_for_the_data_step(self, runner, dataset_dir,
                                            tmp_path, monkeypatch):
        """Upper D_e 1e-8 cannot be simulated at the dataset's dt of 1 s."""
        import cellident.identify as identify

        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"box": {
            "names": ["k_p", "k_n", "D_e"],
            "lower": [2.0e-11, 2.8e-11, 1.6e-10],
            "upper": [4.5e-11, 5.6e-11, 1.0e-8]}}))
        evaluations = []
        monkeypatch.setattr(identify.VoltageFitObjective, "__call__",
                            lambda self, theta: evaluations.append(theta))
        out = tmp_path / "fit"
        result = runner.invoke(main, [
            "identify", "--config", str(config),
            "--data", str(dataset_dir / "manifest.json"),
            "--method", "bo", "--budget", "8", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert ("upper D_e = 1e-08 m^2/s cannot be simulated on train_0.csv "
                "with dt = 1 s") in result.output
        assert evaluations == []
        assert not out.exists()

    def test_trace_matches_budget(self, runner, config_path, dataset_dir,
                                  tmp_path):
        out = tmp_path / "fit_rs"
        result = runner.invoke(main, [
            "identify", "--config", str(config_path),
            "--data", str(dataset_dir / "manifest.json"),
            "--method", "random", "--budget", "7", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "eval_index,k_p,k_n,D_e,loss_V2,cum_best_V2"
        assert len(lines) == 1 + 7


@pytest.fixture(scope="module")
def bench_dir(config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("benchcli")
    result = CliRunner().invoke(main, [
        "bench", "--config", str(config_path), "--method", "bo",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "bo: test loss mean" in result.output
    assert "report written to" in result.output
    return out


class TestBenchAndReport:
    def test_bench_artifacts(self, bench_dir):
        assert (bench_dir / "report.json").exists()
        assert (bench_dir / "summary.csv").exists()
        summary = (bench_dir / "summary.csv").read_text().splitlines()
        assert len(summary) == 2  # header + the single bo row
        assert summary[1].startswith("bo,")

    def test_report_reexport(self, runner, bench_dir, tmp_path):
        out = tmp_path / "re"
        result = runner.invoke(main, [
            "report", "--report", str(bench_dir / "report.json"),
            "--out", str(out), "--format", "csv", "--no-traces"])
        assert result.exit_code == 0, result.output
        assert "wrote 2 files" in result.output
        assert (out / "summary.csv").exists()
        assert (out / "repetitions.csv").exists()

    def test_report_traces_match_bench(self, runner, bench_dir, tmp_path):
        out = tmp_path / "re"
        result = runner.invoke(main, [
            "report", "--report", str(bench_dir / "report.json"),
            "--out", str(out), "--traces"])
        assert result.exit_code == 0, result.output
        names = sorted(p.name for p in (out / "traces").iterdir())
        assert names == ["voltage_bo_rep0_test0.csv"]
        for name in names:
            assert ((out / "traces" / name).read_bytes()
                    == (bench_dir / "traces" / name).read_bytes())

    def test_report_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, [
            "report", "--report", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "re")])
        assert result.exit_code == 3

    def test_bench_unknown_config_key(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"SO": 4}))
        result = runner.invoke(main, [
            "bench", "--config", str(bad), "--out", str(tmp_path / "b")])
        assert result.exit_code == 2

    def test_bench_box_too_wide_for_the_step(self, runner, tmp_path):
        """Upper D_e 1e-8 needs dt < 0.07 s; the default 1-s profiles exit 2."""
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"box": {
            "names": ["k_p", "k_n", "D_e"],
            "lower": [2.0e-11, 2.8e-11, 1.6e-10],
            "upper": [4.5e-11, 5.6e-11, 1.0e-8]}}))
        out = tmp_path / "b"
        result = runner.invoke(main, [
            "bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert ("upper D_e = 1e-08 m^2/s cannot be simulated on "
                "train_profiles[0] with dt = 1 s") in result.output
        assert not out.exists()

    def test_bench_profile_leaving_the_soc_window(self, runner, tmp_path):
        config = tmp_path / "long.json"
        config.write_text(json.dumps({"train_profiles": [
            {"kind": "rcid-like", "duration_s": 36000.0, "dt_s": 1.0}]}))
        out = tmp_path / "b"
        result = runner.invoke(main, [
            "bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert ("config error: train_profiles[0]: profile kind 'rcid-like'"
                in result.output)
        assert not out.exists()

    def test_bench_names_which_profile_leaves_the_soc_window(self, runner,
                                                             tmp_path):
        """Of two profiles of one kind, the message names the one at fault."""
        config = tmp_path / "two-rcid.json"
        config.write_text(json.dumps({"train_profiles": [
            {"kind": "rcid-like", "duration_s": 600.0, "dt_s": 1.0},
            {"kind": "rcid-like", "duration_s": 36000.0, "dt_s": 1.0}]}))
        out = tmp_path / "b"
        result = runner.invoke(main, [
            "bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert ("config error: train_profiles[1]: profile kind 'rcid-like'"
                in result.output)
        assert "train_profiles[0]" not in result.output
        assert not out.exists()


_BAD_BOXES = {
    "permuted names": {"names": ["k_n", "k_p", "D_e"],
                       "lower": [2.0e-11, 2.8e-11, 1.6e-10],
                       "upper": [4.5e-11, 5.6e-11, 4.0e-10]},
    "negative lower k_p": {"names": ["k_p", "k_n", "D_e"],
                           "lower": [-1e-11, 2.8e-11, 1.6e-10],
                           "upper": [4.5e-11, 5.6e-11, 4.0e-10]},
}


class TestRejectedUpFront:
    """Configs and budgets that cannot run exit 2 and write nothing."""

    @pytest.mark.parametrize("case", sorted(_BAD_BOXES))
    @pytest.mark.parametrize("verb", ["bench", "identify"])
    def test_bad_box(self, runner, dataset_dir, tmp_path, verb, case):
        config = tmp_path / "box.json"
        config.write_text(json.dumps({"box": _BAD_BOXES[case]}))
        out = tmp_path / "out"
        data = (["--data", str(dataset_dir / "manifest.json")]
                if verb == "identify" else [])
        result = runner.invoke(main, [verb, "--config", str(config), *data,
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config error: box" in result.output
        assert not out.exists()

    def test_bench_budget_below_pso_swarm(self, runner, config_path,
                                          tmp_path):
        out = tmp_path / "b"
        result = runner.invoke(main, [
            "bench", "--config", str(config_path), "--budget", "4",
            "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "below the gd minimum of 5" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("method,code", [("pso", 2), ("gd", 2),
                                             ("bo", 0), ("random", 0)])
    def test_identify_budget_checked_for_its_method(
            self, runner, config_path, dataset_dir, tmp_path, method, code):
        out = tmp_path / "fit"
        result = runner.invoke(main, [
            "identify", "--config", str(config_path),
            "--data", str(dataset_dir / "manifest.json"),
            "--method", method, "--budget", "4", "--out", str(out)])
        assert result.exit_code == code, result.output
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("verb", ["simulate", "gen-data", "identify",
                                      "bench"])
    def test_profile_over_the_sample_cap(self, runner, dataset_dir, tmp_path,
                                         verb):
        """A profile of 1e15 samples exits 2 before anything is allocated
        (it used to raise MemoryError and exit 4)."""
        if verb == "simulate":
            args = ["--kind", "drive-cycle-like", "--duration", "1e15"]
        else:
            config = tmp_path / "huge.json"
            config.write_text(json.dumps({"train_profiles": [
                {"kind": "rcid-like", "duration_s": 1e15, "dt_s": 1.0}]}))
            args = ["--config", str(config)]
        if verb == "identify":
            args += ["--data", str(dataset_dir / "manifest.json")]
        out = tmp_path / "out"
        result = runner.invoke(main, [verb, *args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "above the cap of 10,000,000" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["simulate", "gen-data", "bench"])
    @pytest.mark.parametrize("extra_s,code", [(0.0, 0), (1.0, 2)])
    def test_profile_at_and_one_past_a_lowered_cap(
            self, runner, tmp_path, monkeypatch, verb, extra_s, code):
        """With the cap lowered to 601 samples, a 601-sample rcid-like
        profile and a 301-sample drive cycle (plus its 300-sample base tile)
        run; one sample more exits 2 and writes nothing."""
        monkeypatch.setattr(bench, "MAX_PROFILE_SAMPLES", 601)
        if verb == "simulate":
            args = ["--kind", "drive-cycle-like",
                    "--duration", str(300.0 + extra_s)]
        else:
            config = tmp_path / "cap.json"
            config.write_text(json.dumps({
                "budget": 12, "repetitions": 1,
                "train_profiles": [{"kind": "rcid-like",
                                    "duration_s": 600.0 + extra_s,
                                    "dt_s": 1.0}],
                "test_profiles": [{"kind": "drive-cycle-like",
                                   "duration_s": 300.0, "dt_s": 1.0}]}))
            args = ["--config", str(config)]
        out = tmp_path / "out"
        result = runner.invoke(main, [verb, *args, "--out", str(out)])
        assert result.exit_code == code, result.output
        assert out.exists() == (code == 0)
        if code:
            assert "needs 602 samples, above the cap of 601" in result.output

    def test_report_with_edited_row_exits_3(self, runner, bench_dir,
                                            tmp_path):
        doc = json.loads((bench_dir / "report.json").read_text())
        doc["results"]["rows"][0]["theta"]["k_p"] *= 1.01
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        result = runner.invoke(main, [
            "report", "--report", str(edited), "--out", str(tmp_path / "re")])
        assert result.exit_code == 3, result.output
        assert "body_sha256" in result.output


class TestMalformedInputFiles:
    """A report, manifest or parameter file of the wrong shape exits 3."""

    @pytest.mark.parametrize("rows", ["rows", [1], [{"method": "bo"}]])
    def test_report_rows(self, runner, bench_dir, tmp_path, rows):
        doc = json.loads((bench_dir / "report.json").read_text())
        doc["results"]["rows"] = rows
        del doc["meta"]["body_sha256"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [
            "report", "--report", str(path), "--out", str(tmp_path / "re")])
        assert result.exit_code == 3, result.output
        assert "data error: report" in result.output

    @pytest.mark.parametrize("field, edit", [
        ("rows[0].train_loss_V2",
         lambda doc: doc["results"]["rows"][0].update(train_loss_V2="abc")),
        ("aggregates.bo", lambda doc: doc["results"]["aggregates"].update(bo=[1])),
        ("config", lambda doc: doc["results"].update(config=5)),
        ("rows[0].theta", lambda doc: doc["results"]["rows"][0].update(theta=7)),
        ("results and meta", lambda doc: doc.update(meta=5)),
        ("meta.time_stats",
         lambda doc: doc["meta"]["time_stats"]["bo"].update(mean="x")),
        ("rows[0].theta",
         lambda doc: doc["results"]["rows"][0]["theta"].update(k_p=float("inf"))),
        ("rows[0].train_loss_V2",
         lambda doc: doc["results"]["rows"][0].update(train_loss_V2=float("nan"))),
    ], ids=["train_loss_string", "aggregate_list", "config_number",
            "theta_number", "meta_number", "time_stats_string",
            "theta_k_p_infinity", "train_loss_nan"])
    def test_report_value_types(self, runner, bench_dir, tmp_path, field,
                                edit):
        """A well-shaped report holding a value of the wrong type exits 3
        with a message naming the report and the field."""
        doc = json.loads((bench_dir / "report.json").read_text())
        del doc["meta"]["body_sha256"]
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [
            "report", "--report", str(path), "--out", str(tmp_path / "re")])
        assert result.exit_code == 3, result.output
        assert f"data error: report {path}: {field} must be" in result.output

    @pytest.mark.parametrize("train", [1, [1], "train_0.csv"])
    def test_manifest_entries(self, runner, config_path, dataset_dir, tmp_path,
                              train):
        doc = json.loads((dataset_dir / "manifest.json").read_text())
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**doc, "train": train}))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "identify", "--config", str(config_path), "--data", str(path),
            "--method", "gd", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert "must be a list of file names" in result.output
        assert not out.exists()

    @staticmethod
    def _edited_dataset(dataset_dir, tmp_path, edit, names=("train_0.csv",)):
        """A copy of the dataset whose files ``names`` have their lines
        passed through ``edit``."""
        copy = tmp_path / "data"
        copy.mkdir()
        for path in dataset_dir.iterdir():
            (copy / path.name).write_bytes(path.read_bytes())
        for name in names:
            edited = copy / name
            edited.write_text(
                "\n".join(edit(edited.read_text().splitlines())) + "\n")
        return copy

    @pytest.mark.parametrize("cell", ["", "nan"], ids=["blank", "nan"])
    def test_non_finite_voltage(self, runner, config_path, dataset_dir,
                                tmp_path, cell):
        """A blank voltage cell is a data error, not a fit whose every
        evaluation is penalized."""
        def blank(lines):
            time_s, current, _ = lines[3].split(",")
            lines[3] = f"{time_s},{current},{cell}"
            return lines

        data = self._edited_dataset(dataset_dir, tmp_path, blank)
        result = runner.invoke(main, [
            "identify", "--config", str(config_path),
            "--data", str(data / "manifest.json"), "--method", "random",
            "--budget", "5", "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert f"{data / 'train_0.csv'} has a blank or non-finite voltage_V " \
               "in data row 3" in result.output

    @pytest.mark.parametrize("column", [0, 1], ids=["time_s", "current_A"])
    def test_blank_time_or_current(self, runner, config_path, dataset_dir,
                                   tmp_path, column):
        """A blank time or current cell exits 3 naming the file and row."""
        def blank(lines):
            cells = lines[3].split(",")
            cells[column] = ""
            lines[3] = ",".join(cells)
            return lines

        data = self._edited_dataset(dataset_dir, tmp_path, blank)
        result = runner.invoke(main, [
            "identify", "--config", str(config_path),
            "--data", str(data / "manifest.json"), "--method", "random",
            "--budget", "5", "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        name = ("time_s", "current_A")[column]
        assert f"{data / 'train_0.csv'} has a blank or non-finite {name} " \
               "in data row 3" in result.output
        assert not (tmp_path / "out").exists()

    def test_profile_the_model_cannot_simulate(self, runner, config_path,
                                               dataset_dir, tmp_path,
                                               monkeypatch):
        """Twenty times the current of a train or test profile, or of both,
        drives a surface concentration out of range at every theta: one
        data error, with one reason, naming each such file and its sample
        before any evaluation, not a fit or a test loss at the divergence
        penalty."""
        import cellident.identify as identify

        def scale_current(lines):
            for i, line in enumerate(lines[1:], start=1):
                time_s, current, volts = line.split(",")
                lines[i] = f"{time_s},{20.0 * float(current)!r},{volts}"
            return lines

        evaluations = []
        monkeypatch.setattr(identify.VoltageFitObjective, "__call__",
                            lambda self, theta: evaluations.append(theta))
        for names in (("train_0.csv",), ("test_0.csv",),
                      ("train_0.csv", "test_0.csv")):
            base = tmp_path / "-".join(names)
            base.mkdir()
            data = self._edited_dataset(dataset_dir, base, scale_current,
                                        names)
            out = base / "out"
            result = runner.invoke(main, [
                "identify", "--config", str(config_path),
                "--data", str(data / "manifest.json"), "--method", "random",
                "--budget", "5", "--out", str(out)])
            assert result.exit_code == 3, result.output
            assert result.output.count("data error") == 1
            assert result.output.count("no theta can fit") == 1
            for name in ("train_0.csv", "test_0.csv"):
                assert (f"{name}: electrode" in result.output) == (
                    name in names)
            assert "at sample " in result.output
            assert evaluations == []
            assert not out.exists()

    @pytest.mark.parametrize("coarse", ["train_0.csv", "test_0.csv"])
    def test_coarse_step_outranks_a_diverging_file(
            self, runner, config_path, dataset_dir, tmp_path, monkeypatch,
            coarse):
        """train_0.csv with twenty times its current diverges at every
        theta, and a file sampled every 10 s is too coarse for the box:
        together a config error (exit 2) naming the coarse file, before
        any evaluation."""
        import cellident.identify as identify

        evaluations = []
        monkeypatch.setattr(identify.VoltageFitObjective, "__call__",
                            lambda self, theta: evaluations.append(theta))
        data = self._edited_dataset(dataset_dir, tmp_path, None, ())
        for name, column, factor in (("train_0.csv", 1, 20.0),
                                     (coarse, 0, 10.0)):
            table = np.loadtxt(data / name, delimiter=",", skiprows=1)
            table[:, column] *= factor
            np.savetxt(data / name, table, delimiter=",", comments="",
                       header="time_s,current_A,voltage_V", fmt="%.12g")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "identify", "--config", str(config_path),
            "--data", str(data / "manifest.json"), "--method", "random",
            "--budget", "5", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert (f"config error: search box upper D_e = 4e-10 m^2/s cannot be "
                f"simulated on {coarse} with dt = 10 s") in result.output
        assert "data error" not in result.output
        assert evaluations == []
        assert not out.exists()

    def test_decreasing_time(self, runner, config_path, dataset_dir,
                             tmp_path):
        """Negating time_s gives an even grid with a negative step; both
        the dataset and the excitation loader reject it."""
        def negate(lines):
            for i, line in enumerate(lines[1:], start=1):
                time_s, rest = line.split(",", 1)
                lines[i] = f"{-float(time_s):g},{rest}"
            return lines

        data = self._edited_dataset(dataset_dir, tmp_path, negate)
        for args in (["identify", "--config", str(config_path),
                      "--data", str(data / "manifest.json"), "--method", "gd",
                      "--out", str(tmp_path / "out")],
                     ["simulate", "--profile", str(data / "train_0.csv"),
                      "--out", str(tmp_path / "v.csv")]):
            result = runner.invoke(main, args)
            assert result.exit_code == 3, result.output
            assert "needs an increasing time_s column, got a first step " \
                   "of -1 s" in result.output

    @pytest.mark.parametrize("change", [
        {"ocv_cathode": 5}, {"R_c": True}, {"R_c": "0.01"}])
    def test_parameter_file_values(self, runner, tmp_path, change):
        packaged = json.loads(reference_cell_path().read_text())
        cell = reference_cell_path().parent
        for key in ("ocv_cathode", "ocv_anode"):
            packaged[key] = str(cell / packaged[key])
        (tmp_path / "cell.json").write_text(json.dumps({**packaged, **change}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"parameter_file": str(tmp_path / "cell.json")}))
        result = runner.invoke(main, [
            "simulate", "--config", str(config), "--kind", "rcid-like",
            "--duration", "200", "--out", str(tmp_path / "v.csv")])
        assert result.exit_code == 3, result.output
        assert "data error" in result.output

    def test_blank_ocv_cell(self, runner, tmp_path):
        """A blank x cell in a copy of the packaged anode table, behind a
        parameter file, is a data error naming that table."""
        for path in reference_cell_path().parent.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        table = tmp_path / "ocv_anode.csv"
        lines = table.read_text().splitlines()
        lines[3] = "," + lines[3].split(",")[1]
        table.write_text("\n".join(lines) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"parameter_file": str(tmp_path / reference_cell_path().name)}))
        result = runner.invoke(main, [
            "simulate", "--config", str(config), "--kind", "rcid-like",
            "--out", str(tmp_path / "v.csv")])
        assert result.exit_code == 3, result.output
        assert (f"data error: OCV table {table.resolve()}: OCV stoichiometry "
                "contains non-finite values") in result.output
        assert not (tmp_path / "v.csv").exists()


_DEFAULT_BOX = {"names": ["k_p", "k_n", "D_e"],
                "lower": [2.0e-11, 2.8e-11, 1.6e-10],
                "upper": [4.5e-11, 5.6e-11, 4.0e-10]}
_BAD_VALUES = {
    "string budget": {"budget": "abc"},
    "fractional budget": {"budget": 12.9},
    "fractional s0": {"s0": 5.5},
    "fractional repetitions": {"repetitions": 2.5},
    "bool budget": {"budget": True},
    "string box bound": {"box": {**_DEFAULT_BOX,
                                 "lower": ["x", 2.8e-11, 1.6e-10]}},
    "string noise": {"noise_sigma_v": "nan"},
    "NaN noise": {"noise_sigma_v": float("nan")},
    "negative seed": {"master_seed": -1},
    "string duration": {"train_profiles": [
        {"kind": "rcid-like", "duration_s": "600", "dt_s": 1.0}]},
}


class TestConfigValues:
    """Wrong JSON types and out-of-range values exit 2 and write nothing."""

    @pytest.mark.parametrize("case", sorted(_BAD_VALUES))
    @pytest.mark.parametrize("verb", ["bench", "identify"])
    def test_bad_value(self, runner, dataset_dir, tmp_path, verb, case):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_BAD_VALUES[case]))
        out = tmp_path / "out"
        data = (["--data", str(dataset_dir / "manifest.json")]
                if verb == "identify" else [])
        result = runner.invoke(main, [verb, "--config", str(config), *data,
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["bench", "identify", "gen-data"])
    def test_negative_seed_flag(self, runner, config_path, dataset_dir,
                                tmp_path, verb):
        out = tmp_path / "out"
        data = (["--data", str(dataset_dir / "manifest.json")]
                if verb == "identify" else [])
        result = runner.invoke(main, [verb, "--config", str(config_path),
                                      *data, "--seed", "-1", "--out",
                                      str(out)])
        assert result.exit_code == 2, result.output
        assert "master_seed must be >= 0" in result.output
        assert not out.exists()

    def test_negative_simulate_seed(self, runner, tmp_path):
        out = tmp_path / "v.csv"
        result = runner.invoke(main, ["simulate", "--kind", "drive-cycle-like",
                                      "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "--seed" in result.output
        assert not out.exists()

    def test_bench_saves_the_report_once(self, runner, config_path, tmp_path,
                                         monkeypatch):
        from cellident.bench import BenchmarkReport

        saved = []
        real_save = BenchmarkReport.save

        def counting_save(report, path):
            saved.append(path)
            real_save(report, path)

        monkeypatch.setattr(BenchmarkReport, "save", counting_save)
        out = tmp_path / "b"
        result = runner.invoke(main, [
            "bench", "--config", str(config_path), "--method", "bo",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert saved == [out / "report.json"]
        written = sorted(p.relative_to(out).as_posix()
                         for p in out.rglob("*") if p.is_file())
        assert written == [
            "dataset/manifest.json", "dataset/test_0.csv",
            "dataset/train_0.csv", "repetitions.csv", "report.json",
            "summary.csv", "trace_bo_rep0.csv",
            "traces/voltage_bo_rep0_test0.csv"]


    def test_bench_derives_cell_and_data_once(self, runner, config_path,
                                              tmp_path, monkeypatch):
        from cellident import bench

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("resolve_cell", "build_dataset"):
            monkeypatch.setattr(bench, name, counted(name, getattr(bench, name)))
        from_dict = bench.ExperimentConfig.from_dict.__func__
        monkeypatch.setattr(bench.ExperimentConfig, "from_dict", classmethod(
            counted("from_dict", from_dict)))
        result = runner.invoke(main, [
            "bench", "--config", str(config_path), "--method", "bo",
            "--out", str(tmp_path / "b")])
        assert result.exit_code == 0, result.output
        assert sorted(calls) == ["build_dataset", "from_dict", "resolve_cell"]


_CONFIG_SHAPES = {
    "numeric parameter_file": ({"parameter_file": 5},
                               "parameter_file must be a string or null"),
    "string methods": ({"methods": "bo"}, "got 'bo'"),
    "repeated methods": ({"methods": ["gd", "gd"]},
                         "methods must be distinct"),
}


class TestConfigShapes:
    """parameter_file and methods of the wrong JSON shape exit 2 from every
    verb that reads a config, before anything is written."""

    @pytest.mark.parametrize("case", sorted(_CONFIG_SHAPES))
    @pytest.mark.parametrize("verb", ["bench", "identify", "gen-data",
                                      "simulate"])
    def test_rejected(self, runner, dataset_dir, tmp_path, verb, case):
        raw, message = _CONFIG_SHAPES[case]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        extra = {"identify": ["--data", str(dataset_dir / "manifest.json")],
                 "simulate": ["--kind", "rcid-like", "--duration", "600"]}
        result = runner.invoke(main, [verb, "--config", str(config),
                                      *extra.get(verb, []), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()


_UNSIMULATABLE_CELLS = {
    "fast electrolyte": ({"D_e": 1e-8}, "dt = 1 s exceeds"),
    "slow anode diffusion": ({"D_n": 1e-15}, "electrode n"),
}


class TestUnsimulatableCell:
    """A config whose own cell cannot simulate its profiles is a config
    error that names the profile, before anything is written."""

    @pytest.mark.parametrize("case", sorted(_UNSIMULATABLE_CELLS))
    @pytest.mark.parametrize("verb", ["bench", "gen-data"])
    def test_exit_2_naming_the_profile(self, runner, tmp_path, verb, case):
        change, message = _UNSIMULATABLE_CELLS[case]
        source = reference_cell_path()
        raw = json.loads(source.read_text())
        for key in ("ocv_cathode", "ocv_anode"):
            raw[key] = str(source.parent / raw[key])
        cell = tmp_path / "cell.json"
        cell.write_text(json.dumps({**raw, **change}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"parameter_file": str(cell)}))
        out = tmp_path / "out"
        result = runner.invoke(main, [verb, "--config", str(config),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert ("config error: the cell cannot simulate train_profiles[0] "
                "at dt = 1 s: " + message) in result.output
        assert not out.exists()


_REPROS = {   # case: (exit code, message, argv before --out)
    "simulate --dt too coarse": (
        2, "config error: dt = 5 s exceeds one tenth", lambda inputs: [
            "simulate", "--kind", "rcid-like", "--duration", "600",
            "--dt", "5"]),
    "simulate --profile the cell cannot simulate": (
        3, "harsh.csv: electrode p surface concentration", lambda inputs: [
            "simulate", "--profile", str(inputs.harsh)]),
    "simulate --kind on a slow cell": (
        2, "config error: the cell cannot simulate --kind rcid-like at "
        "dt = 1 s: electrode n", lambda inputs: [
            "simulate", "--config", str(inputs.slow), "--kind", "rcid-like"]),
    "bench penalizing every evaluation": (0, "", lambda inputs: [
        "bench", "--config", str(inputs.penalized)]),
    "report on that bench": (0, "", lambda inputs: [
        "report", "--report", str(inputs.penalized_report)]),
}

_REPRO_FILES = {   # what a successful case writes under --out
    "bench penalizing every evaluation": [
        "dataset", "dataset/manifest.json", "dataset/test_0.csv",
        "dataset/train_0.csv", "report.json", "repetitions.csv",
        "summary.csv", "trace_random_rep0.csv", "traces"],
    "report on that bench": [
        "report.json", "repetitions.csv", "summary.csv", "traces"],
}


class TestUnsimulatableInput:
    """No verb exits 4 on input the model cannot simulate.  A too-coarse
    step or a profile from flags exits 2 and one from a data file exits 3,
    as ``gen-data`` and ``identify`` do on the same input, before anything
    is written.  A run whose best theta every evaluation penalized (a
    denormal k_n box: i0_n underflows) exits 0 and writes every file except
    that row's voltage traces, without a floating-point warning."""

    @pytest.fixture(scope="class")
    def inputs(self, dataset_dir, tmp_path_factory):
        root = tmp_path_factory.mktemp("repro")
        harsh = root / "harsh.csv"   # the training data with current x 20
        table = np.loadtxt(dataset_dir / "train_0.csv", delimiter=",",
                           skiprows=1)
        table[:, 1] *= 20.0
        np.savetxt(harsh, table, delimiter=",", comments="",
                   header="time_s,current_A,voltage_V", fmt="%.12g")
        source = reference_cell_path()
        raw = json.loads(source.read_text())
        for key in ("ocv_cathode", "ocv_anode"):
            raw[key] = str(source.parent / raw[key])
        (root / "cell.json").write_text(json.dumps({**raw, "D_n": 1e-15}))
        slow = root / "slow.json"
        slow.write_text(json.dumps({"parameter_file": str(root / "cell.json")}))
        penalized = root / "penalized.json"
        penalized.write_text(json.dumps({
            "box": {"names": ["k_p", "k_n", "D_e"],
                    "lower": [2e-11, 5e-324, 1.6e-10],
                    "upper": [4.5e-11, 1e-323, 4e-10]},
            "methods": ["random"], "budget": 4, "s0": 2, "repetitions": 1}))
        CliRunner().invoke(main, ["bench", "--config", str(penalized),
                                  "--out", str(root / "bench")])
        return SimpleNamespace(harsh=harsh, slow=slow, penalized=penalized,
                               penalized_report=root / "bench" / "report.json")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(_REPROS))
    def test_exit_code_and_files(self, runner, inputs, tmp_path, case):
        code, message, argv = _REPROS[case]
        out = tmp_path / "out"
        result = runner.invoke(main, [*argv(inputs), "--out", str(out)])
        assert result.exit_code == code, result.output
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*"))
        assert written == sorted(_REPRO_FILES.get(case, []))
        assert message in result.output
        assert ("error" in result.output) == (code != 0)


_CELL_VERBS = ["gen-data", "simulate", "identify", "bench"]


def _run_on_edited_cell(runner, dataset_dir, tmp_path, verb, **changes):
    """Run ``verb`` on a copy of the packaged parameter file with
    ``changes`` applied; returns (the copy's path, --out path, result)."""
    source = reference_cell_path()
    raw = json.loads(source.read_text())
    for key in ("ocv_cathode", "ocv_anode"):
        raw[key] = str(source.parent / raw[key])
    cell = tmp_path / "cell.json"
    cell.write_text(json.dumps({**raw, **changes}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"parameter_file": str(cell)}))
    out = tmp_path / "out"
    extra = {"identify": ["--data", str(dataset_dir / "manifest.json")],
             "simulate": ["--kind", "rcid-like"]}
    result = runner.invoke(main, [verb, "--config", str(config),
                                  *extra.get(verb, []), "--out", str(out)])
    return cell, out, result


class TestImplausibleKinetics:
    """A parameter file whose Arrhenius factor underflows to zero (cold) or
    overflows (hot) is a data error naming the file, from every verb that
    loads a cell, before anything is written."""

    @pytest.mark.parametrize("T, got", [(250.0, "0.0"), (350.0, "inf")],
                             ids=["cold", "hot"])
    @pytest.mark.parametrize("verb", _CELL_VERBS)
    def test_exit_3_naming_the_file(self, runner, dataset_dir, tmp_path,
                                    verb, T, got):
        cell, out, result = _run_on_edited_cell(
            runner, dataset_dir, tmp_path, verb, T=T, E_io_p=1e8)
        assert result.exit_code == 3, result.output
        assert (f"data error: parameter file {cell}: invalid cell parameters: "
                f"exp((1/T_ref - 1/T) E_io_p/R_gas) F must be finite and "
                f"non-zero, got {got}") in result.output
        assert not out.exists()


class TestUnrepresentableFluxFactor:
    """A null J_p or J_n is 1/(a_s L A); a parameter file whose a_s L A
    underflows to zero, overflows, or is so small that its inverse overflows
    is a data error naming the file and the field, from every verb that
    loads a cell, before anything is written."""

    @pytest.mark.parametrize("changes, field, got", [
        ({"J_p": None, "R_p": 1e300, "eps_am_p": 1e-300}, "J_p", "0.0"),
        ({"J_p": None, "R_p": 1e300, "eps_am_p": 1e-10}, "J_p", "1.35e-315"),
        ({"J_n": None, "R_n": 1e-300, "L_n": 1e10}, "J_n", "inf")],
        ids=["underflow", "denormal", "overflow"])
    @pytest.mark.parametrize("verb", _CELL_VERBS)
    def test_exit_3_naming_file_and_field(self, runner, dataset_dir, tmp_path,
                                          verb, changes, field, got):
        cell, out, result = _run_on_edited_cell(
            runner, dataset_dir, tmp_path, verb, **changes)
        assert result.exit_code == 3, result.output
        assert (f"data error: parameter file {cell}: invalid cell parameters: "
                f"{field} = 1/(a_s L A) must be finite and non-zero, "
                f"got 1/{got}") in result.output
        assert not out.exists()


class TestNonFiniteCellParameters:
    """NaN or +-Infinity in a parameter file is a data error naming the
    file and the field, from every verb that loads a cell, before anything
    is written: the same number rule a config has."""

    @pytest.mark.parametrize("field, value, got", [
        ("R_c", float("nan"), "nan"), ("kappa", float("inf"), "inf"),
        ("gamma_p", -float("inf"), "-inf")], ids=["R_c-nan", "kappa-inf",
                                                  "gamma_p-minus-inf"])
    @pytest.mark.parametrize("verb", _CELL_VERBS)
    def test_exit_3_naming_file_and_field(self, runner, dataset_dir, tmp_path,
                                          verb, field, value, got):
        cell, out, result = _run_on_edited_cell(
            runner, dataset_dir, tmp_path, verb, **{field: value})
        assert result.exit_code == 3, result.output
        assert (f"data error: parameter file {cell}: cell parameter {field} "
                f"must be a finite number, got {got}") in result.output
        assert not out.exists()


class TestDeterminismThroughCli:
    def test_same_seed_same_voltages(self, runner, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "simulate", "--kind", "drive-cycle-like", "--duration", "600",
                "--dt", "1", "--seed", "3", "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_different_seed_differs(self, runner, tmp_path):
        volts = []
        for seed in ("3", "4"):
            out = tmp_path / f"s{seed}.csv"
            result = runner.invoke(main, [
                "simulate", "--kind", "drive-cycle-like", "--duration", "600",
                "--dt", "1", "--seed", seed, "--out", str(out)])
            assert result.exit_code == 0, result.output
            volts.append(np.genfromtxt(out, delimiter=",", names=True)["voltage_V"])
        assert not np.array_equal(volts[0], volts[1])
