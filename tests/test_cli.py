"""End-to-end command-line checks via click's test runner."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from cellident.cli import main


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

    def test_coarse_step_is_runtime_failure(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--kind", "rcid-like", "--duration", "600",
            "--dt", "5", "--out", str(tmp_path / "v.csv")])
        assert result.exit_code == 4


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
        import cellident.cli as cli

        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"box": {
            "names": ["k_p", "k_n", "D_e"],
            "lower": [2.0e-11, 2.8e-11, 1.6e-10],
            "upper": [4.5e-11, 5.6e-11, 1.0e-8]}}))
        evaluations = []
        monkeypatch.setattr(cli.VoltageFitObjective, "__call__",
                            lambda self, theta: evaluations.append(theta))
        out = tmp_path / "fit"
        result = runner.invoke(main, [
            "identify", "--config", str(config),
            "--data", str(dataset_dir / "manifest.json"),
            "--method", "bo", "--budget", "8", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert "upper D_e = 1e-08" in result.output
        assert "dt = 1 s" in result.output
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
        assert "upper D_e" in result.output
        assert not (out / "report.json").exists()


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
