"""Command-line interface.

Verbs: simulate, gen-data, identify, bench, report.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime failure.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from pathlib import Path

import click

from .bench import (
    BenchmarkReport,
    ExperimentConfig,
    build_dataset,
    build_objectives,
    check_step_resolution,
    default_config,
    export_report,
    fit_and_score,
    generate_profile,
    resolve_cell,
    run_benchmark,
)
from .ecm import simulate
from .errors import ConfigError, DataError
from .identify import (
    load_current_csv,
    load_dataset,
    save_dataset,
    save_profile_csv,
)
from .params import write_json
from .runs import export_trace


def _exit_codes(fn):
    """Map the error hierarchy onto documented process exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except DataError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(3)
        except Exception as exc:  # noqa: BLE001
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(4)

    return wrapper


@click.group()
def main():
    """Identify lithium-ion cell parameters from current/voltage series."""


def _load_config(config_path) -> ExperimentConfig:
    return (default_config() if config_path is None
            else ExperimentConfig.from_json(config_path))


def _apply_overrides(config: ExperimentConfig, seed, budget, reps,
                     method) -> ExperimentConfig:
    changes = {}
    if seed is not None:
        changes["master_seed"] = seed
    if budget is not None:
        changes["budget"] = budget
        changes["s0"] = min(config.s0, budget)  # keep the BO design feasible
    if reps is not None:
        changes["repetitions"] = reps
    if method is not None and method != "all":
        changes["methods"] = (method,)
    return dataclasses.replace(config, **changes) if changes else config


@main.command("simulate")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Experiment config JSON (for the cell/parameter file).")
@click.option("--profile", "profile_path", type=click.Path(), default=None,
              help="Input CSV with columns time_s,current_A.")
@click.option("--kind", type=click.Choice(["rcid-like", "drive-cycle-like"]),
              default=None, help="Generate the excitation instead of reading it.")
@click.option("--duration", type=float, default=3600.0, show_default=True)
@click.option("--dt", type=float, default=1.0, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Output voltage CSV.")
@_exit_codes
def simulate_cmd(config_path, profile_path, kind, duration, dt, seed, out_path):
    """Simulate terminal voltage for a current profile."""
    config = _load_config(config_path)
    params, ocv_p, ocv_n, _ = resolve_cell(config)
    if (profile_path is None) == (kind is None):
        raise ConfigError("give exactly one of --profile or --kind")
    if profile_path is not None:
        profile = load_current_csv(profile_path)
    else:
        profile = generate_profile(kind, duration, dt, seed, params)
    volts = simulate(params, ocv_p, ocv_n, profile)
    save_profile_csv(out_path, profile, volts)
    click.echo(f"wrote {profile.n} samples to {out_path}")


@main.command("gen-data")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=None, help="Master seed override.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_exit_codes
def gen_data_cmd(config_path, seed, out_dir):
    """Generate a synthetic train/test dataset (CSV files + manifest)."""
    config = _apply_overrides(_load_config(config_path), seed, None, None, None)
    params, ocv_p, ocv_n, _ = resolve_cell(config)
    train, test, meta = build_dataset(config, params, ocv_p, ocv_n)
    manifest = save_dataset(out_dir, train, test, extra_meta=meta)
    click.echo(f"wrote dataset manifest {manifest}")


@main.command("identify")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--data", "manifest_path", type=click.Path(), required=True,
              help="Dataset manifest from gen-data.")
@click.option("--method", type=click.Choice(["bo", "gd", "pso", "random"]),
              default="bo", show_default=True)
@click.option("--budget", type=int, default=None, help="Evaluation budget.")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_exit_codes
def identify_cmd(config_path, manifest_path, method, budget, seed, out_dir):
    """Fit (k_p, k_n, D_e) to a dataset with one optimizer."""
    config = _apply_overrides(_load_config(config_path), seed, budget, None,
                              method)
    params, ocv_p, ocv_n, _ = resolve_cell(config)
    train, test, _ = load_dataset(manifest_path)
    box = config.box
    check_step_resolution(box, [p.dt for p in train.profiles + test.profiles],
                          params)
    best, result = fit_and_score(
        method, *build_objectives(params, ocv_p, ocv_n, box, train, test),
        config.budget, config.master_seed, config.s0)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_trace(result, box, out / "trace.csv")
    write_json(out / "best_theta.json", {"method": method, **best})
    click.echo(f"{method}: train loss {best['train_loss_V2']:.6g} V^2, "
               f"test loss {best['test_loss_V2']:.6g} V^2 "
               f"({best['evaluations']} evaluations)")


@main.command("bench")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--budget", type=int, default=None)
@click.option("--reps", type=int, default=None)
@click.option("--method", type=click.Choice(["bo", "gd", "pso", "all"]),
              default="all", show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_exit_codes
def bench_cmd(config_path, seed, budget, reps, method, out_dir):
    """Run the full benchmark protocol and write the report."""
    config = _apply_overrides(_load_config(config_path), seed, budget, reps,
                              method)
    report = run_benchmark(config, out_dir=out_dir)
    for method_name in config.methods:
        agg = report.results["aggregates"][method_name]
        click.echo(f"{method_name}: test loss mean {_show(agg['test_mean'])} "
                   f"V^2, var {_show(agg['test_var'])} V^4")
    click.echo(f"report written to {Path(out_dir) / 'report.json'}")


def _show(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


@main.command("report")
@click.option("--report", "report_path", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--format", "formats", type=click.Choice(["csv", "json", "all"]),
              default="all", show_default=True)
@click.option("--traces/--no-traces", default=True, show_default=True,
              help="Also regenerate per-run voltage-error traces.")
@_exit_codes
def report_cmd(report_path, out_dir, formats, traces):
    """Re-export an existing report to CSV/JSON."""
    report = BenchmarkReport.load(report_path)
    wanted = ("csv", "json") if formats == "all" else (formats,)
    written = export_report(report, out_dir, formats=wanted, with_traces=traces)
    click.echo(f"wrote {len(written)} files under {out_dir}")


if __name__ == "__main__":
    main()
