"""Closed-loop workload runners, correctness checks and end-to-end metrics.

Each optimizer proposes a point only after the previous one was evaluated.
A run repeats whole cycles (one pass over the workload's repetition seeds
and methods, or one ``cellident bench`` invocation) until the measuring time
is spent.  Quality metrics come from the first cycle; every later cycle must
reproduce it bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from cellident import baselines, bayesopt, cli
from cellident.bench import BenchmarkReport
from cellident.errors import OutOfBox
from cellident.identify import VoltageFitObjective

from fresh_setup import Setup, Workload, rep_seed


class TimedObjective:
    """The callable the benchmark passes to an optimizer.

    Counts calls and timestamps each return, so step times are measured
    outside the program.
    """

    def __init__(self, fn):
        self.fn = fn
        self.returns: list[float] = []

    def __call__(self, point):
        loss = self.fn(point)
        self.returns.append(perf_counter())
        return loss


@dataclass
class RunRecord:
    """One optimizer run as the benchmark saw it."""

    method: str
    rep: int
    wall_s: float = 0.0
    returns: list[float] = field(default_factory=list)   # one per call
    trace_losses: list[float] = field(default_factory=list)
    best_theta: np.ndarray | None = None
    best_loss: float = math.nan
    test_loss: float = math.nan
    errors: list[str] = field(default_factory=list)

    def key(self) -> tuple:
        return (self.method, self.rep)

    def outcome(self) -> tuple:
        theta = None if self.best_theta is None else self.best_theta.tobytes()
        return (theta, self.best_loss, self.test_loss)


@dataclass
class Cycle:
    records: list[RunRecord]
    wall_s: float
    body_sha256: str = ""
    files_written: int = 0
    bytes_written: int = 0


def run_optimizer(workload: Workload, data: Setup, method: str,
                  rep: int) -> RunRecord:
    """One budgeted optimizer run plus test-set scoring, timed end to end."""
    rec = RunRecord(method=method, rep=rep)
    box, budget = data.box, workload.budget
    seed = rep_seed(data.config.master_seed, rep)
    obj = VoltageFitObjective(data.params, data.ocv_p, data.ocv_n, box,
                              data.train)
    timed = TimedObjective(obj.unit)
    t0 = perf_counter()
    try:
        if method == "bo":
            result = bayesopt.run_bo(timed, bayesopt.BoRunConfig(
                box=box, budget=budget, seed=seed, s0=data.config.s0))
        elif method == "gd":
            result = baselines.gradient_descent(
                timed, box, baselines.GdConfig(budget=budget, seed=seed))
        elif method == "pso":
            result = baselines.pso(
                timed, box, baselines.PsoConfig(budget=budget, seed=seed))
        else:
            result = baselines.random_search(timed, box, budget, seed)
        test = VoltageFitObjective(data.params, data.ocv_p, data.ocv_n, box,
                                   data.test)
        rec.test_loss = test(result.best_theta).loss
    except Exception as exc:  # a failed run is counted, not fatal
        rec.errors.append(f"{type(exc).__name__}: {exc}")
        return rec
    finally:
        rec.wall_s = perf_counter() - t0
        rec.returns = timed.returns
    rec.best_theta = np.asarray(result.best_theta, dtype=float)
    rec.best_loss = result.best_loss
    rec.trace_losses = [loss for _, _, loss in result.trace]
    if result.evaluations_used != len(result.trace):
        rec.errors.append(f"result claims {result.evaluations_used} "
                          f"evaluations but its trace has {len(result.trace)}")
    return rec


def run_cycle(workload: Workload, data: Setup, tracer=None) -> Cycle:
    records = []
    for rep in range(workload.reps):
        for method in workload.methods:
            if tracer is not None:
                tracer.run_id += 1
            records.append(run_optimizer(workload, data, method, rep))
    return Cycle(records=records, wall_s=sum(r.wall_s for r in records))


def check_run(rec: RunRecord, workload: Workload, data: Setup) -> None:
    """Append to ``rec.errors`` every correctness check the run fails."""
    if rec.best_theta is None:
        return  # the run raised; its error is already recorded
    budget = workload.budget
    if len(rec.returns) != budget:
        rec.errors.append(f"objective saw {len(rec.returns)} calls, "
                          f"budget {budget}")
    if len(rec.trace_losses) != budget:
        rec.errors.append(f"trace has {len(rec.trace_losses)} entries, "
                          f"budget {budget}")
    losses = np.array(rec.trace_losses + [rec.test_loss], dtype=float)
    if not (np.all(np.isfinite(losses)) and np.all(losses >= 0.0)):
        rec.errors.append("a loss is negative or not finite")
    try:
        data.box.normalize(rec.best_theta)   # the box's own edge tolerance
    except OutOfBox as exc:
        rec.errors.append(str(exc))
    fresh = VoltageFitObjective(data.params, data.ocv_p, data.ocv_n,
                                data.box, data.train)
    again = fresh(rec.best_theta).loss
    if again != rec.best_loss:
        rec.errors.append(f"re-evaluated best loss {again!r} != "
                          f"reported {rec.best_loss!r}")


def check_repeats(records: list[RunRecord]) -> None:
    """Every run must reproduce the first run of its method and rep bit for
    bit, whichever path ran it."""
    first = {}
    for rec in records:
        if rec.errors:
            continue
        if rec.outcome() != first.setdefault(rec.key(), rec.outcome()):
            rec.errors.append(f"{rec.key()} did not reproduce its first run")


# ---------------------------------------------------------------------------
# paper-default: `cellident bench` in-process

class _StepStamps:
    """Timestamps each return of ``VoltageFitObjective.unit``.

    ``cellident bench`` builds its own objective, so the benchmark cannot
    pass it a callable; this records the same timestamps by wrapping the
    method the optimizers call.  Calls group into runs by objective object.
    """

    def __init__(self):
        self.stamps: list[tuple[int, float]] = []
        self._original = VoltageFitObjective.__dict__["unit"]

    def __enter__(self):
        original, stamps = self._original, self.stamps

        def unit(obj, point):
            loss = original(obj, point)
            stamps.append((id(obj), perf_counter()))
            return loss

        VoltageFitObjective.unit = unit
        return self

    def __exit__(self, *exc):
        VoltageFitObjective.unit = self._original
        return False

    def runs(self) -> list[list[float]]:
        out, last = [], None
        for obj_id, t in self.stamps:
            if obj_id != last:
                out.append([])
                last = obj_id
            out[-1].append(t)
        return out


def run_cli_cycle(workload: Workload, data: Setup, work_dir: Path,
                  index: int, tracer=None) -> Cycle:
    """One `cellident bench` invocation, then its checks (not timed)."""
    out_dir = work_dir / f"bench-{index}"
    args = ["bench", "--seed", str(data.config.master_seed), "--budget",
            str(workload.budget), "--reps", str(workload.reps),
            "--out", str(out_dir)]
    if tracer is not None:
        tracer.run_id += 1
    main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
    exit_code = 0
    with _StepStamps() as stamps, contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        try:
            main(args, standalone_mode=False)
        except SystemExit as exc:
            exit_code = exc.code
        wall = perf_counter() - t0
    enabled = tracer is not None and tracer.enabled
    if tracer is not None:
        tracer.enabled = False
    try:
        cycle = _check_cli_output(workload, data, out_dir, stamps.runs(),
                                  exit_code, wall)
    finally:
        if tracer is not None:
            tracer.enabled = enabled
        shutil.rmtree(out_dir, ignore_errors=True)
    return cycle


def _check_cli_output(workload, data, out_dir, runs, exit_code, wall):
    expected = [(m, r) for r in range(workload.reps) for m in workload.methods]
    records = [RunRecord(method=m, rep=r) for m, r in expected]
    problems = []
    if exit_code:
        problems.append(f"cellident bench exited with {exit_code}")
    try:
        report = BenchmarkReport.load(out_dir / "report.json")
    except Exception as exc:  # missing or invalid report fails every run
        problems.append(f"report.json: {type(exc).__name__}: {exc}")
        report = None
    digest = ""
    if report is not None:
        digest = hashlib.sha256(report.body_bytes()).hexdigest()
        if report.meta.get("body_sha256") != digest:
            problems.append("meta.body_sha256 does not match the body")
        rows = report.results["rows"]
        walls = report.meta.get("wall_times", [])
        if ([(r["method"], r["rep"]) for r in rows] != expected
                or len(walls) != len(rows) or len(runs) != len(rows)):
            problems.append(f"{len(rows)} rows, {len(walls)} wall times and "
                            f"{len(runs)} objective runs; expected "
                            f"{len(expected)}")
        else:
            for rec, row, w, stamps in zip(records, rows, walls, runs):
                _fill_from_row(rec, row, w["seconds"], stamps, out_dir)
                check_run(rec, workload, data)
    for rec in records:
        rec.errors.extend(problems)
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return Cycle(records=records, wall_s=wall, body_sha256=digest,
                 files_written=len(files),
                 bytes_written=sum(p.stat().st_size for p in files))


def _fill_from_row(rec, row, seconds, stamps, out_dir) -> None:
    rec.wall_s = seconds
    rec.returns = stamps
    if row["failed"]:
        rec.errors.append(f"bench row failed: {row.get('error')}")
        return
    rec.best_theta = np.array([row["theta"][k] for k in ("k_p", "k_n", "D_e")])
    rec.best_loss = row["train_loss_V2"]
    rec.test_loss = row["test_loss_V2"]
    trace = out_dir / f"trace_{rec.method}_rep{rec.rep}.csv"
    try:
        table = np.genfromtxt(trace, delimiter=",", names=True)
        rec.trace_losses = [float(v) for v in np.atleast_1d(table["loss_V2"])]
    except (OSError, ValueError) as exc:
        rec.errors.append(f"{trace.name}: {exc}")


# ---------------------------------------------------------------------------
# end-to-end metrics

def end_to_end(cycles: list[Cycle], workload: Workload, data: Setup,
               setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """The ten user-facing metrics, plus their sample counts."""
    records = [r for c in cycles for r in c.records]
    steps = [b - a for r in records for a, b in zip(r.returns, r.returns[1:])]
    evals = sum(len(r.returns) for r in records)
    failed = sum(1 for r in records if r.errors)
    truth = np.array(data.truth)
    first = [r for r in cycles[0].records if r.best_theta is not None]
    relerr = [float(np.max(np.abs(r.best_theta / truth - 1.0))) for r in first]
    metrics = {
        "setup_s": setup_s,
        "evals_per_s": evals / sum(c.wall_s for c in cycles),
        "run_s_p50": statistics.median(r.wall_s for r in records),
        "step_ms_p50": float(np.percentile(steps, 50)) * 1e3,
        "step_ms_p95": float(np.percentile(steps, 95)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / len(records),
        "train_loss_p50": _median([r.best_loss for r in first]),
        "test_loss_p50": _median([r.test_loss for r in first]),
        "theta_relerr_p50": _median(relerr),
    }
    counts = {"cycles": len(cycles), "runs": len(records),
              "step_samples": len(steps), "evaluations": evals,
              "failed": failed, "quality_runs": len(first)}
    return metrics, counts


def _median(values) -> float:
    return statistics.median(values) if values else math.nan
