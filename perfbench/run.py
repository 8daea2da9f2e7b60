"""cellident benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload bo-long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced cycles and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans, the
environment record and every metric with its unit are also written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import fresh_setup

HERE = Path(__file__).resolve().parent
SETUP_CHILDREN = 2   # fresh-interpreter set-ups per run, besides the main one


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
    }


def child_setups(workload: str, seed: int, root: Path,
                 count: int) -> list[dict]:
    """Set-up timings from fresh interpreters, run one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "fresh_setup.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def measure(workload, data, seconds: float, trace: bool, work_dir: Path):
    """Whole cycles until ``seconds`` have passed, then the checks.

    A traced run measures whole blocks of four cycles, untraced, traced,
    traced, untraced, so that a steady drift of the host cancels out of the
    tracing overhead; its first block may run past ``seconds``.  Returns
    every cycle, the traced cycles (all of them when not tracing), the
    untraced cycles of a traced run and the tracer.
    """
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None

    def one_cycle(index):
        if workload.cli:
            return workloads.run_cli_cycle(workload, data, work_dir, index,
                                           tracer)
        return workloads.run_cycle(workload, data, tracer)

    # untimed warm-up, because the first optimizer run in a process is
    # slower; it repeats the first run of a cycle, which must match it
    warmup = workloads.run_optimizer(workload, data, workload.methods[0], 0)
    cycles, traced, untraced = [], [], []
    step = 4 if trace else 1
    t_start = time.perf_counter()
    try:
        while True:
            for _ in range(step):
                on = not trace or len(cycles) % 4 in (1, 2)
                if trace and on != tracer.enabled:
                    if on:
                        tracer.install()
                    else:
                        tracer.uninstall()
                    tracer.enabled = on
                cycle = one_cycle(len(cycles))
                cycles.append(cycle)
                (traced if on else untraced).append(cycle)
            elapsed = time.perf_counter() - t_start
            # stop where the whole count comes closest to ``seconds``
            if elapsed + 0.5 * step * elapsed / len(cycles) >= seconds:
                break
    finally:
        if trace:
            tracer.enabled = False
            tracer.uninstall()
    if not workload.cli:
        for cycle in cycles:
            for rec in cycle.records:
                workloads.check_run(rec, workload, data)
    workloads.check_repeats([warmup] + [r for c in cycles for r in c.records])
    digests = {c.body_sha256 for c in cycles}
    if workload.cli and len(digests) != 1:
        for cycle in cycles:
            for rec in cycle.records:
                rec.errors.append(f"body checksums differ: {sorted(digests)}")
    return cycles, traced, untraced, tracer


def run(workload, seed: int, seconds: float, trace: bool, root: Path,
        src: Path) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the info record."""
    data = fresh_setup.setup(workload, seed, src)   # first: truly fresh
    workload = data.workload
    setups = [data.timings] + child_setups(workload.name, seed, root,
                                           SETUP_CHILDREN)
    setup_med = {k: statistics.median(s[k] for s in setups)
                 for k in data.timings}

    import tracing
    import workloads

    out_dir = root / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        cycles, traced, untraced, tracer = measure(
            workload, data, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e, counts = workloads.end_to_end(cycles, workload, data,
                                       setup_med["setup_s"], peak_rss_mb)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if trace:
        traced_wall = sum(c.wall_s for c in traced)
        metrics = tracing.layer_metrics(tracer, len(traced), traced_wall)
        metrics.update({k: v for k, v in setup_med.items() if k != "setup_s"})
        last = traced[-1]
        metrics["bench.files_written"] = float(last.files_written)
        metrics["bench.bytes_written"] = float(last.bytes_written)
        untraced_s = statistics.mean(c.wall_s for c in untraced)
        metrics["trace.untraced_cycle_s"] = untraced_s
        metrics["trace.overhead_s"] = traced_wall / len(traced) - untraced_s
        tracer.write_csv(out_dir / f"spans-{workload.name}.csv")
        declared = spec["per_layer"]
    else:
        metrics = e2e
        declared = spec["end_to_end"]

    failed = counts["failed"]
    errors = sorted({e for c in cycles for r in c.records for e in r.errors})
    info = {"env": environment(workload.name, seed), "counts": counts,
            "setup_samples": len(setups),
            "body_sha256": cycles[0].body_sha256 or None,
            "errors": errors[:20]}
    result = {
        "correct": failed == 0,
        "attempted": counts["runs"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    (out_dir / f"result-{workload.name}-trace{int(trace)}.json").write_text(
        json.dumps({"info": info, "all_metrics": metrics, "result": result},
                   indent=2) + "\n")
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(fresh_setup.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = fresh_setup.add_source_path(root)
    result, info = run(fresh_setup.WORKLOADS[args.workload], args.seed,
                       args.seconds, bool(args.trace), root, src)
    print("info " + json.dumps(info))
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
