"""Quick self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload, shrunk, in both modes and checks that each metric named
in BENCHMARK.json is emitted as a finite number and that the runs pass their
correctness checks.  Then it swaps in an objective wrapper that miscounts
its calls and checks that every run is reported as failed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import fresh_setup
import run

TINY = {
    "bo-long": dict(budget=12, reps=1, train=(("rcid-like", 600.0, 1.0),),
                    test=(("drive-cycle-like", 600.0, 1.0),)),
    "sim-heavy": dict(budget=12, reps=1,
                      train=(("rcid-like", 600.0, 0.25),
                             ("drive-cycle-like", 600.0, 0.5)),
                      test=(("drive-cycle-like", 600.0, 1.0),)),
    "paper-default": dict(budget=12, reps=1),
}


def tiny(name: str) -> fresh_setup.Workload:
    return dataclasses.replace(fresh_setup.WORKLOADS[name], **TINY[name])


def main() -> int:
    root = Path.cwd()
    src = fresh_setup.add_source_path(root)
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for name in fresh_setup.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, info = run.run(tiny(name), seed=7, seconds=0, trace=trace,
                                   root=root, src=src)
            wanted = [m["name"] for m in spec[section]]
            got = result["metrics"]
            if list(got) != wanted:
                problems.append(f"{name} trace={trace}: metric names differ")
            bad = [k for k, m in got.items()
                   if not isinstance(m["value"], float)
                   or not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{name} trace={trace}: not finite: {bad}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {info['errors']}")

    import workloads

    class Miscounting(workloads.TimedObjective):
        """Leaves the first call out of its count."""

        dropped = False

        def __call__(self, point):
            loss = super().__call__(point)
            if not self.dropped:
                self.returns.pop()
                self.dropped = True
            return loss

    honest = workloads.TimedObjective
    workloads.TimedObjective = Miscounting
    try:
        result, info = run.run(tiny("bo-long"), seed=7, seconds=0, trace=False,
                               root=root, src=src)
    finally:
        workloads.TimedObjective = honest
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append("a miscounting objective was not caught")
    elif not any("calls, budget" in e for e in info["errors"]):
        problems.append(f"miscount caught for another reason: {info['errors']}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
