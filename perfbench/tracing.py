"""Span tracing around cellident's public entry points.

Wrappers are installed from this file at run time; no code under ``src``
changes.  Each span records its name, start, end, parent span, run id, one
numeric attribute (``s`` for a fit or acquisition, points for a posterior
query, samples for a simulation) and a flag (raised an exception, or marked:
a jitter escalation or a penalized evaluation).  Spans stay in memory in
flat arrays and are written out as CSV when the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

FLAG_ERROR = 1
FLAG_MARK = 2

class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {"sid": array("q"), "name": array("i"),
                     "start": array("d"), "end": array("d"),
                     "parent": array("q"), "run": array("q"),
                     "value": array("d"), "flag": array("b")}
        self._next_sid = 0
        self._stack: list[int] = []
        self.run_id = -1
        self.enabled = False
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self) -> tuple[int, int]:
        sid = self._next_sid
        self._next_sid += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name_id, start, end, parent, value, flag) -> None:
        self._stack.pop()
        c = self.cols
        c["sid"].append(sid)
        c["name"].append(name_id)
        c["start"].append(start)
        c["end"].append(end)
        c["parent"].append(parent)
        c["run"].append(self.run_id)
        c["value"].append(value)
        c["flag"].append(flag)

    def wrap(self, fn, name, value=None, mark=None):
        """``fn`` timed as span ``name`` while tracing is enabled.

        ``value(args)`` gives the span's numeric attribute; ``mark(result)``
        sets FLAG_MARK.  An exception sets FLAG_ERROR and propagates.
        """
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer._close(sid, name_id, start, perf_counter(), parent,
                              float(value(args)) if value else 0.0,
                              FLAG_ERROR)
                raise
            end = perf_counter()
            tracer._close(sid, name_id, start, end, parent,
                          float(value(args)) if value else 0.0,
                          FLAG_MARK if mark and mark(out) else 0)
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_function(self, original, name, **kw) -> None:
        """Replace ``original`` wherever a cellident module binds it by name."""
        wrapper = self.wrap(original, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cellident" and not mod_name.startswith("cellident."):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr, name, **kw) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, **kw))
        self._undo.append((cls, attr, original))

    def install(self) -> None:
        from cellident import baselines, bayesopt, bench, ecm, gp
        from cellident.identify import VoltageFitObjective
        from cellident.ocv import OcvCurve
        from cellident.sampling import HaltonSampler

        self._patch_function(ecm.simulate, "ecm.simulate",
                             value=lambda a: a[3].n)
        self._patch_function(gp.fit, "gp.fit", value=lambda a: len(a[0]),
                             mark=lambda out: out.jitter > gp.JITTER_LADDER[0])
        self._patch_method(gp.GPPosterior, "posterior", "gp.posterior",
                           value=lambda a: np.atleast_2d(a[1]).shape[0])
        self._patch_function(bayesopt.maximize_acquisition, "bayesopt.acquire",
                             value=lambda a: a[0].n_points)
        self._patch_function(bayesopt.expected_improvement, "bayesopt.ei",
                             value=lambda a: np.size(a[0]))
        self._patch_method(HaltonSampler, "draw", "sampling.draw",
                           value=lambda a: a[1])
        self._patch_method(OcvCurve, "__call__", "ocv.lookup",
                           value=lambda a: np.size(a[1]))
        self._patch_method(VoltageFitObjective, "__call__",
                           "identify.objective", mark=lambda ev: ev.penalized)
        for fn, method in ((bayesopt.run_bo, "bo"),
                           (baselines.gradient_descent, "gd"),
                           (baselines.pso, "pso"),
                           (baselines.random_search, "random")):
            self._patch_function(fn, f"optimizer.{method}")
        self._patch_function(bench.run_benchmark, "bench.run_benchmark")
        self._patch_function(bench.export_report, "bench.export_report")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.frombuffer(v, dtype=v.typecode) if len(v) else
                np.zeros(0, dtype=v.typecode) for k, v in self.cols.items()}

    def write_csv(self, path) -> None:
        c = self.cols
        with open(path, "w") as fh:
            fh.write("sid,name,start_s,end_s,parent,run,value,flag\n")
            for i in range(len(c["sid"])):
                fh.write(f"{c['sid'][i]},{self.names[c['name'][i]]},"
                         f"{c['start'][i]:.9f},{c['end'][i]:.9f},"
                         f"{c['parent'][i]},{c['run'][i]},"
                         f"{c['value'][i]:g},{c['flag'][i]}\n")


def layer_metrics(tracer: Tracer, cycles: int, traced_wall_s: float) -> dict:
    """Per-layer counts and times per cycle, from the recorded spans.

    Self time is a span's duration minus the durations of its child spans.
    ``traced_wall_s`` is the wall time of all traced cycles together.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    row_of = np.full(tracer._next_sid, -1, dtype=np.int64)
    row_of[a["sid"]] = np.arange(a["sid"].size)
    child = np.zeros(tracer._next_sid)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_t = dur - child[a["sid"]]
    parent_name = np.full(a["sid"].size, -1, dtype=np.int64)
    parent_name[has_parent] = a["name"][row_of[a["parent"][has_parent]]]

    def mask(name):
        nid = tracer._name_ids.get(name)
        return a["name"] == nid if nid is not None else np.zeros(dur.size, bool)

    def under(name, parents):
        ids = [tracer._name_ids[p] for p in parents if p in tracer._name_ids]
        return mask(name) & np.isin(parent_name, ids)

    per = 1.0 / cycles

    def ms_mean(m):
        return float(dur[m].mean() * 1e3) if m.any() else 0.0

    fit, post, acq = mask("gp.fit"), mask("gp.posterior"), mask("bayesopt.acquire")
    sim, obj = mask("ecm.simulate"), mask("identify.objective")
    big_s = a["value"] >= 50
    out = {
        "gp.fit.calls": fit.sum() * per,
        "gp.fit.ms_s_lt50": ms_mean(fit & ~big_s),
        "gp.fit.ms_s_ge50": ms_mean(fit & big_s),
        "gp.fit.jitter_escalations": (fit & (a["flag"] == FLAG_MARK)).sum() * per,
        "gp.posterior.calls": post.sum() * per,
        "gp.posterior.points_per_call":
            float(a["value"][post].mean()) if post.any() else 0.0,
        "gp.posterior.busy_s": dur[post].sum() * per,
        "bayesopt.acquire.calls": acq.sum() * per,
        "bayesopt.acquire.ms_s_lt50": ms_mean(acq & ~big_s),
        "bayesopt.acquire.ms_s_ge50": ms_mean(acq & big_s),
        "bayesopt.acquire.self_s": self_t[acq].sum() * per,
        "bayesopt.ei.busy_s": dur[mask("bayesopt.ei")].sum() * per,
        "bayesopt.fallbacks":
            ((fit | acq) & (a["flag"] == FLAG_ERROR)).sum() * per,
        "sampling.draw.calls": mask("sampling.draw").sum() * per,
        "sampling.draw.busy_s": dur[mask("sampling.draw")].sum() * per,
        "ecm.simulate.calls": sim.sum() * per,
        "ecm.simulate.ms_p50":
            float(np.median(dur[sim]) * 1e3) if sim.any() else 0.0,
        "ecm.simulate.busy_s": dur[sim].sum() * per,
        "ecm.samples_per_s":
            float(a["value"][sim].sum() / dur[sim].sum()) if sim.any() else 0.0,
        "ecm.simulate.share": dur[sim].sum() / traced_wall_s,
        "ocv.lookup.calls": mask("ocv.lookup").sum() * per,
        "ocv.lookup.busy_s": dur[mask("ocv.lookup")].sum() * per,
        "identify.objective.calls": obj.sum() * per,
        "identify.objective.self_s": self_t[obj].sum() * per,
        "identify.penalized_frac":
            float((a["flag"][obj] == FLAG_MARK).mean()) if obj.any() else 0.0,
        "bayesopt.surrogate_share":
            (dur[fit].sum() + dur[acq].sum()) / traced_wall_s,
        "bench.run_benchmark.self_s":
            self_t[mask("bench.run_benchmark")].sum() * per,
        "bench.export_report.busy_s": dur[mask("bench.export_report")].sum() * per,
        "cli.self_s": self_t[mask("cli.main")].sum() * per,
        "trace.spans": dur.size * per,
    }
    # run time minus objective time, over objective time (the base)
    for key, methods in (("bayesopt", ("bo",)),
                         ("baselines", ("gd", "pso", "random"))):
        names = [f"optimizer.{m}" for m in methods]
        run_s = sum(dur[mask(n)].sum() for n in names)
        obj_s = dur[under("identify.objective", names)].sum()
        out[f"{key}.objective_s"] = obj_s * per
        out[f"{key}.overhead_ratio"] = (run_s - obj_s) / obj_s if obj_s else 0.0
    return {k: float(v) for k, v in out.items()}
