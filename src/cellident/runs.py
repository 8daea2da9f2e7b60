"""Optimizer runs: the budgeted evaluation recorder that BO and the baselines
share, the result it builds, and the trace CSV export.

Every optimizer evaluates its objective only through a ``Recorder``, so the
budget is enforced, the trace is numbered and the best point is chosen the
same way for every method.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .identify import ParameterBox


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimizer run (shared by BO and the baselines)."""

    method: str
    best_theta: np.ndarray          # physical units
    best_loss: float
    trace: tuple                    # ((index, theta_physical, loss), ...)
    evaluations_used: int
    wall_time_s: float
    notes: dict = field(default_factory=dict)

    def cumulative_best(self) -> np.ndarray:
        return np.minimum.accumulate([loss for _, _, loss in self.trace])


class Recorder:
    """Budget guard and trace around a unit-cube objective.

    Each call evaluates ``objective`` at a unit point and records
    ``(index, theta_physical, loss)`` and the unit point; a call past
    ``budget`` raises RuntimeError before the objective runs.
    """

    def __init__(self, objective, box: ParameterBox, budget: int):
        self.objective = objective
        self.box = box
        self.budget = budget
        self.trace: list[tuple[int, np.ndarray, float]] = []
        self.points: list[np.ndarray] = []   # unit-cube points, in order
        self._t0 = time.perf_counter()

    @property
    def remaining(self) -> int:
        return self.budget - len(self.trace)

    def __call__(self, unit_point) -> float:
        if self.remaining <= 0:
            raise RuntimeError(
                f"objective evaluation budget ({self.budget}) exceeded")
        loss = float(self.objective(unit_point))
        self.trace.append((len(self.trace), self.box.denormalize(unit_point),
                           loss))
        self.points.append(np.array(unit_point, dtype=float))
        return loss

    def losses(self) -> np.ndarray:
        return np.array([loss for _, _, loss in self.trace])

    def result(self, method: str, **notes) -> OptimizationResult:
        """The run so far; the first minimum of the trace is the best."""
        _, theta, loss = self.trace[int(np.argmin(self.losses()))]
        return OptimizationResult(
            method=method, best_theta=theta, best_loss=loss,
            trace=tuple(self.trace), evaluations_used=len(self.trace),
            wall_time_s=time.perf_counter() - self._t0, notes=notes)


def export_trace(result: OptimizationResult, box: ParameterBox, path) -> None:
    """Trace CSV: eval_index,<dim names>,loss_V2,cum_best_V2."""
    names = ",".join(box.names)
    cum = result.cumulative_best()
    with open(path, "w") as fh:
        fh.write(f"eval_index,{names},loss_V2,cum_best_V2\n")
        for (idx, theta, loss), best in zip(result.trace, cum):
            coords = ",".join(f"{v:.12g}" for v in np.atleast_1d(theta))
            fh.write(f"{idx},{coords},{loss:.12g},{best:.12g}\n")
