"""Optimizer runs: the budgeted evaluation recorder that BO and the baselines
share, the result it builds, and the trace CSV export.

Every optimizer evaluates its objective only through a ``Recorder``, so the
budget is enforced, the trace is numbered and the best point is chosen the
same way for every method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfBox
from .identify import ParameterBox
from .params import write_csv


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimizer run (shared by BO and the baselines)."""

    best_theta: np.ndarray          # physical units
    best_loss: float
    trace: tuple                    # ((index, theta_physical, loss), ...)
    evaluations_used: int
    notes: dict = field(default_factory=dict)


class Recorder:
    """Budget guard and trace around a unit-cube objective.

    Each call evaluates ``objective`` at a unit point and keeps the point
    and its loss; a call past ``budget`` raises RuntimeError before the
    objective runs.
    """

    def __init__(self, objective, box: ParameterBox, budget: int):
        self.objective = objective
        self.box = box
        self.budget = budget
        self.points: list[np.ndarray] = []   # unit-cube points, in order
        self._losses: list[float] = []

    @property
    def remaining(self) -> int:
        return self.budget - len(self._losses)

    def __call__(self, unit_point) -> float:
        if self.remaining <= 0:
            raise RuntimeError(
                f"objective evaluation budget ({self.budget}) exceeded")
        loss = float(self.objective(unit_point))
        self.points.append(np.array(unit_point, dtype=float))
        self._losses.append(loss)
        return loss

    def losses(self) -> np.ndarray:
        return np.array(self._losses)

    def result(self, **notes) -> OptimizationResult:
        """The run so far, its points denormalized in one call (OutOfBox
        naming the first evaluation outside the cube); the first minimum of
        the trace is the best."""
        units = np.vstack(self.points)
        try:
            thetas = self.box.denormalize(units)
        except OutOfBox:
            for i, unit in enumerate(units):
                try:
                    self.box.denormalize(unit)
                except OutOfBox:
                    raise OutOfBox(f"evaluation {i}: unit point {unit} "
                                   "outside [0,1]^n") from None
        best = int(np.argmin(self._losses))
        return OptimizationResult(
            best_theta=thetas[best], best_loss=self._losses[best],
            trace=tuple(zip(range(len(thetas)), thetas, self._losses)),
            evaluations_used=len(thetas), notes=notes)


def export_trace(result: OptimizationResult, box: ParameterBox, path) -> None:
    """Trace CSV: eval_index,<dim names>,loss_V2,cum_best_V2."""
    index, thetas, losses = zip(*result.trace)
    write_csv(path, {"eval_index": index,
                     **dict(zip(box.names, np.transpose(thetas))),
                     "loss_V2": losses,
                     "cum_best_V2": np.minimum.accumulate(losses)})
