"""Budget-matched baseline optimizers: projected gradient descent with
forward-difference gradients, global-best PSO, and plain random search.

All three work on the same unit-cube objective interface as the BO loop and
charge every objective call (difference probes included) against the same
evaluation budget, so comparisons are evaluation-for-evaluation fair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .identify import ParameterBox
from .runs import OptimizationResult, Recorder


# GD: fixed step length and forward-difference probe distance, unit coordinates
GD_STEP = 0.05
GD_PROBE = 1e-3

# PSO: global-best swarm with standard constriction-style coefficients
PSO_SWARM = 10
PSO_INERTIA = 0.729
PSO_COGNITIVE = 1.49445
PSO_SOCIAL = 1.49445
PSO_V_MAX = 0.5   # velocity clamp, unit coordinates


@dataclass(frozen=True)
class GdConfig:
    """One gradient-descent run: evaluation budget and start seed."""

    budget: int
    seed: int


@dataclass(frozen=True)
class PsoConfig:
    """One PSO run: evaluation budget (at least one swarm) and seed."""

    budget: int
    seed: int

    def __post_init__(self):
        if self.budget < PSO_SWARM:
            raise ValueError(f"budget {self.budget} below swarm size {PSO_SWARM}")


def min_budget(method: str, n: int) -> int:
    """Smallest budget ``method`` runs with on an n-dimensional box: one full
    GD iteration (start, n probes, one step) or one PSO swarm."""
    if method == "gd":
        return n + 2
    if method == "pso":
        return PSO_SWARM
    return 1


def gradient_descent(objective, box: ParameterBox,
                     config: GdConfig) -> OptimizationResult:
    """Projected descent from a uniform random start.

    Each iteration spends n forward-difference probes (flipped backward at
    the box's upper edge) plus one evaluation of the stepped point; a
    zero-gradient iterate holds position without re-evaluating.  Probes are
    charged greedily, so the budget is consumed exactly.
    """
    n = box.n
    need = min_budget("gd", n)
    if config.budget < need:
        raise ValueError(
            f"budget {config.budget} below one full iteration ({need})")
    rng = np.random.default_rng(config.seed)
    evaluate = Recorder(objective, box, config.budget)

    theta = rng.uniform(size=n)
    f_theta = evaluate(theta)

    while evaluate.remaining:
        grad = np.zeros(n)
        for i in range(min(n, evaluate.remaining)):
            if theta[i] + GD_PROBE <= 1.0:
                probe, sign = theta.copy(), 1.0
                probe[i] += GD_PROBE
            else:  # flip backward at the upper edge
                probe, sign = theta.copy(), -1.0
                probe[i] -= GD_PROBE
            grad[i] = sign * (evaluate(probe) - f_theta) / GD_PROBE
        norm = float(np.linalg.norm(grad))
        if norm > 0.0 and evaluate.remaining:
            theta = np.clip(theta - GD_STEP * grad / norm, 0.0, 1.0)
            f_theta = evaluate(theta)
        # norm == 0: hold position; probes above were still charged

    return evaluate.result("gd")


def pso(objective, box: ParameterBox, config: PsoConfig) -> OptimizationResult:
    """Synchronous global-best PSO with clamped velocities and positions.

    The final generation may be partial so the budget is consumed exactly;
    velocities start at zero.
    """
    n, m = box.n, PSO_SWARM
    rng = np.random.default_rng(config.seed)
    evaluate = Recorder(objective, box, config.budget)

    pos = rng.uniform(size=(m, n))
    vel = np.zeros((m, n))
    pbest = pos.copy()
    pbest_f = np.full(m, np.inf)
    while True:
        for i in range(min(m, evaluate.remaining)):
            f = evaluate(pos[i])
            if f < pbest_f[i]:
                pbest_f[i] = f
                pbest[i] = pos[i].copy()
        if not evaluate.remaining:
            break
        gbest = pbest[int(np.argmin(pbest_f))].copy()
        r1 = rng.uniform(size=(m, n))
        r2 = rng.uniform(size=(m, n))
        vel = (PSO_INERTIA * vel
               + PSO_COGNITIVE * r1 * (pbest - pos)
               + PSO_SOCIAL * r2 * (gbest - pos))
        np.clip(vel, -PSO_V_MAX, PSO_V_MAX, out=vel)
        pos = np.clip(pos + vel, 0.0, 1.0)

    return evaluate.result("pso")


def random_search(objective, box: ParameterBox, budget: int,
                  seed) -> OptimizationResult:
    """Uniform random sampling at the same budget (mechanism-check control)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    evaluate = Recorder(objective, box, budget)
    for _ in range(budget):
        evaluate(rng.uniform(size=box.n))
    return evaluate.result("random")
