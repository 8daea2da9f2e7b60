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


@dataclass(frozen=True)
class GdConfig:
    """Fixed-step normalized-gradient descent settings (unit coordinates)."""

    budget: int
    seed: int
    alpha: float = 0.05    # step length per iteration
    epsilon: float = 1e-3  # forward-difference probe distance

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("alpha must be > 0")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")


@dataclass(frozen=True)
class PsoConfig:
    """Global-best PSO with standard constriction-style coefficients."""

    budget: int
    seed: int
    swarm_size: int = 10
    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    v_max: float = 0.5     # velocity clamp, unit coordinates

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.budget < self.swarm_size:
            raise ValueError(
                f"budget {self.budget} below swarm size {self.swarm_size}")


def min_budget(method: str, n: int) -> int:
    """Smallest budget ``method`` runs with on an n-dimensional box: one full
    GD iteration (start, n probes, one step) or one PSO swarm."""
    if method == "gd":
        return n + 2
    if method == "pso":
        return PsoConfig.swarm_size
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
            if theta[i] + config.epsilon <= 1.0:
                probe, sign = theta.copy(), 1.0
                probe[i] += config.epsilon
            else:  # flip backward at the upper edge
                probe, sign = theta.copy(), -1.0
                probe[i] -= config.epsilon
            grad[i] = sign * (evaluate(probe) - f_theta) / config.epsilon
        norm = float(np.linalg.norm(grad))
        if norm > 0.0 and evaluate.remaining:
            theta = np.clip(theta - config.alpha * grad / norm, 0.0, 1.0)
            f_theta = evaluate(theta)
        # norm == 0: hold position; probes above were still charged

    return evaluate.result("gd", alpha=config.alpha, epsilon=config.epsilon)


def pso(objective, box: ParameterBox, config: PsoConfig) -> OptimizationResult:
    """Synchronous global-best PSO with clamped velocities and positions.

    The final generation may be partial so the budget is consumed exactly;
    velocities start at zero.
    """
    n, m = box.n, config.swarm_size
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
        vel = (config.inertia * vel
               + config.cognitive * r1 * (pbest - pos)
               + config.social * r2 * (gbest - pos))
        np.clip(vel, -config.v_max, config.v_max, out=vel)
        pos = np.clip(pos + vel, 0.0, 1.0)

    return evaluate.result("pso", swarm_size=m)


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
