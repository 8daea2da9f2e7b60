"""Expected improvement and the Bayesian-optimization loop.

The loop is: evaluate a quasi-random initial design of s0 points, then until
the evaluation budget is spent, refit the GP surrogate on everything seen,
maximize expected improvement over the box, and evaluate the argmax.  All
randomness derives from one seed, so a given (seed, config) pair reproduces
its trace bit for bit.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from . import gp
from ._blas import one_blas_thread
from .errors import DuplicatePoint, NegativeVariance, SingularKernel
from .identify import ParameterBox
from .sampling import HaltonSampler

log = logging.getLogger(__name__)

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def expected_improvement(mean, variance, best_so_far: float, xi: float = 0.0):
    """Closed-form EI for minimization: E[max(0, best - f(theta) - xi)].

    With sigma = sqrt(variance) and z = (best - mean - xi)/sigma this is
    (best - mean - xi)*Phi(z) + sigma*phi(z); at sigma = 0 it degenerates to
    max(0, best - mean - xi).  Result is >= 0 everywhere.  ``mean`` and
    ``variance`` must be finite and of one shape, ``best_so_far`` finite.
    """
    if xi < 0.0:
        raise ValueError(f"xi must be non-negative, got {xi}")
    if not math.isfinite(best_so_far):
        raise ValueError(f"best_so_far must be finite, got {best_so_far}")
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if mean.shape != variance.shape:
        raise ValueError(f"mean of shape {mean.shape} but variance of shape "
                         f"{variance.shape}")
    if not (np.isfinite(mean).all() and np.isfinite(variance).all()):
        raise ValueError("mean and variance must be finite")
    single = mean.ndim == 0
    mean = np.atleast_1d(mean)
    variance = np.atleast_1d(variance)
    if np.any(variance < -1e-12):
        raise NegativeVariance(
            f"variance {np.min(variance):g} below clamping tolerance")
    variance = np.maximum(variance, 0.0)
    sigma = np.sqrt(variance)
    diff = best_so_far - mean - xi

    # |z| can overflow z*z when sigma is denormal-small; exp(-inf) = 0 is
    # exactly the degenerate limit.  sigma = 0 gives 0/0 here, replaced below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = diff / sigma
        out = diff * ndtr(z) + sigma * (np.exp(-0.5 * z * z) / _SQRT_2PI)
    degenerate = sigma == 0.0
    if degenerate.any():
        out = np.where(degenerate, np.maximum(diff, 0.0), out)
    np.maximum(out, 0.0, out=out)          # guard tiny negative roundoff
    return float(out[0]) if single else out


@dataclass(frozen=True)
class AcquisitionConfig:
    """Proxy-optimizer settings for the inner EI maximization."""

    n_candidates: int = 2048   # quasi-random candidates per iteration
    refine_top: int = 5        # candidates kept for local refinement
    refine_steps: int = 20     # shrinking-step sweeps per kept candidate
    step_init: float = 0.05    # initial refinement step, unit coordinates
    step_final: float = 0.001  # final refinement step
    xi: float = 0.0            # improvement threshold

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.refine_top < 1:
            raise ValueError("refine_top must be >= 1")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be >= 0")
        if self.xi < 0.0:
            raise ValueError("xi must be >= 0")
        if not 0.0 < self.step_final <= self.step_init:
            raise ValueError("need 0 < step_final <= step_init")


@dataclass(frozen=True)
class BoRunConfig:
    """Outer-loop settings: initial design size, budget, seed, search box."""

    box: ParameterBox
    budget: int
    seed: int
    s0: int = 10
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    standardize: bool = True   # internal value standardization in the GP

    def __post_init__(self):
        if self.s0 < 1:
            raise ValueError("s0 must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.s0 > self.budget:
            raise ValueError(
                f"s0 = {self.s0} exceeds budget = {self.budget}")


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


def export_trace(result: OptimizationResult, box: ParameterBox, path) -> None:
    """Trace CSV: eval_index,<dim names>,loss_V2,cum_best_V2."""
    names = ",".join(box.names)
    cum = result.cumulative_best()
    with open(path, "w") as fh:
        fh.write(f"eval_index,{names},loss_V2,cum_best_V2\n")
        for (idx, theta, loss), best in zip(result.trace, cum):
            coords = ",".join(f"{v:.12g}" for v in np.atleast_1d(theta))
            fh.write(f"{idx},{coords},{loss:.12g},{best:.12g}\n")


def _best_of_trace(trace) -> tuple[np.ndarray, float]:
    idx = int(np.argmin([loss for _, _, loss in trace]))
    _, theta, loss = trace[idx]
    return theta, loss


def maximize_acquisition(state: gp.GPPosterior, box: ParameterBox,
                         config: AcquisitionConfig, rng: np.random.Generator,
                         sampler: HaltonSampler, best_so_far: float) -> np.ndarray:
    """Approximate argmax of EI over the unit cube.

    Scores a quasi-random candidate set, then refines the best few by
    coordinate-wise search with a geometrically shrinking step.  The winner
    is nudged by a uniform 1e-6 perturbation if it lands within 1e-9 of an
    observed point, so the next GP fit never sees duplicates.
    """
    n = box.n
    cand = sampler.draw(config.n_candidates)
    mean, var = state.posterior(cand)
    scores = expected_improvement(mean, var, best_so_far, config.xi)

    # refine all kept candidates together, one posterior call per shrinking
    # step; each moves to its first best probe on strict improvement only
    top = np.argsort(scores)[::-1][:config.refine_top]
    points, score, rows = cand[top], scores[top], np.arange(len(top))
    offsets = np.vstack([np.eye(n), -np.eye(n)])
    for step in np.geomspace(config.step_init, config.step_final,
                             config.refine_steps):
        probes = np.clip(points[:, None, :] + step * offsets, 0.0, 1.0)
        m, v = state.posterior(probes.reshape(-1, n))
        s = expected_improvement(m, v, best_so_far, config.xi)
        s = s.reshape(len(top), -1)
        j = np.argmax(s, axis=1)
        better = s[rows, j] > score
        score[better] = s[rows, j][better]
        points[better] = probes[rows, j][better]
    best_point = points[np.argmax(score)]   # first maximum, in top order

    # keep the proposal distinct from everything already observed
    for _ in range(16):
        dist = np.sqrt(np.sum((state.points - best_point) ** 2, axis=1))
        if np.min(dist) >= 1e-9:
            break
        best_point = np.clip(
            best_point + rng.uniform(-1e-6, 1e-6, size=n), 0.0, 1.0)
    return best_point


def run_bo(objective, config: BoRunConfig) -> OptimizationResult:
    """Budgeted Bayesian optimization of a unit-cube objective.

    ``objective`` maps a unit-cube point to a float loss.  The trace holds
    exactly ``budget`` entries; a singular surrogate falls back to one
    uniform random point for that iteration (logged, counted in notes).
    """
    t0 = time.perf_counter()
    box = config.box
    n = box.n
    ss = (config.seed if isinstance(config.seed, np.random.SeedSequence)
          else np.random.SeedSequence(config.seed))
    halton_seed, fallback_seed = ss.spawn(2)
    sampler = HaltonSampler(n, halton_seed)
    rng = np.random.default_rng(fallback_seed)

    trace = []
    points_unit = []

    def evaluate(unit_point):
        loss = float(objective(unit_point))
        theta = box.denormalize(unit_point)
        trace.append((len(trace), theta, loss))
        points_unit.append(np.asarray(unit_point, dtype=float))
        return loss

    losses = []
    n_init = min(config.s0, config.budget)
    for point in sampler.draw(n_init):
        losses.append(evaluate(point))

    fallbacks = 0
    while len(trace) < config.budget:
        best = float(np.min(losses))
        try:
            with one_blas_thread():   # small matrices: one thread is faster
                state = gp.fit(np.vstack(points_unit), np.asarray(losses),
                               standardize=config.standardize)
                nxt = maximize_acquisition(state, box, config.acquisition,
                                           rng, sampler, best)
        except (SingularKernel, DuplicatePoint) as exc:
            fallbacks += 1
            log.warning("surrogate fit failed (%s); falling back to a "
                        "uniform random point", exc)
            nxt = rng.uniform(size=n)
        losses.append(evaluate(nxt))

    best_theta, best_loss = _best_of_trace(trace)
    return OptimizationResult(
        method="bo", best_theta=best_theta, best_loss=best_loss,
        trace=tuple(trace), evaluations_used=len(trace),
        wall_time_s=time.perf_counter() - t0,
        notes={"s0": n_init, "surrogate_fallbacks": fallbacks},
    )
