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
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import gp
from ._blas import one_blas_thread
from .errors import DuplicatePoint, NegativeVariance, SingularKernel
from .identify import ParameterBox
from .runs import OptimizationResult, Recorder
from .sampling import HaltonSampler

log = logging.getLogger(__name__)

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def expected_improvement(mean, variance, best_so_far: float, xi: float = 0.0):
    """Closed-form EI for minimization: E[max(0, best - f(theta) - xi)].

    With sigma = sqrt(variance) and z = (best - mean - xi)/sigma this is
    (best - mean - xi)*Phi(z) + sigma*phi(z); at sigma = 0 it degenerates to
    max(0, best - mean - xi).  Result is >= 0 everywhere.  ``mean`` and
    ``variance`` must be finite and of one shape, ``best_so_far`` finite and
    ``xi`` finite and non-negative.
    """
    if not (math.isfinite(xi) and xi >= 0.0):
        raise ValueError(f"xi must be finite and non-negative, got {xi}")
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
    if single:
        mean = mean.reshape(1)
        variance = variance.reshape(1)
    # one reduction serves the tolerance check and the sigma = 0 test below
    lowest = variance.min(initial=np.inf)
    if lowest < -1e-12:
        raise NegativeVariance(
            f"variance {lowest:g} below clamping tolerance")
    sigma = np.maximum(variance, 0.0)
    np.sqrt(sigma, out=sigma)
    diff = best_so_far - mean
    diff -= xi

    # |z| can overflow z*z when sigma is denormal-small; exp(-inf) = 0 is
    # exactly the degenerate limit.  sigma = 0 gives 0/0 here, replaced below.
    # Each in-place step is one operation of diff*Phi(z) + sigma*phi(z).
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = diff / sigma
        out = ndtr(z)
        out *= diff
        pdf = np.multiply(-0.5, z)
        pdf *= z
        np.exp(pdf, out=pdf)
        pdf /= _SQRT_2PI
        pdf *= sigma
        out += pdf
    if lowest <= 0.0:                      # some sigma is exactly 0
        degenerate = sigma == 0.0
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
        if not (math.isfinite(self.xi) and self.xi >= 0.0):
            raise ValueError(f"xi must be finite and >= 0, got {self.xi}")
        if not 0.0 < self.step_final <= self.step_init:
            raise ValueError("need 0 < step_final <= step_init")


ACQUISITION = AcquisitionConfig()   # the settings every BO run uses


@dataclass(frozen=True)
class BoRunConfig:
    """Outer-loop settings: initial design size, budget, seed, search box."""

    box: ParameterBox
    budget: int
    seed: int
    s0: int = 10

    def __post_init__(self):
        if self.s0 < 1:
            raise ValueError("s0 must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.s0 > self.budget:
            raise ValueError(
                f"s0 = {self.s0} exceeds budget = {self.budget}")


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

    # the refine_top best, ties by descending index at every SIMD level
    k = max(len(scores) - config.refine_top, 0)
    top = np.flatnonzero(scores >= np.partition(scores, k)[k])
    top = top[np.argsort(scores[top], kind="stable")[::-1][:config.refine_top]]
    # refine all kept candidates together, one posterior call per shrinking
    # step; each moves to its first best probe on strict improvement only
    points, score, rows = cand[top], scores[top], np.arange(len(top))
    offsets = np.vstack([np.eye(n), -np.eye(n)])
    steps = np.geomspace(config.step_init, config.step_final,
                         config.refine_steps)
    probes = np.empty((len(top), 2 * n, n))
    for move in steps[:, None, None] * offsets:     # move = step * offsets
        np.add(points[:, None, :], move, out=probes)
        np.maximum(probes, 0.0, out=probes)       # np.clip, without its
        np.minimum(probes, 1.0, out=probes)       # wrapper's overhead
        m, v = state.posterior(probes.reshape(-1, n))
        s = expected_improvement(m, v, best_so_far, config.xi)
        s = s.reshape(len(top), -1)
        j = s.argmax(axis=1)
        best = s[rows, j]
        better = best > score
        np.copyto(score, best, where=better)
        np.copyto(points, probes[rows, j], where=better[:, None])
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
    box = config.box
    evaluate = Recorder(objective, box, config.budget)
    ss = (config.seed if isinstance(config.seed, np.random.SeedSequence)
          else np.random.SeedSequence(config.seed))
    halton_seed, fallback_seed = ss.spawn(2)
    sampler = HaltonSampler(box.n, halton_seed)
    rng = np.random.default_rng(fallback_seed)

    for point in sampler.draw(config.s0):
        evaluate(point)

    fallbacks = 0
    while evaluate.remaining:
        losses = evaluate.losses()
        try:
            with one_blas_thread():   # small matrices: one thread is faster
                state = gp.fit(np.vstack(evaluate.points), losses)
                nxt = maximize_acquisition(state, box, ACQUISITION, rng,
                                           sampler, float(np.min(losses)))
        except (SingularKernel, DuplicatePoint) as exc:
            fallbacks += 1
            log.warning("surrogate fit failed (%s); falling back to a "
                        "uniform random point", exc)
            nxt = rng.uniform(size=box.n)
        evaluate(nxt)

    return evaluate.result("bo", s0=config.s0, surrogate_fallbacks=fallbacks)
