"""Expected improvement and the Bayesian-optimization loop.

The loop is: evaluate a quasi-random initial design of s0 points, then until
the evaluation budget is spent, refit the GP surrogate on everything seen,
maximize expected improvement over the box, and evaluate the argmax.  All
randomness derives from one seed, so a given (seed, config) pair reproduces
its trace bit for bit.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import gp
from ._blas import one_blas_thread
from ._scipy_c import routine
from .errors import SingularKernel
from .identify import ParameterBox
from .runs import OptimizationResult, Recorder
from .sampling import HaltonSampler

log = logging.getLogger(__name__)

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@functools.cache
def _ndtr():
    """``scipy.special.ndtr`` without importing scipy.special, loaded at
    the first EI, so a process that runs no BO never maps it."""
    return routine("special", "_special_ufuncs", "ndtr", "ndtr")


def expected_improvement(mean, variance, best_so_far: float):
    """Closed-form EI for minimization: E[max(0, best - f(theta))].

    With sigma = sqrt(variance) and z = (best - mean)/sigma this is
    (best - mean)*Phi(z) + sigma*phi(z); at sigma = 0 it degenerates to
    max(0, best - mean).  Result is >= 0 everywhere.  ``mean`` and
    ``variance`` must be finite and of one shape, ``best_so_far`` finite.
    """
    if not math.isfinite(best_so_far):
        raise ValueError(f"best_so_far must be finite, got {best_so_far}")
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if mean.shape != variance.shape:
        raise ValueError(f"mean of shape {mean.shape} but variance of shape "
                         f"{variance.shape}")
    if not (np.isfinite(mean).all() and np.isfinite(variance).all()):
        raise ValueError("mean and variance must be finite")
    lowest = variance.min(initial=np.inf)
    if lowest < -1e-12:
        raise ValueError(f"variance {lowest:g} below clamping tolerance")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # copies, at least 1-D: the core writes over its arguments
        out = _ei_core(np.array(mean, ndmin=1), np.array(variance, ndmin=1),
                       best_so_far)
    return float(out[0]) if mean.ndim == 0 else out


def _ei_core(mean, variance, best_so_far: float) -> np.ndarray:
    """expected_improvement of 1-D float arrays that passed its checks.

    Writes over ``mean`` and ``variance``.  Call it under
    np.errstate(over="ignore", divide="ignore", invalid="ignore"): |z| can
    overflow z*z when sigma is denormal-small, and exp(-inf) = 0 is exactly
    the degenerate limit; sigma = 0 gives 0/0, replaced below.  Each
    in-place step is one operation of diff*Phi(z) + sigma*phi(z).
    """
    lowest = variance.min(initial=np.inf)
    sigma = np.maximum(variance, 0.0, out=variance)
    np.sqrt(sigma, out=sigma)
    diff = np.subtract(best_so_far, mean, out=mean)
    z = diff / sigma
    out = _ndtr()(z)
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
    return out


# the inner EI maximization, the same in every BO run
N_CANDIDATES = 2048   # quasi-random candidates per iteration
REFINE_TOP = 5        # candidates kept for local refinement
REFINE_STEPS = 20     # shrinking-step sweeps per kept candidate
STEP_INIT = 0.05      # initial refinement step, unit coordinates
STEP_FINAL = 0.001    # final refinement step


@functools.cache
def _moves(n: int) -> np.ndarray:
    """Every refinement step's probe offsets, shape (REFINE_STEPS, 2n, n):
    the step times +e_i, then times -e_i.  Read-only."""
    offsets = np.vstack([np.eye(n), -np.eye(n)])
    steps = np.geomspace(STEP_INIT, STEP_FINAL, REFINE_STEPS)
    moves = steps[:, None, None] * offsets
    moves.flags.writeable = False
    return moves


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
        if self.s0 > self.budget:
            raise ValueError(
                f"s0 = {self.s0} exceeds budget = {self.budget}")


def maximize_acquisition(state: gp.GPPosterior, sampler: HaltonSampler,
                         best_so_far: float) -> np.ndarray:
    """Approximate argmax of EI over the unit cube.

    Scores a quasi-random candidate set, then refines the best few by
    coordinate-wise search with a geometrically shrinking step.  A winner
    on an observed point is kept: gp.fit takes coincident points.
    """
    n = state.points.shape[1]
    cand = sampler.draw(N_CANDIDATES)
    mean, var = state.posterior(cand)
    scores = expected_improvement(mean, var, best_so_far)

    # the REFINE_TOP best, ties by descending index at every SIMD level
    k = len(scores) - REFINE_TOP
    top = np.flatnonzero(scores >= np.partition(scores, k)[k])
    top = top[np.argsort(scores[top], kind="stable")[::-1][:REFINE_TOP]]
    # refine all kept candidates together, one posterior call per shrinking
    # step; each moves to its first best probe on strict improvement only.
    # The posterior's moments are finite and its variance is clamped at 0,
    # so the probes' EI needs none of expected_improvement's checks.
    points, score, rows = cand[top], scores[top], np.arange(len(top))
    probes = np.empty((len(top), 2 * n, n))
    flat, base = probes.reshape(-1, n), points[:, None, :]   # views
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for move in _moves(n):                # move = step * offsets
            np.add(base, move, out=probes)
            np.maximum(probes, 0.0, out=probes)   # np.clip, without its
            np.minimum(probes, 1.0, out=probes)   # wrapper's overhead
            m, v = state.posterior(flat)
            s = _ei_core(m, v, best_so_far).reshape(len(top), -1)
            j = s.argmax(axis=1)
            best = s[rows, j]
            better = best > score
            np.copyto(score, best, where=better)
            np.copyto(points, probes[rows, j], where=better[:, None])
    return points[np.argmax(score)]   # first maximum, in top order


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
                nxt = maximize_acquisition(state, sampler,
                                           float(np.min(losses)))
        except SingularKernel as exc:
            fallbacks += 1
            log.warning("surrogate fit failed (%s); falling back to a "
                        "uniform random point", exc)
            nxt = rng.uniform(size=box.n)
        evaluate(nxt)

    return evaluate.result(s0=config.s0, surrogate_fallbacks=fallbacks)
