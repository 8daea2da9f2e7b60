"""Gaussian-process surrogate with a fixed squared-exponential kernel.

The kernel is k(x, x') = exp(-||x - x'||^2 / 2) on normalized (unit-cube)
coordinates: unit lengthscale, unit prior variance, zero prior mean.  To
make that fixed prior usable on raw losses (which are many orders of
magnitude away from O(1)), observed values are standardized internally to
zero mean and unit scale, and posterior moments are mapped back on output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.linalg.lapack import dtrtri
from scipy.spatial.distance import pdist

from .errors import DimensionMismatch, DuplicatePoint, SingularKernel

JITTER_LADDER = (1e-8, 1e-6, 1e-4)
DUPLICATE_TOL = 1e-10


def se_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix exp(-||a_i - b_j||^2/2), shape (len(a), len(b))."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return _kernel(a, _sq_norms(a), b, _sq_norms(b))


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Row norms ||a_i||^2: np.sum's reduction, without its wrapper."""
    return np.add.reduce(a * a, axis=1)


def _kernel(a, a_sq, b, b_sq) -> np.ndarray:
    """se_kernel of 2-D float arrays whose row norms are a_sq and b_sq."""
    # squared distances via the expansion ||a||^2 + ||b||^2 - 2 a.b, computed
    # in place: the only (len(a), len(b)) arrays are a.b and the result
    ab = a @ b.T
    ab *= 2.0
    sq = np.add.outer(a_sq, b_sq)
    sq -= ab
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    return np.exp(sq, out=sq)


@dataclass(frozen=True)
class GPPosterior:
    """Immutable fitted state: training set, Cholesky factor, scaling."""

    points: np.ndarray        # (s, d) inputs, normalized coordinates
    sq_norms: np.ndarray      # (s,) squared row norms of points
    chol: np.ndarray          # lower-triangular L with L L^T = K + jitter I
    chol_inv: np.ndarray      # L^{-1}, lower-triangular
    alpha: np.ndarray         # (K + jitter I)^{-1} standardized values
    mean_shift: float         # standardization offset
    scale: float              # standardization scale (1 for constant values)
    jitter: float             # jitter actually used

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def posterior(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (mean, variance) at one point (d,) or a batch (m, d).

        Variance is clamped to [0, inf) before de-standardization.  It is
        1 - ||L^{-1} k*||^2, one matrix product against the inverse factor
        that fit cached.  The kernel reuses the training points' cached
        squared norms; every result is computed in place.
        """
        theta = np.asarray(theta, dtype=float)
        single = theta.ndim == 1
        query = np.atleast_2d(theta)
        if query.ndim > 2 or query.shape[1] != self.points.shape[1]:
            raise DimensionMismatch(
                f"query of shape {theta.shape} against training points of "
                f"shape {self.points.shape}")
        k_star = _kernel(self.points, self.sq_norms, query,
                         _sq_norms(query))              # (s, m)
        mean = k_star.T @ self.alpha                    # (m,)
        v = self.chol_inv @ k_star
        v *= v
        var = np.add.reduce(v, axis=0)
        np.subtract(1.0, var, out=var)
        np.maximum(var, 0.0, out=var)
        mean *= self.scale
        mean += self.mean_shift
        var *= self.scale ** 2
        if single:
            return float(mean[0]), float(var[0])
        return mean, var


def fit(points, values) -> GPPosterior:
    """Factorize K + jitter I and cache everything posterior queries need.

    The jitter starts at JITTER_LADDER[0] and escalates through the ladder
    on factorization failure; SingularKernel is raised only when the whole
    ladder fails.  Two inputs closer than DUPLICATE_TOL raise
    DuplicatePoint; a non-finite point or value raises ValueError.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float).ravel()
    if points.shape[0] != values.size:
        raise ValueError(
            f"{points.shape[0]} points but {values.size} values")
    if points.shape[0] < 1:
        raise ValueError("need at least one observation")
    if not (np.isfinite(points).all() and np.isfinite(values).all()):
        raise ValueError("points and values must be finite")

    if points.shape[0] > 1:
        # direct differences: the Gram expansion's squared distances carry
        # absolute errors far above DUPLICATE_TOL
        dist = pdist(points)                # pairs (i, j), i < j, row-major
        k = dist.argmin()
        if dist[k] < DUPLICATE_TOL:
            i, j = (ix[k] for ix in np.triu_indices(points.shape[0], 1))
            raise DuplicatePoint(
                f"observations {i} and {j} coincide within {DUPLICATE_TOL:g} "
                f"(distance {dist[k]:g})")

    mean_shift = float(np.mean(values))
    scale = float(np.std(values))
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    values_std = (values - mean_shift) / scale
    if not np.isfinite(values_std).all():
        raise ValueError("standardized values overflow")

    sq_norms = _sq_norms(points)
    gram = _kernel(points, sq_norms, points, sq_norms)
    diag = gram.diagonal().copy()
    for jitter in JITTER_LADDER:
        gram.flat[::len(values) + 1] = diag + jitter    # K + jitter I, in place
        try:
            chol = cholesky(gram, lower=True)
            break
        except LinAlgError:
            continue
    else:
        raise SingularKernel(
            f"kernel matrix is singular even at jitter {JITTER_LADDER[-1]:g} "
            f"({len(values)} points)")

    # cholesky checked the Gram matrix, so its factor is finite too
    rhs = solve_triangular(chol, values_std, lower=True, check_finite=False)
    alpha = solve_triangular(chol.T, rhs, lower=False)
    # the factor's diagonal is positive, so its inverse exists
    chol_inv, _ = dtrtri(chol, lower=1)
    return GPPosterior(points=points, sq_norms=sq_norms, chol=chol,
                       chol_inv=chol_inv, alpha=alpha, mean_shift=mean_shift,
                       scale=scale, jitter=jitter)
