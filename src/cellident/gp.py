"""Gaussian-process surrogate with a fixed squared-exponential kernel.

The kernel is k(x, x') = exp(-||x - x'||^2 / 2) on normalized (unit-cube)
coordinates: unit lengthscale, unit prior variance, zero prior mean.  To
make that fixed prior usable on raw losses (which are many orders of
magnitude away from O(1)), observed values are standardized internally to
zero mean and unit scale, and posterior moments are mapped back on output;
the switch is exposed for tests that want the raw prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular

from .errors import DuplicatePoint, SingularKernel

JITTER_LADDER = (1e-8, 1e-6, 1e-4)
DUPLICATE_TOL = 1e-10


def se_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix exp(-||a_i - b_j||^2/2), shape (len(a), len(b))."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    # squared distances via the expansion ||a||^2 + ||b||^2 - 2 a.b
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-0.5 * sq)


@dataclass(frozen=True)
class GPPosterior:
    """Immutable fitted state: training set, Cholesky factor, scaling."""

    points: np.ndarray        # (s, d) inputs, normalized coordinates
    values_std: np.ndarray    # (s,) standardized observed values
    chol: np.ndarray          # lower-triangular L with L L^T = K + jitter I
    alpha: np.ndarray         # (K + jitter I)^{-1} values_std
    mean_shift: float         # standardization offset
    scale: float              # standardization scale (1 when disabled)
    jitter: float             # jitter actually used

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def posterior(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (mean, variance) at one point (d,) or a batch (m, d).

        Variance is clamped to [0, inf) before de-standardization.
        """
        theta = np.asarray(theta, dtype=float)
        single = theta.ndim == 1
        query = np.atleast_2d(theta)
        k_star = se_kernel(self.points, query)          # (s, m)
        mean_std = k_star.T @ self.alpha                # (m,)
        v = solve_triangular(self.chol, k_star, lower=True, check_finite=False)
        var_std = 1.0 - np.sum(v * v, axis=0)
        np.maximum(var_std, 0.0, out=var_std)
        mean = mean_std * self.scale + self.mean_shift
        var = var_std * self.scale ** 2
        if single:
            return float(mean[0]), float(var[0])
        return mean, var


def fit(points, values, jitter: float = JITTER_LADDER[0],
        standardize: bool = True) -> GPPosterior:
    """Factorize K + jitter I and cache everything posterior queries need.

    The jitter escalates through JITTER_LADDER on factorization failure;
    SingularKernel is raised only when the whole ladder fails.  Two inputs
    closer than DUPLICATE_TOL raise DuplicatePoint.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float).ravel()
    if points.shape[0] != values.size:
        raise ValueError(
            f"{points.shape[0]} points but {values.size} values")
    if points.shape[0] < 1:
        raise ValueError("need at least one observation")
    if jitter < 0.0:
        raise ValueError(f"jitter must be non-negative, got {jitter}")

    if points.shape[0] > 1:
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        np.fill_diagonal(dist, np.inf)
        closest = np.min(dist)
        if closest < DUPLICATE_TOL:
            i, j = np.unravel_index(np.argmin(dist), dist.shape)
            raise DuplicatePoint(
                f"observations {i} and {j} coincide within {DUPLICATE_TOL:g} "
                f"(distance {closest:g})")

    if standardize:
        mean_shift = float(np.mean(values))
        scale = float(np.std(values))
        if scale <= 0.0 or not np.isfinite(scale):
            scale = 1.0
    else:
        mean_shift = 0.0
        scale = 1.0
    values_std = (values - mean_shift) / scale

    gram = se_kernel(points, points)
    ladder = [jitter] + [j for j in JITTER_LADDER if j > jitter]
    chol = None
    used = None
    for jit in ladder:
        try:
            chol = cholesky(gram + jit * np.eye(len(values)), lower=True)
            used = jit
            break
        except LinAlgError:
            continue
    if chol is None:
        raise SingularKernel(
            f"kernel matrix is singular even at jitter {ladder[-1]:g} "
            f"({len(values)} points)")

    rhs = solve_triangular(chol, values_std, lower=True)
    alpha = solve_triangular(chol.T, rhs, lower=False)
    return GPPosterior(points=points, values_std=values_std, chol=chol,
                       alpha=alpha, mean_shift=mean_shift, scale=scale,
                       jitter=used)
