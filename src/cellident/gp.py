"""Gaussian-process surrogate with a fixed squared-exponential kernel.

The kernel is k(x, x') = exp(-||x - x'||^2 / 2) on normalized (unit-cube)
coordinates: unit lengthscale, unit prior variance, zero prior mean.  To
make that fixed prior usable on raw losses (which are many orders of
magnitude away from O(1)), observed values are standardized internally to
zero mean and unit scale, and posterior moments are mapped back on output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError   # the class scipy.linalg raises

from ._scipy_c import routine
from .errors import SingularKernel

JITTER_LADDER = (1e-8, 1e-6, 1e-4)


@functools.cache
def _lapack(name: str):
    """scipy's LAPACK routine ``name`` without importing scipy.linalg: the
    object scipy.linalg.lapack hands out, called with the arguments that
    scipy.linalg.cholesky and solve_triangular pass it.  Loaded at the
    first fit, so a process that fits no surrogate never maps scipy's
    LAPACK or the OpenBLAS it brings."""
    return routine("linalg", "_flapack", name, f"lapack.{name}")


def _check_finite(a: np.ndarray) -> None:
    """The check_finite of scipy.linalg, with its message."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def cholesky(a: np.ndarray, lower: bool) -> np.ndarray:
    """``scipy.linalg.cholesky(a, lower)`` of a square float64 array whose
    finiteness the caller has checked: POTRF on a copy, the other triangle
    zeroed."""
    factor, info = _lapack("dpotrf")(a, lower=lower, overwrite_a=0, clean=1)
    if info > 0:
        raise LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                         f"argument on entry to \"POTRF\".")
    return factor


def _solve_lower(chol: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """``L x = b`` (trans 0) or ``L^T x = b`` (trans 1) for a Fortran-ordered
    lower factor, by TRTRS as ``scipy.linalg.solve_triangular`` calls it."""
    x, info = _lapack("dtrtrs")(chol, b, lower=1, trans=trans)
    if info > 0:
        raise LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _neg_half_sq_norms(a: np.ndarray) -> np.ndarray:
    """-||a_i||^2/2: np.sum's reduction, without its wrapper, scaled."""
    out = np.add.reduce(a * a, axis=1)
    out *= -0.5
    return out


def _kernel(a, a_half, b, b_half) -> np.ndarray:
    """Gram matrix exp(-||a_i - b_j||^2/2), shape (len(a), len(b)), of 2-D
    float arrays with -||a_i||^2/2 in a_half and -||b_j||^2/2 in b_half.

    The exponent is (-||a||^2/2 - ||b||^2/2) + a.b.  Scaling by -1/2 and by
    2 is exact above the subnormal range, so this is the bits of
    -1/2 (||a||^2 + ||b||^2 - 2 a.b); an exponent that small exponentiates
    to 1.0 either way.  One that rounds above zero is clamped to 0, whose
    sign exp drops.
    """
    sq = np.add.outer(a_half, b_half)
    sq += a @ b.T
    np.minimum(sq, 0.0, out=sq)
    return np.exp(sq, out=sq)


@dataclass(frozen=True)
class GPPosterior:
    """Immutable fitted state: training set, inverse factor, scaling."""

    points: np.ndarray        # (s, d) inputs, normalized coordinates
    neg_half_sq_norms: np.ndarray  # (s,) -||points_i||^2 / 2
    chol_inv: np.ndarray      # L^{-1}, lower-triangular, L L^T = K + jitter I
    alpha: np.ndarray         # (K + jitter I)^{-1} standardized values
    mean_shift: float         # standardization offset
    scale: float              # standardization scale (1 for constant values)
    jitter: float             # jitter actually used

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def posterior(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (mean, variance) at a batch of points, shape (m, d).

        Variance is clamped to [0, inf) before de-standardization.  It is
        1 - ||L^{-1} k*||^2, one matrix product against the inverse factor
        that fit cached.  The kernel reuses the training points' cached
        halved norms; every result is computed in place.  A 2-D float
        array is used as it is; a query of any other shape raises
        ValueError.
        """
        query = np.asarray(theta, dtype=float)   # no copy of a float array
        if query.ndim != 2 or query.shape[1] != self.points.shape[1]:
            raise ValueError(
                f"query of shape {query.shape} against training points of "
                f"shape {self.points.shape}")
        k_star = _kernel(self.points, self.neg_half_sq_norms, query,
                         _neg_half_sq_norms(query))     # (s, m)
        mean = k_star.T @ self.alpha                    # (m,)
        v = self.chol_inv @ k_star
        v *= v
        var = np.add.reduce(v, axis=0)
        np.subtract(1.0, var, out=var)
        np.maximum(var, 0.0, out=var)
        mean *= self.scale
        mean += self.mean_shift
        var *= self.scale ** 2
        return mean, var


def fit(points, values) -> GPPosterior:
    """Factorize K + jitter I and cache everything posterior queries need.

    The jitter starts at JITTER_LADDER[0] and escalates through the ladder
    on factorization failure; SingularKernel is raised only when the whole
    ladder fails; the singular Gram matrix of coincident inputs is the
    ladder's to handle too.  A non-finite point or value raises ValueError,
    and so do finite points whose Gram matrix overflows to NaN.
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

    mean_shift = float(np.mean(values))
    scale = float(np.std(values))
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    values_std = (values - mean_shift) / scale
    if not np.isfinite(values_std).all():
        raise ValueError("standardized values overflow")

    neg_half_sq_norms = _neg_half_sq_norms(points)
    gram = _kernel(points, neg_half_sq_norms, points, neg_half_sq_norms)
    # finite points can still overflow the kernel's dot products to NaN;
    # a finite jitter on the diagonal keeps a finite Gram matrix finite
    _check_finite(gram)
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

    # the Gram matrix is finite, so its factor is finite too
    rhs = _solve_lower(chol, values_std, trans=0)
    _check_finite(rhs)
    alpha = _solve_lower(chol, rhs, trans=1)
    # the factor's diagonal is positive, so its inverse exists
    chol_inv, _ = _lapack("dtrtri")(chol, lower=1)
    return GPPosterior(points=points, neg_half_sq_norms=neg_half_sq_norms,
                       chol_inv=chol_inv, alpha=alpha, mean_shift=mean_shift,
                       scale=scale, jitter=jitter)
