"""Seeded low-discrepancy sampling on the unit cube.

Halton points (one prime base per dimension, index 0 skipped) with a seeded
Cranley-Patterson rotation: x_rot = (x + u) mod 1 for a fixed uniform draw u
per dimension.  Hand-rolled rather than delegated so the generated stream is
bit-stable across library versions — reproducibility of optimizer traces
depends on it.
"""

from __future__ import annotations

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
           53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _van_der_corput(indices: np.ndarray, base: int) -> np.ndarray:
    """Radical-inverse of each index in the given base."""
    work = np.asarray(indices, dtype=np.int64)
    out = np.zeros(work.shape, dtype=float)
    top = int(work.max()) if work.size else 0
    n_digits = 0
    while top > 0:                 # digits of the largest index
        top //= base
        n_digits += 1
    denom = 1.0
    for _ in range(n_digits):
        denom *= base
        work, digit = np.divmod(work, base)
        out += digit / denom
    return out


class HaltonSampler:
    """Stateful rotated-Halton stream over [0,1)^dim.

    The same (dim, seed) pair always yields the same stream regardless of
    how draws are batched.
    """

    def __init__(self, dim: int, seed):
        if dim < 1 or dim > len(_PRIMES):
            raise ValueError(f"dim must be in [1, {len(_PRIMES)}], got {dim}")
        self.dim = dim
        self._bases = _PRIMES[:dim]
        self._rotation = np.random.default_rng(seed).uniform(size=dim)
        self._count = 0

    def draw(self, n: int) -> np.ndarray:
        """Next n points, shape (n, dim)."""
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        idx = np.arange(self._count + 1, self._count + n + 1)  # skip index 0
        self._count += n
        cols = [(_van_der_corput(idx, b) + self._rotation[j]) % 1.0
                for j, b in enumerate(self._bases)]
        return np.column_stack(cols)


def halton_points(n: int, dim: int, seed) -> np.ndarray:
    """One-shot rotated Halton design, shape (n, dim)."""
    return HaltonSampler(dim, seed).draw(n)
