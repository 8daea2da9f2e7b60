"""Seeded low-discrepancy sampling on the unit cube.

Halton points (one prime base per dimension, index 0 skipped) with a seeded
Cranley-Patterson rotation: x_rot = (x + u) mod 1 for a fixed uniform draw u
per dimension.  Hand-rolled rather than delegated so the generated stream is
bit-stable across library versions — reproducibility of optimizer traces
depends on it.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
           53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_TABLE_MAX = 4096   # most entries in one base's table of low-digit sums


@cache
def _low_digit_sums(base: int) -> np.ndarray:
    """Radical inverse of every index below base**k, the largest power of
    base with at most _TABLE_MAX entries.

    Entries come from the radical inverse's digit loop, each index's digits
    added lowest first, so looking one up replaces the loop's first k steps
    without changing a bit.
    """
    k = 1
    while base ** (k + 1) <= _TABLE_MAX:
        k += 1
    table = np.zeros(base ** k)
    work = np.arange(base ** k, dtype=np.int64)
    denom = 1.0
    for _ in range(k):
        denom *= base
        work, digit = np.divmod(work, base)
        table += digit / denom
    table.flags.writeable = False
    return table


def _consecutive_van_der_corput(start: int, n: int, base: int) -> np.ndarray:
    """Radical inverse in the given base of the indices start, ...,
    start + n - 1: the sum over each index's digits, lowest first.

    Indices that share their digits above the low-digit table form runs of
    consecutive table entries.  Each run is a slice of the table plus, lowest
    first, those shared digits' terms as Python-float scalars, the same sums
    in the same order as the digit loop; a zero digit adds an exact 0 there
    and is skipped here.
    """
    table = _low_digit_sums(base)
    size = len(table)
    out = np.empty(n)
    at = 0
    while at < n:
        high, low = divmod(start + at, size)
        run = out[at:at + size - low]
        run[:] = table[low:low + len(run)]
        denom = float(size)
        while high:
            denom *= base
            high, digit = divmod(high, base)
            if digit:
                run += digit / denom
        at += len(run)
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
        start = self._count + 1                      # skip index 0
        self._count += n
        out = np.empty((n, self.dim))
        for j, b in enumerate(self._bases):
            col = _consecutive_van_der_corput(start, n, b)
            col += self._rotation[j]
            # (x + u) mod 1 on [0, 2): y - 1 is exact there, as fmod is
            np.subtract(col, 1.0, out=col, where=col >= 1.0)
            out[:, j] = col
        return out
