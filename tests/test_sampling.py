"""Rotated-Halton stream: determinism, statefulness, and spread."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellident.sampling import (
    _PRIMES,
    HaltonSampler,
    _consecutive_van_der_corput,
    _low_digit_sums,
)


class TestStream:
    def test_base2_sequence_under_rotation(self):
        """Removing the rotation leaves the classic radical-inverse values."""
        sampler = HaltonSampler(dim=1, seed=0)
        pts = sampler.draw(7)[:, 0]
        # index 0 is skipped, so the stream starts at 1/2
        expected = np.array([0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875])
        rotation = (pts[0] - expected[0]) % 1.0
        np.testing.assert_allclose((pts - rotation) % 1.0, expected, atol=1e-12)

    def test_stateful_batching(self):
        whole = HaltonSampler(dim=3, seed=5).draw(10)
        sampler = HaltonSampler(dim=3, seed=5)
        parts = np.vstack([sampler.draw(4), sampler.draw(6)])
        np.testing.assert_array_equal(parts, whole)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2000), dim=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_any_batch_layout_matches_one_draw(self, data, n, dim, seed):
        """Every split of an n-point draw into batches gives the same bytes."""
        cuts = data.draw(st.lists(st.integers(1, n - 1), unique=True,
                                  max_size=8) if n > 1 else st.just([]))
        edges = [0, *sorted(cuts), n]
        sampler = HaltonSampler(dim=dim, seed=seed)
        parts = np.vstack([sampler.draw(b - a) for a, b in zip(edges, edges[1:])])
        assert parts.tobytes() == HaltonSampler(dim, seed).draw(n).tobytes()

    @pytest.mark.parametrize("split,n", [
        (1023, 1030),   # draw indices run from 1: index 1023|1024, base 2
        (1024, 1030),   # a batch ending on 1024 = 2^10
        (242, 250),     # 242|243 = 3^5, base 3
        (243, 250),
        (124, 130),     # 124|125 = 5^3, base 5
        (1, 3),         # index 1|2, base 2's first carry
    ])
    def test_split_at_a_digit_count_boundary(self, split, n):
        """Each batch takes its digit count from its own largest index; a
        batch that ends just below or on b^k must match the one-shot draw."""
        sampler = HaltonSampler(dim=5, seed=8)
        parts = np.vstack([sampler.draw(split), sampler.draw(n - split)])
        assert parts.tobytes() == HaltonSampler(5, 8).draw(n).tobytes()

    def test_seed_determinism(self):
        a = HaltonSampler(dim=2, seed=11).draw(20)
        b = HaltonSampler(dim=2, seed=11).draw(20)
        c = HaltonSampler(dim=2, seed=12).draw(20)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_all_points_in_unit_cube(self):
        pts = HaltonSampler(dim=5, seed=3).draw(500)
        assert pts.shape == (500, 5)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)

    def test_dimension_limits(self):
        HaltonSampler(dim=25, seed=0)
        with pytest.raises(ValueError):
            HaltonSampler(dim=0, seed=0)
        with pytest.raises(ValueError):
            HaltonSampler(dim=26, seed=0)

    def test_draw_validation(self):
        with pytest.raises(ValueError):
            HaltonSampler(dim=1, seed=0).draw(0)


class TestSpread:
    def test_low_discrepancy_in_one_dimension(self):
        """Gaps of the base-2 stream stay near 1/n, far below random gaps."""
        pts = np.sort(HaltonSampler(dim=1, seed=9).draw(128)[:, 0])
        gaps = np.diff(np.concatenate([pts, [pts[0] + 1.0]]))   # wrap around
        assert np.max(gaps) <= 2.5 / 128

    def test_dimensions_use_distinct_bases(self):
        pts = HaltonSampler(dim=2, seed=1).draw(64)
        # base-2 and base-3 streams never coincide after unrotation
        assert np.max(np.abs(np.diff(pts, axis=1))) > 0.01


def _reference_van_der_corput(indices, base):
    """The digit loop the package used before, kept as an exact reference."""
    work = np.asarray(indices, dtype=np.int64).copy()
    out = np.zeros(work.shape, dtype=float)
    denom = 1.0
    while np.any(work > 0):
        denom *= base
        out += (work % base) / denom
        work //= base
    return out


def at_indices(indices, base):
    """The package's radical inverse of each index in turn, as a run of one."""
    return np.array([_consecutive_van_der_corput(int(i), 1, base)[0]
                     for i in indices], dtype=float)


class TestRadicalInverseOracle:
    """The radical inverse must keep its exact bits: traces depend on them."""

    @pytest.mark.parametrize("base", _PRIMES)
    def test_matches_reference_up_to_3e5(self, base):
        idx = np.arange(300_001)
        assert (_consecutive_van_der_corput(0, idx.size, base).tobytes()
                == _reference_van_der_corput(idx, base).tobytes())

    @pytest.mark.parametrize("start", [1, 100_000, 200_000])
    def test_draws_match_reference(self, start):
        sampler = HaltonSampler(dim=25, seed=4)
        if start > 1:
            sampler.draw(start - 1)
        pts = sampler.draw(2048)
        idx = np.arange(start, start + 2048)
        ref = np.column_stack([
            (_reference_van_der_corput(idx, b) + sampler._rotation[j]) % 1.0
            for j, b in enumerate(_PRIMES)])
        assert pts.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("indices", [[], [0], [0, 0], [7, 0, 3]])
    def test_edge_inputs(self, indices):
        for base in (2, 3, 97):
            assert (at_indices(indices, base).tobytes()
                    == _reference_van_der_corput(indices, base).tobytes())

    @pytest.mark.parametrize("base", _PRIMES)
    def test_around_every_power_of_the_base(self, base):
        """b^k - 1, b^k and b^k + 1 alone (each sets its own digit count,
        on both sides of the cached low-digit table) and together."""
        powers = [base ** k for k in range(1, 62) if base ** k < 2 ** 62]
        around = [p + e for p in powers for e in (-1, 0, 1)]
        for i in around:
            assert (_consecutive_van_der_corput(i, 1, base).tobytes()
                    == _reference_van_der_corput([i], base).tobytes())
        assert (at_indices(around, base).tobytes()
                == _reference_van_der_corput(around, base).tobytes())

    def test_digit_tables_stay_small(self):
        """Each base's table is the largest power of the base up to 4096
        entries, read-only."""
        for base in _PRIMES:
            table = _low_digit_sums(base)
            k = round(math.log(len(table), base))
            assert table.size == base ** k <= 4096 < base ** (k + 1)
            assert not table.flags.writeable

    @pytest.mark.parametrize("base", _PRIMES)
    def test_indices_above_2_to_the_20(self, base):
        rng = np.random.default_rng(base)
        run = np.arange(2**20 - 3, 2**20 + 4096)
        assert (_consecutive_van_der_corput(2**20 - 3, run.size, base).tobytes()
                == _reference_van_der_corput(run, base).tobytes())
        idx = rng.integers(2**20, 2**62, size=500)
        assert (at_indices(idx, base).tobytes()
                == _reference_van_der_corput(idx, base).tobytes())


class TestConsecutiveRuns:
    """Draws add the digits above the low-digit table once per run of
    consecutive indices; runs meet at multiples of the table size (4096,
    2187, 3125, 2401, 1331, 2197 and 289 for the first seven bases)."""

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_draws_straddling_table_boundaries(self, dim):
        sizes = [len(_low_digit_sums(b)) for b in _PRIMES[:dim]]
        # each draw runs from just below a multiple of a table size to past
        # the next one, or the one after; draw indices start at 1
        edges = sorted({m * size - 3 for size in sizes for m in (1, 2, 45)})
        sampler = HaltonSampler(dim, seed=dim)
        parts, at = [], 0
        for edge in edges:
            if edge <= at:          # inside the last straddling draw
                continue
            parts.append(sampler.draw(edge - at))
            parts.append(sampler.draw(sizes[0] + 7))
            at = edge + sizes[0] + 7
        one_shot = HaltonSampler(dim, seed=dim).draw(at)
        assert np.vstack(parts).tobytes() == one_shot.tobytes()

    @pytest.mark.parametrize("base", _PRIMES[:7])
    def test_matches_the_digit_loop_on_single_indices(self, base):
        size = len(_low_digit_sums(base))
        for start in (1, size - 2, 2 * size - 1, 45 * size - 5,
                      base ** 6 * size - 4):
            n = size + 9
            got = _consecutive_van_der_corput(start, n, base)
            indices = np.arange(start, start + n)
            assert got.tobytes() == at_indices(indices, base).tobytes()
            assert got.tobytes() == _reference_van_der_corput(
                indices, base).tobytes()


class TestRotationWrap:
    """Subtracting 1 from the rotated values at or above 1 gives the bytes
    of (x + u) % 1.0, including sums that land exactly on 1."""

    @pytest.mark.parametrize("u", [0.0, 0.5, 0.25, 0.75, 1.0 - 2.0**-53,
                                   2.0**-53, 1.0 / 3.0, 0.6180339887498949])
    def test_matches_the_modulo(self, u):
        sampler = HaltonSampler(dim=25, seed=0)
        sampler._rotation = np.full(25, u)
        pts = sampler.draw(3000)
        idx = np.arange(1, 3001)
        ref = np.column_stack([(_reference_van_der_corput(idx, b) + u) % 1.0
                               for b in _PRIMES])
        assert pts.tobytes() == ref.tobytes()
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)

