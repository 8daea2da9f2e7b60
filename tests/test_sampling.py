"""Rotated-Halton stream: determinism, statefulness, and spread."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellident.sampling import _PRIMES, HaltonSampler, _van_der_corput, halton_points


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
        whole = halton_points(10, dim=3, seed=5)
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
        assert parts.tobytes() == halton_points(n, dim, seed).tobytes()

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
        assert parts.tobytes() == halton_points(n, 5, 8).tobytes()

    def test_seed_determinism(self):
        a = halton_points(20, dim=2, seed=11)
        b = halton_points(20, dim=2, seed=11)
        c = halton_points(20, dim=2, seed=12)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_all_points_in_unit_cube(self):
        pts = halton_points(500, dim=5, seed=3)
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
        pts = np.sort(halton_points(128, dim=1, seed=9)[:, 0])
        gaps = np.diff(np.concatenate([pts, [pts[0] + 1.0]]))   # wrap around
        assert np.max(gaps) <= 2.5 / 128

    def test_dimensions_use_distinct_bases(self):
        pts = halton_points(64, dim=2, seed=1)
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


class TestRadicalInverseOracle:
    """The radical inverse must keep its exact bits: traces depend on them."""

    @pytest.mark.parametrize("base", _PRIMES)
    def test_matches_reference_up_to_3e5(self, base):
        idx = np.arange(300_001)
        assert (_van_der_corput(idx, base).tobytes()
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
            assert (_van_der_corput(indices, base).tobytes()
                    == _reference_van_der_corput(indices, base).tobytes())
