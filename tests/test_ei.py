"""Closed-form expected improvement against pinned values and Monte Carlo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from cellident.bayesopt import expected_improvement

PHI_AT_ZERO = 0.3989422804014327   # standard normal density at 0


def masked_ei(mean, variance, best_so_far):
    """EI on the sigma > 0 entries only, gathered and scattered back by a
    boolean mask: the form the whole-array computation must match."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    sigma = np.sqrt(np.maximum(np.atleast_1d(variance), 0.0))
    diff = best_so_far - mean
    out = np.maximum(diff, 0.0)
    pos = sigma > 0.0
    if np.any(pos):
        z = diff[pos] / sigma[pos]
        with np.errstate(over="ignore"):
            pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        out[pos] = diff[pos] * ndtr(z) + sigma[pos] * pdf
    return np.maximum(out, 0.0)


class TestClosedForm:
    def test_pinned_value_at_zero_gap(self):
        # mean == best, unit variance: EI = sigma * phi(0)
        assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(
            PHI_AT_ZERO, abs=1e-12)

    def test_pinned_value_at_unit_gap(self):
        # diff = 1, sigma = 1: EI = Phi(1) + phi(1)
        assert expected_improvement(-1.0, 1.0, 0.0) == pytest.approx(
            1.0833154705876864, abs=1e-12)

    def test_scales_with_sigma(self):
        assert expected_improvement(0.0, 4.0, 0.0) == pytest.approx(
            2.0 * PHI_AT_ZERO, abs=1e-12)

    def test_zero_variance_degenerates_to_hinge(self):
        assert expected_improvement(1.0, 0.0, 3.0) == 2.0
        assert expected_improvement(5.0, 0.0, 3.0) == 0.0

    def test_vector_and_scalar_interfaces(self):
        means = np.array([0.0, 1.0, 2.0])
        out = expected_improvement(means, np.ones(3), 1.0)
        assert out.shape == (3,)
        assert out[0] > out[1] > out[2]
        assert isinstance(expected_improvement(0.0, 1.0, 1.0), float)

    def test_non_negative_everywhere(self):
        means = np.linspace(-5, 5, 41)
        out = expected_improvement(means, np.full(41, 0.3), 0.0)
        assert np.all(out >= 0.0)

    @settings(max_examples=100, deadline=None)
    @given(mean=st.floats(-10, 10), var=st.floats(0, 25),
           best=st.floats(-10, 10))
    def test_dominates_zero_variance_bound(self, mean, var, best):
        """EI is never below the deterministic improvement max(0, best-mean)."""
        ei = expected_improvement(mean, var, best)
        assert ei >= max(0.0, best - mean) - 1e-12

    def test_monotone_in_mean_and_variance(self):
        assert (expected_improvement(0.0, 1.0, 0.0)
                > expected_improvement(0.5, 1.0, 0.0))
        assert (expected_improvement(1.0, 4.0, 0.0)
                > expected_improvement(1.0, 1.0, 0.0))


class TestMaskedForm:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("zero_share", [0.0, 0.3])
    def test_bytes_equal_the_masked_form(self, seed, zero_share):
        """Means and variances over many scales, some variances so small
        that z*z overflows, and with zero_share > 0 some exactly 0 or tiny
        negative (the sigma = 0 hinge)."""
        rng = np.random.default_rng(seed)
        m = 2048
        mean = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3, size=m)
        var = 10.0 ** rng.uniform(-20, 2, size=m)
        var[:2] = [1e-310, 5e-324]
        if zero_share:
            var[rng.uniform(size=m) < zero_share] = 0.0
            var[2] = -1e-13
        for best in (0.1, 0.09):
            got = expected_improvement(mean, var, best)
            assert got.tobytes() == masked_ei(mean, var, best).tobytes()


def expression_ei(mean, variance, best_so_far):
    """EI as whole-array expressions with an np.where at sigma = 0: the
    form the in-place computation must match bit for bit."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    sigma = np.sqrt(np.maximum(np.atleast_1d(variance), 0.0))
    diff = best_so_far - mean
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = diff / sigma
        out = diff * ndtr(z) + sigma * (np.exp(-0.5 * z * z)
                                        / np.sqrt(2.0 * np.pi))
    out = np.where(sigma == 0.0, np.maximum(diff, 0.0), out)
    return np.maximum(out, 0.0)


class TestExpressionOracle:
    """The in-place EI keeps the bytes of expression_ei at the edges."""

    _VARIANCES = [0.0, -0.0, -1e-13, -1e-12, 5e-324, 1e-310, 2.3e-308,
                  1e-300, 1e-20, 1.0]       # sigma = 0 and denormal sigma

    @pytest.mark.parametrize("shift", [0.0, 0.01])
    @pytest.mark.parametrize("variance", _VARIANCES)
    def test_zero_and_denormal_sigma(self, variance, shift):
        """At the incumbents 0.1 and 0.09, with a mean equal to each."""
        best = 0.1 - shift
        mean = np.array([-1.0, 0.0, best, 0.1, 0.5, 1e-300, -1e-300])
        var = np.full(mean.shape, variance)
        got = expected_improvement(mean, var, best)
        assert got.tobytes() == expression_ei(mean, var, best).tobytes()
        for m in mean:                                  # 0-d inputs
            one = expected_improvement(np.float64(m), variance, best)
            assert type(one) is float
            assert (np.float64(one).tobytes()
                    == expression_ei(m, variance, best).tobytes())

    def test_mixed_array(self):
        mean = np.linspace(-1.0, 1.0, len(self._VARIANCES))
        var = np.array(self._VARIANCES)
        assert (expected_improvement(mean, var, 0.0).tobytes()
                == expression_ei(mean, var, 0.0).tobytes())

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_empty_input(self, shape):
        got = expected_improvement(np.zeros(shape), np.zeros(shape), 0.1)
        assert got.shape == shape and got.dtype == np.float64


class TestGuards:
    def test_negative_variance_below_tolerance(self):
        with pytest.raises(ValueError, match="below clamping tolerance"):
            expected_improvement(0.0, -1e-9, 1.0)

    def test_tiny_negative_variance_clamped(self):
        assert expected_improvement(0.0, -1e-13, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        """A NaN variance used to score as the sigma = 0 hinge (mean -2,
        best -1 gave EI 1.0), and a NaN mean or best as NaN, which argsort
        ranks first."""
        with pytest.raises(ValueError, match="finite"):
            expected_improvement(-2.0, bad, -1.0)
        with pytest.raises(ValueError, match="finite"):
            expected_improvement(bad, 1.0, -1.0)
        with pytest.raises(ValueError, match="finite"):
            expected_improvement(np.array([0.0, bad]), np.ones(2), 0.0)
        with pytest.raises(ValueError, match="finite"):
            expected_improvement(np.zeros(2), np.array([1.0, bad]), 0.0)
        with pytest.raises(ValueError, match="best_so_far"):
            expected_improvement(np.zeros(2), np.ones(2), bad)

    @pytest.mark.parametrize("mean_shape,var_shape", [
        ((3,), (1,)), ((3,), ()), ((), (2,)), ((2, 3), (6,))])
    def test_shape_mismatch_rejected(self, mean_shape, var_shape):
        with pytest.raises(ValueError) as info:
            expected_improvement(np.zeros(mean_shape), np.ones(var_shape), 0.0)
        assert str(mean_shape) in str(info.value)
        assert str(var_shape) in str(info.value)


class TestMonteCarlo:
    @pytest.mark.parametrize("mean,var,best,shift", [
        (0.0, 1.0, 0.0, 0.0),
        (-1.0, 0.25, 0.0, 0.0),
        (0.5, 4.0, 0.0, 0.0),
        (2.0, 1.0, 1.0, 0.1),
        (-0.3, 0.04, 0.0, 0.0),
    ])
    def test_matches_sampled_expectation(self, mean, var, best, shift):
        """The incumbent is best - shift."""
        rng = np.random.default_rng(12345)
        draws = rng.normal(mean, np.sqrt(var), size=200_000)
        improvements = np.maximum(best - shift - draws, 0.0)
        mc = improvements.mean()
        se = improvements.std(ddof=1) / np.sqrt(improvements.size)
        ei = expected_improvement(mean, var, best - shift)
        assert abs(ei - mc) <= 4.0 * se
