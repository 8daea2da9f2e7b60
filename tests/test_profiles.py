"""The current profile container plus the two excitation builders."""

import numpy as np
import pytest

from cellident.errors import DataError
from cellident.profiles import (
    NOISE_BASE_PERIOD_S,
    CurrentProfile,
    noise_cycle_profile,
    staircase_profile,
)


class TestCurrentProfile:
    def test_shape_and_time_grid(self):
        profile = CurrentProfile(dt=0.5, current=np.array([1.0, 2.0, 3.0]))
        assert profile.n == 3
        np.testing.assert_allclose(profile.t, [0.0, 0.5, 1.0])
        assert profile.dt * (profile.n - 1) == 1.0

    def test_dt_must_be_positive(self):
        with pytest.raises(DataError, match="dt must be positive, got 0.0"):
            CurrentProfile(dt=0.0, current=np.array([1.0]))

    def test_current_must_be_finite_1d(self):
        with pytest.raises(DataError):
            CurrentProfile(dt=1.0, current=np.array([[1.0, 2.0]]))
        with pytest.raises(DataError):
            CurrentProfile(dt=1.0, current=np.array([]))
        with pytest.raises(DataError):
            CurrentProfile(dt=1.0, current=np.array([1.0, np.inf]))

    def test_refine_is_zero_order_hold(self):
        profile = CurrentProfile(dt=1.0, current=np.array([1.0, -2.0, 3.0]))
        fine = profile.refine(3)
        assert fine.dt == pytest.approx(1.0 / 3.0)
        np.testing.assert_array_equal(
            fine.current, [1.0, 1.0, 1.0, -2.0, -2.0, -2.0, 3.0])
        # same continuous-time duration, finer grid
        assert fine.dt * (fine.n - 1) == pytest.approx(
            profile.dt * (profile.n - 1))

    def test_refine_identity_and_validation(self):
        profile = CurrentProfile(dt=1.0, current=np.array([1.0, 2.0]))
        assert profile.refine(1) is profile
        with pytest.raises(ValueError):
            profile.refine(0)
        with pytest.raises(ValueError):
            profile.refine(1.5)


class TestStaircase:
    def test_grid(self):
        profile = staircase_profile(2.0, dt=1.0, duration=3600.0)
        assert profile.n == 3601
        assert profile.dt == 1.0

    def test_opening_segments(self):
        i1c = 2.0
        profile = staircase_profile(i1c, dt=1.0, duration=3600.0)
        c = profile.current
        # 300 s unipolar sweep, then alternating pulse/rest pairs
        np.testing.assert_array_equal(c[0:300], i1c)
        np.testing.assert_array_equal(c[300:360], 0.2 * i1c)
        np.testing.assert_array_equal(c[360:420], 0.0)
        np.testing.assert_array_equal(c[420:480], -0.5 * i1c)
        np.testing.assert_array_equal(c[480:540], 0.0)
        np.testing.assert_array_equal(c[540:600], 1.0 * i1c)
        np.testing.assert_array_equal(c[660:720], -2.0 * i1c)
        # second sweep walks the state of charge back
        np.testing.assert_array_equal(c[780:1080], -i1c)

    def test_amplitude_alphabet(self):
        i1c = 3.0
        profile = staircase_profile(i1c, dt=1.0, duration=3600.0)
        levels = np.unique(profile.current) / i1c
        allowed = {-2.0, -1.0, -0.5, -0.2, 0.0, 0.2, 0.5, 1.0, 2.0}
        assert set(np.round(levels, 12)).issubset(allowed)
        assert np.max(np.abs(profile.current)) == pytest.approx(2.0 * i1c)

    def test_deterministic(self):
        a = staircase_profile(1.5, dt=1.0, duration=1800.0)
        b = staircase_profile(1.5, dt=1.0, duration=1800.0)
        np.testing.assert_array_equal(a.current, b.current)


class TestNoiseCycle:
    def test_peak_and_mean(self):
        i1c = 2.0
        profile = noise_cycle_profile(i1c, seed=7, dt=1.0, duration=1800.0)
        assert profile.n == 1801
        assert np.max(np.abs(profile.current)) == pytest.approx(2.0 * i1c)
        # base period is mean-removed before scaling
        assert abs(np.mean(profile.current[:300])) < 1e-9 * i1c

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_smoothing_matches_convolve(self, seed):
        """The zero-padded sum of nine shifted slices is the 9-tap moving
        average np.convolve gives in "same" mode."""
        i1c, dt = 2.0, 0.5
        n_base = int(round(NOISE_BASE_PERIOD_S / dt))
        profile = noise_cycle_profile(i1c, seed=seed, dt=dt, duration=600.0)
        raw = np.random.default_rng(seed).standard_normal(n_base)
        smooth = np.convolve(raw, np.ones(9) / 9.0, "same")
        smooth -= smooth.mean()
        smooth *= 2.0 * i1c / np.max(np.abs(smooth))
        np.testing.assert_allclose(profile.current[:n_base], smooth,
                                   rtol=1e-14)

    def test_tiling(self):
        profile = noise_cycle_profile(1.0, seed=3, dt=1.0, duration=1800.0)
        c = profile.current
        np.testing.assert_array_equal(c[:300], c[300:600])
        np.testing.assert_array_equal(c[:300], c[1500:1800])

    def test_seeding(self):
        a = noise_cycle_profile(1.0, seed=1, duration=600.0)
        b = noise_cycle_profile(1.0, seed=1, duration=600.0)
        c = noise_cycle_profile(1.0, seed=2, duration=600.0)
        np.testing.assert_array_equal(a.current, b.current)
        assert np.any(a.current != c.current)
