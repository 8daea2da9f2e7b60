"""Gradient-descent and PSO baselines: budget discipline and mechanics."""

import numpy as np
import pytest

from cellident.baselines import (
    GD_PROBE,
    GD_STEP,
    PSO_SWARM,
    PSO_V_MAX,
    GdConfig,
    PsoConfig,
    gradient_descent,
    pso,
    random_search,
)
from cellident.identify import ParameterBox
from cellident.runs import export_trace


@pytest.fixture()
def cube2():
    return ParameterBox(names=("a", "b"), lower=np.zeros(2), upper=np.ones(2))


@pytest.fixture()
def cube3():
    return ParameterBox(names=("a", "b", "c"), lower=np.zeros(3),
                        upper=np.ones(3))


def bowl(u):
    return float(np.sum((np.asarray(u) - 0.3) ** 2))


class TestGradientDescent:
    def test_converges_on_a_bowl(self, cube2):
        result = gradient_descent(bowl, cube2, GdConfig(budget=60, seed=1))
        assert result.best_loss < 0.01
        unit_best = cube2.normalize(result.best_theta)
        assert np.all(np.abs(unit_best - 0.3) < 0.1)

    @pytest.mark.parametrize("budget", [4, 5, 7, 30])
    def test_budget_consumed_exactly(self, cube2, budget, counted):
        counter = counted(bowl)
        result = gradient_descent(counter, cube2,
                                  GdConfig(budget=budget, seed=2))
        assert counter.count == budget
        assert result.evaluations_used == budget

    def test_budget_below_one_iteration_rejected(self, cube2):
        with pytest.raises(ValueError, match="budget"):
            gradient_descent(bowl, cube2, GdConfig(budget=3, seed=0))

    def test_probe_direction_rule(self, cube2):
        """Forward-difference probes flip backward at the upper box edge.

        Seeds are scanned until one starts within GD_PROBE of the edge
        (about one in 1/GD_PROBE does)."""
        forward_seen = backward_seen = False
        for seed in range(20_000):
            seen = []

            def capture(u):
                seen.append(np.array(u, dtype=float))
                return bowl(u)

            gradient_descent(capture, cube2, GdConfig(budget=4, seed=seed))
            start, probe = seen[0], seen[1]
            if start[0] + GD_PROBE <= 1.0:
                expected = start + np.array([GD_PROBE, 0.0])
                forward_seen = True
            else:
                expected = start - np.array([GD_PROBE, 0.0])
                backward_seen = True
            np.testing.assert_allclose(probe, expected, atol=1e-12)
            if forward_seen and backward_seen:
                break
        assert forward_seen and backward_seen

    @pytest.mark.parametrize("seed", [0, 6, 13])
    def test_step_is_normalized_by_the_gradient_norm(self, cube3, seed):
        """Each step moves GD_STEP along the negative gradient over its
        norm, as np.linalg.norm gives it, rebuilt from the probes."""
        seen, losses = [], []

        def capture(u):
            seen.append(np.array(u, dtype=float))
            losses.append(float(np.sum((seen[-1] - [0.3, 0.8, 0.1]) ** 2)))
            return losses[-1]

        iterations = 6
        gradient_descent(capture, cube3,
                         GdConfig(budget=1 + 4 * iterations, seed=seed))
        for k in range(0, 4 * iterations, 4):
            theta, probes = seen[k], seen[k + 1:k + 4]
            grad = np.array([np.sign(probe[i] - theta[i])
                             * (losses[k + 1 + i] - losses[k]) / GD_PROBE
                             for i, probe in enumerate(probes)])
            expected = np.clip(theta - GD_STEP * grad / np.linalg.norm(grad),
                               0.0, 1.0)
            np.testing.assert_allclose(seen[k + 4], expected, rtol=1e-14)

    def test_zero_gradient_holds_position(self, cube2):
        """A flat objective gives zero gradient: the iterate never moves and
        no evaluation is wasted re-measuring the unchanged position."""
        config = GdConfig(budget=13, seed=3)
        seen = []

        def flat(u):
            seen.append(np.array(u, dtype=float))
            return 1.0

        result = gradient_descent(flat, cube2, config)
        assert result.evaluations_used == 13
        start = seen[0]
        # a step would land GD_STEP away; probes sit exactly GD_PROBE away
        stacked = np.vstack(seen)
        assert np.max(np.abs(stacked - start)) <= GD_PROBE + 1e-15
        # tie-break keeps the first point, i.e. the never-moved start
        np.testing.assert_array_equal(result.best_theta,
                                      cube2.denormalize(start))

    def test_iterates_stay_in_the_box(self, cube2):
        seen = []

        def pull_outside(u):
            seen.append(np.array(u, dtype=float))
            return float(np.sum((np.asarray(u) - 2.0) ** 2))

        result = gradient_descent(pull_outside, cube2,
                                  GdConfig(budget=100, seed=4))
        stacked = np.vstack(seen)
        assert np.all(stacked >= 0.0) and np.all(stacked <= 1.0)
        # the minimum over the box is the (1, 1) corner
        assert np.all(cube2.normalize(result.best_theta) > 0.9)

    def test_seeded_start_matches_generator(self, cube2):
        seen = []

        def capture(u):
            seen.append(np.array(u, dtype=float))
            return bowl(u)

        gradient_descent(capture, cube2, GdConfig(budget=4, seed=11))
        expected = np.random.default_rng(11).uniform(size=2)
        np.testing.assert_array_equal(seen[0], expected)


class TestPsoConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="budget"):
            PsoConfig(budget=PSO_SWARM - 1, seed=0)


class TestPso:
    def test_converges_on_a_bowl(self, cube3):
        result = pso(bowl, cube3, PsoConfig(budget=200, seed=1))
        assert result.best_loss < 0.01

    @pytest.mark.parametrize("budget", [10, 23, 40])
    def test_budget_exact_with_partial_generation(self, cube3, budget,
                                                  counted):
        counter = counted(bowl)
        result = pso(counter, cube3, PsoConfig(budget=budget, seed=5))
        assert counter.count == budget
        assert result.evaluations_used == budget

    def test_positions_stay_in_box_and_moves_are_clamped(self, cube2):
        config = PsoConfig(budget=40, seed=7)
        seen = []

        def capture(u):
            seen.append(np.array(u, dtype=float))
            return bowl(u)

        pso(capture, cube2, config)
        stacked = np.vstack(seen)
        assert np.all(stacked >= 0.0) and np.all(stacked <= 1.0)
        # particle-major order: particle i in generation g sits at g*m + i
        generations = stacked.reshape(-1, PSO_SWARM, 2)
        moves = np.abs(np.diff(generations, axis=0))
        assert np.max(moves) <= PSO_V_MAX + 1e-12

    def test_cumulative_best_non_increasing(self, cube3, tmp_path):
        """The trace file's cum_best_V2 column."""
        result = pso(bowl, cube3, PsoConfig(budget=60, seed=2))
        export_trace(result, cube3, tmp_path / "trace.csv")
        table = np.genfromtxt(tmp_path / "trace.csv", delimiter=",", names=True)
        assert np.all(np.diff(table["cum_best_V2"]) <= 0.0)

    def test_deterministic(self, cube3):
        r1 = pso(bowl, cube3, PsoConfig(budget=30, seed=9))
        r2 = pso(bowl, cube3, PsoConfig(budget=30, seed=9))
        np.testing.assert_array_equal(r1.best_theta, r2.best_theta)
        assert r1.best_loss == r2.best_loss


class TestRandomSearch:
    def test_budget_and_box(self, cube3, counted):
        counter = counted(bowl)
        result = random_search(counter, cube3, budget=17, seed=3)
        assert counter.count == 17
        assert result.evaluations_used == 17
        with pytest.raises(ValueError):
            random_search(bowl, cube3, budget=0, seed=0)

    def test_deterministic(self, cube3):
        r1 = random_search(bowl, cube3, budget=10, seed=8)
        r2 = random_search(bowl, cube3, budget=10, seed=8)
        np.testing.assert_array_equal(r1.best_theta, r2.best_theta)


class TestPairedSeeding:
    def test_first_draws_coincide_across_methods(self, cube3):
        """One shared seed pairs GD's start with PSO's first particle."""
        seed = 123
        gd_result = gradient_descent(bowl, cube3, GdConfig(budget=5, seed=seed))
        pso_result = pso(bowl, cube3, PsoConfig(budget=10, seed=seed))
        rs_result = random_search(bowl, cube3, budget=5, seed=seed)
        np.testing.assert_array_equal(gd_result.trace[0][1],
                                      pso_result.trace[0][1])
        np.testing.assert_array_equal(gd_result.trace[0][1],
                                      rs_result.trace[0][1])
