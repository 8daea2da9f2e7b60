"""Bayesian-optimization loop: budget discipline, determinism, seeding."""

import numpy as np
import pytest

import cellident.bayesopt as bayesopt
import cellident.gp as gp
from cellident.bayesopt import (
    AcquisitionConfig,
    BoRunConfig,
    maximize_acquisition,
    run_bo,
)
from cellident.errors import SingularKernel
from cellident.gp import fit
from cellident.identify import ParameterBox
from cellident.runs import export_trace
from cellident.sampling import HaltonSampler


@pytest.fixture()
def cube():
    return ParameterBox(names=("a", "b", "c"), lower=np.zeros(3),
                        upper=np.ones(3))


def sphere(u):
    return float(np.sum((np.asarray(u) - np.array([0.3, 0.6, 0.2])) ** 2))


class TestConfig:
    def test_validation(self, cube):
        with pytest.raises(ValueError):
            BoRunConfig(box=cube, budget=5, seed=0, s0=6)
        with pytest.raises(ValueError):
            BoRunConfig(box=cube, budget=0, seed=0)
        with pytest.raises(ValueError):
            BoRunConfig(box=cube, budget=5, seed=0, s0=0)
        with pytest.raises(ValueError):
            AcquisitionConfig(step_init=0.01, step_final=0.05)
        with pytest.raises(ValueError):
            AcquisitionConfig(xi=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("refine_top", 0), ("refine_top", -1), ("refine_steps", -1)])
    def test_rejects_refinement_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            AcquisitionConfig(**{field: value})


class TestBudget:
    @pytest.mark.parametrize("budget,s0", [(1, 1), (5, 5), (10, 10), (23, 10)])
    def test_exact_consumption(self, cube, budget, s0, counted):
        counter = counted(sphere)
        result = run_bo(counter, BoRunConfig(box=cube, budget=budget,
                                             seed=3, s0=s0))
        assert counter.count == budget
        assert result.evaluations_used == budget
        assert len(result.trace) == budget

    def test_best_is_minimum_of_trace(self, cube):
        result = run_bo(sphere, BoRunConfig(box=cube, budget=20, seed=1))
        losses = [loss for _, _, loss in result.trace]
        assert result.best_loss == min(losses)
        best_idx = losses.index(result.best_loss)
        np.testing.assert_array_equal(result.best_theta,
                                      result.trace[best_idx][1])

    def test_cumulative_best_non_increasing(self, cube):
        result = run_bo(sphere, BoRunConfig(box=cube, budget=25, seed=7))
        cum = result.cumulative_best()
        assert np.all(np.diff(cum) <= 0.0)
        assert cum[-1] == result.best_loss


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, cube):
        r1 = run_bo(sphere, BoRunConfig(box=cube, budget=30, seed=42))
        r2 = run_bo(sphere, BoRunConfig(box=cube, budget=30, seed=42))
        assert len(r1.trace) == len(r2.trace)
        for (i1, t1, l1), (i2, t2, l2) in zip(r1.trace, r2.trace):
            assert i1 == i2 and l1 == l2
            np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(r1.best_theta, r2.best_theta)

    def test_different_seeds_differ(self, cube):
        r1 = run_bo(sphere, BoRunConfig(box=cube, budget=15, seed=0))
        r2 = run_bo(sphere, BoRunConfig(box=cube, budget=15, seed=1))
        losses1 = [loss for _, _, loss in r1.trace]
        losses2 = [loss for _, _, loss in r2.trace]
        assert losses1 != losses2

    def test_seed_sequence_accepted(self, cube):
        child = np.random.SeedSequence(5).spawn(1)[0]
        result = run_bo(sphere, BoRunConfig(box=cube, budget=12, seed=child))
        assert result.evaluations_used == 12

    def test_initial_design_is_the_seeded_halton_stream(self, cube):
        """The first s0 evaluations are the rotated Halton design, pinned
        to the documented child-seed derivation."""
        seed = 99
        result = run_bo(sphere, BoRunConfig(box=cube, budget=10, seed=seed))
        halton_child, _ = np.random.SeedSequence(seed).spawn(2)
        expected = HaltonSampler(3, halton_child).draw(10)
        for k in range(10):
            np.testing.assert_allclose(result.trace[k][1],
                                       cube.denormalize(expected[k]),
                                       atol=1e-12)


class TestNotesAndFallback:
    def test_notes_on_healthy_run(self, cube):
        result = run_bo(sphere, BoRunConfig(box=cube, budget=15, seed=2))
        assert result.notes["s0"] == 10
        assert result.notes["surrogate_fallbacks"] == 0
        assert result.method == "bo"
        assert result.wall_time_s > 0.0

    def test_singular_surrogate_falls_back_to_random(self, cube, monkeypatch,
                                                     counted):
        def broken_fit(*args, **kwargs):
            raise SingularKernel("forced")

        monkeypatch.setattr(bayesopt.gp, "fit", broken_fit)
        counter = counted(sphere)
        result = run_bo(counter, BoRunConfig(box=cube, budget=18, seed=4, s0=6))
        assert counter.count == 18
        assert result.notes["surrogate_fallbacks"] == 12


class TestAcquisition:
    def test_proposal_in_cube_and_distinct(self, cube, rng):
        points = rng.uniform(size=(12, 3))
        values = np.array([sphere(p) for p in points])
        state = fit(points, values)
        sampler = HaltonSampler(3, 0)
        proposal = maximize_acquisition(state, cube, AcquisitionConfig(),
                                        rng, sampler, float(values.min()))
        assert proposal.shape == (3,)
        assert np.all(proposal >= 0.0) and np.all(proposal <= 1.0)
        dist = np.sqrt(np.sum((points - proposal) ** 2, axis=1))
        assert np.min(dist) >= 1e-9

    def test_refinement_improves_over_candidates(self, cube, rng):
        """The refined winner scores at least as high as every raw candidate."""
        points = rng.uniform(size=(15, 3))
        values = np.array([sphere(p) for p in points])
        state = fit(points, values)
        best = float(values.min())
        config = AcquisitionConfig(n_candidates=256)
        sampler_a = HaltonSampler(3, 7)
        cand = sampler_a.draw(config.n_candidates)
        mean, var = state.posterior(cand)
        raw_best = np.max(bayesopt.expected_improvement(mean, var, best))
        sampler_b = HaltonSampler(3, 7)
        proposal = maximize_acquisition(state, cube, config,
                                        np.random.default_rng(0), sampler_b,
                                        best)
        m, v = state.posterior(proposal)
        assert bayesopt.expected_improvement(float(m), float(v), best) \
            >= raw_best - 1e-12


def _reference_maximize_acquisition(state, box, config, rng, sampler,
                                    best_so_far):
    """The per-candidate refinement loop, one posterior call per probe set."""
    n = box.n
    cand = sampler.draw(config.n_candidates)
    mean, var = state.posterior(cand)
    scores = bayesopt.expected_improvement(mean, var, best_so_far, config.xi)

    top = np.argsort(scores)[::-1][:min(config.refine_top, len(scores))]
    steps = np.geomspace(config.step_init, config.step_final,
                         config.refine_steps)
    best_point = cand[top[0]].copy()
    best_score = float(scores[top[0]])

    eye = np.eye(n)
    for i in top:
        point = cand[i].copy()
        score = float(scores[i])
        for step in steps:
            probes = np.clip(
                np.vstack([point + step * eye, point - step * eye]), 0.0, 1.0)
            m, v = state.posterior(probes)
            s = bayesopt.expected_improvement(m, v, best_so_far, config.xi)
            j = int(np.argmax(s))
            if s[j] > score:
                score = float(s[j])
                point = probes[j]
        if score > best_score:
            best_score = score
            best_point = point

    for _ in range(16):
        dist = np.sqrt(np.sum((state.points - best_point) ** 2, axis=1))
        if np.min(dist) >= 1e-9:
            break
        best_point = np.clip(
            best_point + rng.uniform(-1e-6, 1e-6, size=n), 0.0, 1.0)
    return best_point


class _FixedSampler:
    """Returns the same candidate array on every draw (first k rows)."""

    def __init__(self, cand):
        self.cand = np.asarray(cand, dtype=float)

    def draw(self, k):
        return self.cand[:k].copy()


def _sphere_state(s, seed, center=(0.3, 0.6, 0.2)):
    points = np.random.default_rng(seed).uniform(size=(s, 3))
    values = np.sum((points - np.asarray(center)) ** 2, axis=1)
    return fit(points, values), float(values.min())


def _both(state, cube, config, best, make_sampler, seed=0):
    """Proposals of the batched and the reference search from equal inputs."""
    got = maximize_acquisition(state, cube, config,
                               np.random.default_rng(seed), make_sampler(),
                               best)
    want = _reference_maximize_acquisition(state, cube, config,
                                           np.random.default_rng(seed),
                                           make_sampler(), best)
    return got, want


class TestBatchedRefinementOracle:
    """The batched refinement proposes exactly what the per-candidate loop
    proposes: same probes, same first-maximum tie-breaking, same nudge."""

    @pytest.mark.parametrize("s", [1, 10, 60])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference(self, cube, s, seed):
        state, best = _sphere_state(s, seed)
        got, want = _both(state, cube, AcquisitionConfig(), best,
                          lambda: HaltonSampler(3, seed))
        np.testing.assert_array_equal(got, want)

    def test_fewer_candidates_than_refine_top(self, cube):
        state, best = _sphere_state(10, 3)
        config = AcquisitionConfig(n_candidates=3, refine_top=5)
        got, want = _both(state, cube, config, best,
                          lambda: HaltonSampler(3, 3))
        np.testing.assert_array_equal(got, want)

    def test_clipped_probes_on_cube_faces(self, cube):
        """Low losses in a corner favour candidates on the cube faces, so
        probes stepping off those faces are clipped back into the cube."""
        state, best = _sphere_state(15, 4, center=(0.0, 1.0, 0.0))
        face = HaltonSampler(3, 4).draw(256)
        face[::2, 0] = 0.0
        face[1::2, 1] = 1.0
        face[::3, 2] = 0.0
        config = AcquisitionConfig(n_candidates=256)
        got, want = _both(state, cube, config, best,
                          lambda: _FixedSampler(face))
        np.testing.assert_array_equal(got, want)
        assert np.any((got == 0.0) | (got == 1.0))

    def test_positive_xi(self, cube):
        state, best = _sphere_state(20, 5)
        got, want = _both(state, cube, AcquisitionConfig(xi=0.01), best,
                          lambda: HaltonSampler(3, 5))
        np.testing.assert_array_equal(got, want)

    def test_no_refinement_steps(self, cube):
        state, best = _sphere_state(20, 6)
        got, want = _both(state, cube, AcquisitionConfig(refine_steps=0),
                          best, lambda: HaltonSampler(3, 6))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("standardize,value,best,cand,steps", [
        # every probe ties; the first best one (+x) wins
        (True, 3.0, 3.0, [[0.5, 0.5, 0.5]], 1),
        # the best probe only ties the candidate, which must not move
        (False, -1.0, -0.5, [[0.25, 0.5, 0.5]], 1),
        # two candidates tie; the first in score order wins
        (True, 3.0, 3.0, [[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]], 0),
    ])
    def test_exact_ties(self, cube, standardize, value, best, cand, steps):
        """Dyadic points around one observation give bit-equal EI, so these
        cases pin the strict-improvement, first-maximum tie-breaking."""
        state = fit([[0.5, 0.5, 0.5]], [value], standardize=standardize)
        config = AcquisitionConfig(n_candidates=len(cand), refine_steps=steps,
                                   step_init=0.5, step_final=0.5)
        got, want = _both(state, cube, config, best,
                          lambda: _FixedSampler(cand))
        np.testing.assert_array_equal(got, want)

    def test_duplicate_nudge(self, cube):
        """A winner on an observed point is nudged by the same RNG draws."""
        state, best = _sphere_state(10, 7)
        config = AcquisitionConfig(n_candidates=1, refine_steps=0)
        got, want = _both(state, cube, config, best,
                          lambda: _FixedSampler(state.points[:1]), seed=11)
        np.testing.assert_array_equal(got, want)
        assert np.min(np.linalg.norm(state.points - got, axis=1)) >= 1e-9


class TestInverseFactorProposals:
    """The cached-inverse variance rounds differently from the triangular
    solve, by far less than it takes to change a proposal."""

    @pytest.mark.parametrize("s", [10, 50, 99])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_proposal_as_the_triangular_solve(
            self, cube, monkeypatch, bo_like_data, solve_posterior, s, seed):
        points, values = bo_like_data(s, seed)
        state = fit(points, values)
        best = float(values.min())

        def propose():
            return maximize_acquisition(state, cube, AcquisitionConfig(),
                                        np.random.default_rng(seed),
                                        HaltonSampler(3, seed), best)

        got = propose()
        monkeypatch.setattr(gp.GPPosterior, "posterior", solve_posterior)
        assert propose().tobytes() == got.tobytes()


class TestPosteriorCallCount:
    @pytest.mark.parametrize("refine_steps", [0, 1, 20])
    def test_one_posterior_call_per_step(self, cube, monkeypatch,
                                         refine_steps):
        calls = []
        original = gp.GPPosterior.posterior

        def counting(self, theta):
            calls.append(np.atleast_2d(theta).shape[0])
            return original(self, theta)

        monkeypatch.setattr(gp.GPPosterior, "posterior", counting)
        state, best = _sphere_state(12, 8)
        config = AcquisitionConfig(refine_steps=refine_steps)
        maximize_acquisition(state, cube, config, np.random.default_rng(0),
                             HaltonSampler(3, 8), best)
        assert len(calls) == 1 + refine_steps
        assert calls[1:] == [config.refine_top * 2 * cube.n] * refine_steps


class TestSphereBehavior:
    def test_bo_improves_beyond_its_initial_design(self, cube):
        """The model-guided phase should beat the best initial sample."""
        wins = 0
        for seed in range(5):
            result = run_bo(sphere, BoRunConfig(box=cube, budget=50, seed=seed))
            losses = [loss for _, _, loss in result.trace]
            if min(losses[10:]) < min(losses[:10]):
                wins += 1
        assert wins >= 4


class TestTraceExport:
    def test_csv_layout(self, cube, tmp_path):
        result = run_bo(sphere, BoRunConfig(box=cube, budget=12, seed=0))
        path = tmp_path / "trace.csv"
        export_trace(result, cube, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "eval_index,a,b,c,loss_V2,cum_best_V2"
        assert len(lines) == 13
        table = np.genfromtxt(path, delimiter=",", names=True)
        assert np.all(np.diff(table["cum_best_V2"]) <= 0.0)
        np.testing.assert_array_equal(table["eval_index"], np.arange(12))
