"""GP surrogate against a dense linear-algebra oracle."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cholesky, lapack, solve_triangular

import cellident.gp as gp
from cellident._blas import one_blas_thread
from cellident.errors import SingularKernel
from cellident.gp import JITTER_LADDER, fit
from cellident.sampling import HaltonSampler


def se_kernel(a, b):
    """The package's kernel of two 2-D arrays, norms computed here."""
    return gp._kernel(a, gp._neg_half_sq_norms(a), b, gp._neg_half_sq_norms(b))


def dense_oracle(points, values, queries, jitter):
    """Independent posterior via one dense solve (no Cholesky, no caching)."""
    points = np.atleast_2d(points)
    values = np.asarray(values, dtype=float)
    mu = float(np.mean(values))
    sd = float(np.std(values))
    if sd <= 0.0:
        sd = 1.0
    y = (values - mu) / sd
    K = np.exp(-0.5 * ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    K_inv = np.linalg.inv(K + jitter * np.eye(len(values)))
    k_star = np.exp(-0.5 * ((points[:, None, :] - queries[None, :, :]) ** 2).sum(-1))
    mean = k_star.T @ (K_inv @ y)
    var = 1.0 - np.einsum("ij,ik,kj->j", k_star, K_inv, k_star)
    return mean * sd + mu, np.maximum(var, 0.0) * sd**2


def expanded_kernel(a, b):
    """The kernel as one expression, the form the in-place one must match."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-0.5 * sq)


def inverse_factor_posterior(state, queries):
    """The posterior spelled out from the kernel and the cached L^{-1},
    recomputing the training points' norms on every call."""
    k_star = se_kernel(state.points, queries)
    mean_std = k_star.T @ state.alpha
    v = state.chol_inv @ k_star
    var_std = np.maximum(1.0 - np.sum(v * v, axis=0), 0.0)
    mean = mean_std * state.scale + state.mean_shift
    var = var_std * state.scale ** 2
    return mean, var


def rebuilt_factor(state):
    """The Cholesky factor fit used, rebuilt from the Gram matrix plus the
    jitter fit settled on."""
    gram = se_kernel(state.points, state.points)
    return cholesky(gram + state.jitter * np.eye(state.n_points), lower=True)


def public_fit(points, values):
    """fit's linear algebra through scipy.linalg's public functions:
    (chol_inv, alpha, jitter), or the exception the ladder ends in."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float)
    scale = float(np.std(values))
    if scale <= 0.0:
        scale = 1.0
    values_std = (values - float(np.mean(values))) / scale
    gram = se_kernel(points, points)
    diag = gram.diagonal().copy()
    for jitter in JITTER_LADDER:
        gram.flat[::len(values) + 1] = diag + jitter
        try:
            chol = cholesky(gram, lower=True)
            break
        except LinAlgError:
            continue
    else:
        return SingularKernel
    rhs = solve_triangular(chol, values_std, lower=True, check_finite=False)
    alpha = solve_triangular(chol.T, rhs, lower=False)
    chol_inv, _ = lapack.dtrtri(chol, lower=1)
    return chol_inv, alpha, jitter


def assert_fits_coincident(points, values, pairs):
    """fit takes ``points`` at the first jitter with finite factors, and
    the variance at both points of each coincident pair is below
    1e-6 scale^2."""
    state = fit(points, values)
    assert state.jitter == JITTER_LADDER[0]
    assert np.isfinite(state.chol_inv).all()
    assert np.isfinite(state.alpha).all()
    _, var = state.posterior(points[np.ravel(pairs)])
    assert np.all(var < 1e-6 * state.scale ** 2)


class TestKernel:
    def test_unit_diagonal_and_symmetry(self, rng):
        x = rng.uniform(size=(6, 3))
        K = se_kernel(x, x)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)
        np.testing.assert_allclose(K, K.T, atol=1e-15)

    def test_known_value(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])   # distance 5
        assert se_kernel(a, b)[0, 0] == pytest.approx(np.exp(-12.5), rel=1e-12)

    def test_shape(self, rng):
        K = se_kernel(rng.uniform(size=(4, 2)), rng.uniform(size=(7, 2)))
        assert K.shape == (4, 7)

    @pytest.mark.parametrize("seed", range(12))
    def test_bytes_equal_the_expanded_expression(self, seed):
        """Random shapes, with rows of b copied from a (distance 0, where
        the expansion can round below zero) and a one-row query; rows at the
        origin; exact duplicate rows; and coordinates near 1e-160, where
        ||x||^2 is subnormal and halving it is not exact, but exp of an
        exponent that small is 1.0 either way."""
        rng = np.random.default_rng(seed)
        s, m, d = rng.integers(1, 200), rng.integers(1, 3000), rng.integers(1, 6)
        a = rng.uniform(-2.0, 2.0, size=(s, d))
        b = rng.uniform(-2.0, 2.0, size=(m, d))
        b[rng.integers(0, m, size=min(s, m))] = a[:min(s, m)]
        origin = a.copy()
        origin[::2] = 0.0
        twice = np.repeat(a, 2, axis=0)
        tiny_a, tiny_b = 1e-160 * a, 1e-160 * b
        for x, y in ((a, b), (a, a), (a, b[:1]), (origin, b), (origin, origin),
                     (twice, b), (twice, twice), (tiny_a, tiny_b),
                     (tiny_a, tiny_a), (tiny_a, b)):
            assert se_kernel(x, y).tobytes() == expanded_kernel(x, y).tobytes()


class TestFitAgainstOracle:
    @pytest.mark.parametrize("spread", [True, False])
    def test_posterior_matches_dense_solve(self, rng, spread):
        """spread values standardize by their mean and std; constant ones
        fall back to unit scale.  Points spaced well apart keep the kernel
        matrix well conditioned at the first jitter, so two independent
        solvers (Cholesky here, dense inverse in the oracle) must agree to
        tight absolute tolerance; near-singular behavior is covered
        separately by the jitter-ladder tests."""
        grid = np.linspace(0.0, 1.0, 3)
        points = np.stack(np.meshgrid(grid, grid, grid), -1).reshape(-1, 3)
        points = points + rng.uniform(-0.05, 0.05, size=points.shape)
        values = 5.0 + (2.0 * np.sin(points.sum(axis=1) * 5.0) if spread
                        else np.zeros(len(points)))
        queries = rng.uniform(size=(120, 3))
        state = fit(points, values)
        assert state.jitter == JITTER_LADDER[0]
        assert (state.scale == 1.0) != spread
        mean, var = state.posterior(queries)
        oracle_mean, oracle_var = dense_oracle(points, values, queries,
                                               state.jitter)
        np.testing.assert_allclose(mean, oracle_mean, atol=1e-8)
        np.testing.assert_allclose(var, oracle_var, atol=1e-8)


class TestLeanPosteriorOracle:
    """posterior keeps every bit of the kernel plus inverse-factor formula."""

    @pytest.mark.parametrize("s", [1, 2, 40])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("spread", [True, False])
    def test_bytes_equal_the_formula(self, s, d, spread):
        """Spread values standardize by their mean and std; constant ones,
        and one value alone, fall back to unit scale."""
        rng = np.random.default_rng(10 * s + d)
        values = rng.normal(size=s) if spread else np.full(s, 7.5)
        state = fit(rng.uniform(size=(s, d)), values)
        queries = rng.uniform(size=(37, d))
        queries[:min(s, 37)] = state.points[:37]   # distance 0 to the data
        for theta in (queries, queries[:1], queries[3:4], queries[:0]):
            got = state.posterior(theta)
            ref = inverse_factor_posterior(state, theta)
            for x, y in zip(got, ref):
                assert x.shape == y.shape == (len(theta),)
                assert x.tobytes() == y.tobytes()


class TestDuplicateOracle:
    """Coincident observations need no check of their own: the jitter
    ladder's first rung factors a Gram matrix that holds them."""

    @pytest.mark.parametrize("s", [2, 10, 50, 99, 199])
    def test_exact_duplicate_in_a_halton_set(self, s):
        points = HaltonSampler(3, s).draw(s)
        points = np.vstack([points, points[s // 2]])
        values = np.sum((points - 0.3) ** 2, axis=1)
        assert_fits_coincident(points, values, [s // 2, s])

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_outcome_as_the_loop(self, factor, d, seed):
        """Pairs 1e-10 apart and less, and an exact tie, fit like any other
        points, in every order of the loop over orderings."""
        rng = np.random.default_rng(seed)
        points = rng.uniform(size=(12, d))
        gap = factor * 1e-10
        points[[0, 5, 7]] = 0.0             # gaps on the zero corner:
        points[5, 0] = 2.0 * gap            # (0, 7) and (5, 7) at gap,
        points[7, 0] = gap                  # (0, 5) at twice the gap
        points[4] = points[9]
        points[4, -1] += gap                # a rounded gap near the others
        for order in (list(range(12)), list(range(11, -1, -1)),
                      [3, 7, 9, 5, 4, 0]):
            pts = points[order]
            assert_fits_coincident(pts, rng.normal(size=len(pts)),
                                   [[order.index(i) for i in pair]
                                    for pair in ((0, 7), (5, 7), (4, 9))])


class TestPublicScipyPath:
    """fit calls scipy's LAPACK routines directly; every bit is the one
    scipy.linalg's cholesky, solve_triangular and lapack.dtrtri give."""

    @staticmethod
    def clustered(s, offset, seed):
        """s 1-D points drawn with repeats from s // 2 + 1 distinct ones,
        moved to ``offset``: far from the origin the kernel's expansion
        rounds, so the Gram matrix of coincident points needs more jitter."""
        rng = np.random.default_rng(seed)
        base = rng.uniform(size=(s // 2 + 1, 1))
        return offset + base[rng.integers(0, len(base), size=s)]

    @pytest.mark.parametrize("s", [1, 2, 10, 50, 99, 200])
    def test_bytes_equal_the_public_functions(self, s):
        rng = np.random.default_rng(s)
        queries = rng.uniform(size=(64, 3))
        point_sets = [HaltonSampler(3, s).draw(s), rng.uniform(size=(s, 1))]
        point_sets += [self.clustered(s, offset, s)
                       for offset in (0.0, 3e3, 1e4, 3e4, 1e5, 1e6)]
        jitters = set()
        for points in point_sets:
            values = rng.normal(size=s) * 10.0 ** rng.uniform(-3, 3)
            ref = public_fit(points, values)
            if ref is SingularKernel:
                with pytest.raises(SingularKernel):
                    fit(points, values)
                jitters.add(ref)
                continue
            state = fit(points, values)
            chol_inv, alpha, jitter = ref
            assert state.jitter == jitter
            assert state.chol_inv.tobytes() == chol_inv.tobytes()
            assert state.alpha.tobytes() == alpha.tobytes()
            want = dataclasses.replace(state, chol_inv=chol_inv, alpha=alpha)
            q = np.vstack([points[:8], queries[:, :points.shape[1]]])
            for x, y in zip(state.posterior(q), want.posterior(q)):
                assert x.tobytes() == y.tobytes()
            jitters.add(jitter)
        if s >= 50:   # the coincident sets climb the whole ladder
            assert jitters == {*JITTER_LADDER, SingularKernel}


class TestInverseFactor:
    """The variance comes from the cached L^{-1}; the mean path is as before."""

    def test_inverse_of_the_factor(self, bo_like_data):
        points, values = bo_like_data(50, 0)
        state = fit(points, values)
        assert np.all(np.triu(state.chol_inv, 1) == 0.0)
        np.testing.assert_allclose(state.chol_inv @ rebuilt_factor(state),
                                   np.eye(50),
                                   atol=1e-9)

    @pytest.mark.parametrize("s", [10, 50, 99, 199])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_triangular_solve(self, bo_like_data,
                                          solve_posterior, s, seed):
        """Mean bit for bit, variance within 1e-10 in standardized units, at
        the default jitter on clustered points, for uniform queries and for
        probes close to the observations."""
        points, values = bo_like_data(s, seed)
        state = fit(points, values)
        assert state.jitter == JITTER_LADDER[0]
        rng = np.random.default_rng(100 + seed)
        queries = np.vstack([
            rng.uniform(size=(2048, 3)),
            np.clip(points + 1e-3 * rng.normal(size=points.shape), 0.0, 1.0),
            points])
        mean, var = state.posterior(queries)
        ref_mean, ref_var = solve_posterior(state, queries)
        assert mean.tobytes() == ref_mean.tobytes()
        np.testing.assert_allclose(var / state.scale ** 2,
                                   ref_var / state.scale ** 2,
                                   rtol=0.0, atol=1e-10)


class TestBatchLayout:
    """A point's posterior bits do not depend on where it sits in its batch,
    nor on blocks of 256 columns or more, on one BLAS thread as BO scores
    them.  Narrow blocks do not keep this: OpenBLAS's edge kernels round
    differently, and 30-column blocks change bits at almost every s."""

    def test_permuted_and_blocked_batches_give_the_same_bits(self,
                                                             bo_like_data):
        broken = []
        for s in range(1, 200):
            state = fit(*bo_like_data(s, s))
            queries = HaltonSampler(3, s).draw(2048)
            perm = np.random.default_rng(s).permutation(2048)
            with one_blas_thread():
                mean, var = state.posterior(queries)
                layouts = {"permuted": [state.posterior(queries[perm])]}
                for width in (256, 512, 1024):
                    layouts[width] = [state.posterior(queries[i:i + width])
                                      for i in range(0, 2048, width)]
            for name, parts in layouts.items():
                got = [np.concatenate(column) for column in zip(*parts)]
                ref = ((mean[perm], var[perm]) if name == "permuted"
                       else (mean, var))
                if any(x.tobytes() != y.tobytes() for x, y in zip(got, ref)):
                    broken.append((s, name))
        assert broken == []


class TestPosteriorBehavior:
    def test_interpolates_training_data(self, rng):
        points = rng.uniform(size=(15, 3))
        values = 3.0 * points[:, 0] - points[:, 1]
        state = fit(points, values)
        mean, var = state.posterior(points)
        np.testing.assert_allclose(mean, values, atol=1e-3)
        assert np.all(var >= 0.0)
        assert np.max(var) < 1e-3 * state.scale**2

    def test_far_query_reverts_to_prior(self, rng):
        points = rng.uniform(size=(12, 2))
        values = 100.0 + rng.standard_normal(12)
        state = fit(points, values)
        (mean,), (var,) = state.posterior(np.array([[40.0, 40.0]]))
        # standardized prior mean 0 maps back to the value average
        assert mean == pytest.approx(np.mean(values), abs=1e-6)
        assert var == pytest.approx(state.scale**2, rel=1e-6)

    def test_variance_shrinks_near_data(self, rng):
        points = rng.uniform(size=(8, 2))
        state = fit(points, rng.standard_normal(8))
        _, v_near = state.posterior(points[:1] + 0.01)
        _, v_far = state.posterior(points[:1] + 3.0)
        assert v_near < v_far

    def test_permutation_invariance(self, rng):
        points = rng.uniform(size=(20, 3))
        values = rng.standard_normal(20)
        perm = rng.permutation(20)
        q = rng.uniform(size=(5, 3))
        m1, v1 = fit(points, values).posterior(q)
        m2, v2 = fit(points[perm], values[perm]).posterior(q)
        np.testing.assert_allclose(m1, m2, atol=1e-10)
        np.testing.assert_allclose(v1, v2, atol=1e-10)

    def test_constant_values_fall_back_to_unit_scale(self):
        points = np.array([[0.1, 0.1], [0.9, 0.9]])
        state = fit(points, np.array([5.0, 5.0]))
        assert state.scale == 1.0
        (mean,), _ = state.posterior(np.array([[0.5, 0.5]]))
        assert mean == pytest.approx(5.0, abs=1e-6)


class TestRobustness:
    def test_jitter_ladder_escalates(self, monkeypatch):
        """A factorization that fails once is retried at the next jitter,
        on the same Gram matrix with the larger jitter on its diagonal."""
        gram = []

        def fail_once(a, **kwargs):
            gram.append(a.copy())
            if len(gram) == 1:
                raise LinAlgError("forced failure")
            return cholesky(a, **kwargs)

        monkeypatch.setattr(gp, "cholesky", fail_once)
        points = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.1]])
        state = fit(points, np.array([1.0, 2.0, 3.0]))
        assert state.jitter == JITTER_LADDER[1]
        off_diagonal = ~np.eye(3, dtype=bool)
        assert np.array_equal(gram[1][off_diagonal], gram[0][off_diagonal])
        np.testing.assert_allclose(np.diag(gram[1]) - np.diag(gram[0]),
                                   JITTER_LADDER[1] - JITTER_LADDER[0],
                                   rtol=1e-9)
        chol = rebuilt_factor(state)
        np.testing.assert_allclose(chol @ chol.T, gram[1], atol=1e-15)

    def test_singular_kernel_when_every_jitter_fails(self, monkeypatch):
        def always_fail(*args, **kwargs):
            raise LinAlgError("forced failure")

        monkeypatch.setattr(gp, "cholesky", always_fail)
        with pytest.raises(SingularKernel, match="singular"):
            fit(np.array([[0.1], [0.9]]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("points", [[[1e200], [0.0]],
                                        [[1e200, 0.0], [0.0, 1e200]]])
    def test_gram_matrix_that_overflows_rejected(self, points):
        """Finite points whose kernel dot products overflow give a NaN
        Gram matrix, which no factorization is tried on."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="infs or NaNs"):
                fit(np.array(points), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_and_values_rejected(self, bad):
        points = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.1]])
        values = np.array([1.0, 2.0, 3.0])
        bad_points = points.copy()
        bad_points[1, 0] = bad
        bad_values = values.copy()
        bad_values[2] = bad
        for p, v in ((bad_points, values), (points, bad_values)):
            with pytest.raises(ValueError, match="finite"):
                fit(p, v)

    @pytest.mark.parametrize("query", [
        np.zeros(3),              # one point of the wrong dimension
        np.zeros((4, 1)),         # a batch of the wrong dimension
        np.zeros((2, 4, 2)),      # a stack of batches
        np.zeros((1, 1, 2)),
        np.zeros(2),              # one point, not a batch of one
    ])
    def test_mis_shaped_query_rejected(self, rng, query):
        state = fit(rng.uniform(size=(5, 2)), rng.standard_normal(5))
        with pytest.raises(ValueError) as info:
            state.posterior(query)
        assert str(query.shape) in str(info.value)
        assert "(5, 2)" in str(info.value)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="values"):
            fit(np.zeros((3, 2)), np.zeros(4))
