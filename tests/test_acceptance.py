"""End-to-end acceptance checks.

Each check prints exactly one PASS/FAIL verdict line (bypassing pytest's
capture) so the outcome of every criterion is visible in plain test output,
then asserts, so a FAIL also fails the suite.
"""

import time

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.stats import mannwhitneyu

from cellident import gp
from cellident.baselines import random_search
from cellident.bayesopt import BoRunConfig, expected_improvement, run_bo
from cellident.bench import default_config, run_benchmark
from cellident.ecm import (
    ELEC_GAIN_NEG,
    ELEC_GAIN_POS,
    bulk_concentration,
    electrolyte_time_constants,
    lag_response,
    simulate,
    solid_time_constant,
    trapezoid_integral,
)
from cellident.identify import (
    DIVERGENCE_PENALTY,
    ParameterBox,
    VoltageFitObjective,
)
from cellident.profiles import CurrentProfile, staircase_profile


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} -- {detail}",
              flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def benchmark_run():
    """One full default benchmark, shared by the criteria that inspect it."""
    t0 = time.perf_counter()
    report = run_benchmark(default_config())
    return report, time.perf_counter() - t0


def test_1_surrogate_matches_dense_solution(capsys):
    """GP posterior at 10 queries given 5 observations must agree with a
    direct dense linear-algebra solution on the normalized value scale."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    X = rng.uniform(size=(5, 3))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.5 * X[:, 2]
    queries = rng.uniform(size=(10, 3))

    state = gp.fit(X, y)
    mean_raw, var_raw = state.posterior(queries)
    mean_got = (mean_raw - state.mean_shift) / state.scale
    var_got = var_raw / state.scale ** 2

    y_std = (y - np.mean(y)) / np.std(y)
    def kernel(a, b):
        return np.exp(-0.5 * ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))

    K = kernel(X, X) + state.jitter * np.eye(len(y))
    K_inv = np.linalg.inv(K)
    k_star = kernel(X, queries)
    mean_ref = k_star.T @ (K_inv @ y_std)
    var_ref = np.maximum(
        1.0 - np.einsum("ij,ij->j", k_star, K_inv @ k_star), 0.0)

    err = max(float(np.max(np.abs(mean_got - mean_ref))),
              float(np.max(np.abs(var_got - var_ref))))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-8 and elapsed < 1.0
    _verdict(capsys, "surrogate-regression-exactness", ok,
             f"max |posterior - dense oracle| = {err:.3g} on the normalized "
             f"scale (tol 1e-8), 5 observations / 10 queries, {elapsed:.2f}s")


def test_2_acquisition_matches_monte_carlo(capsys):
    """Closed-form expected improvement must match 1e6-sample Monte Carlo
    estimates at 100 random (mean, sigma, best) triples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    n_cases, n_draws = 100, 1_000_000
    means = rng.uniform(-1.0, 1.0, size=n_cases)
    sigmas = rng.uniform(0.1, 2.0, size=n_cases)
    # keep (best - mean)/sigma in [-2, 3]: far outside that range virtually
    # no sample improves and the Monte Carlo standard error degenerates
    bests = means + sigmas * rng.uniform(-2.0, 3.0, size=n_cases)

    worst_ratio = 0.0
    for mean, sigma, best in zip(means, sigmas, bests):
        draws = rng.normal(mean, sigma, size=n_draws)
        improvement = np.maximum(best - draws, 0.0)
        mc = float(np.mean(improvement))
        se = float(np.std(improvement, ddof=1)) / np.sqrt(n_draws)
        assert se > 0.0
        closed = expected_improvement(float(mean), float(sigma) ** 2,
                                      float(best))
        worst_ratio = max(worst_ratio, abs(closed - mc) / se)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 4.0 and elapsed < 30.0
    _verdict(capsys, "acquisition-matches-monte-carlo", ok,
             f"worst |closed form - MC| = {worst_ratio:.2f} standard errors "
             f"(limit 4) across {n_cases} random triples in {elapsed:.1f}s")


def test_3_simulator_invariants(cell, i_1c, hold_refined, capsys):
    """Rest voltage, DC gains, charge bookkeeping, and step-size convergence."""
    t0 = time.perf_counter()
    params, ocv_p, ocv_n = cell

    # zero current: terminal voltage is exactly the open-circuit difference
    rest = CurrentProfile(dt=1.0, current=np.zeros(201))
    v_rest = simulate(params, ocv_p, ocv_n, rest)
    v_oc = float(ocv_p(params.c_p0 / params.c_max_p)
                 - ocv_n(params.c_n0 / params.c_max_n))
    ok_rest = bool(np.all(v_rest == v_oc))

    # every first-order block settles to gain * input under constant current
    constant = np.full(600, i_1c)
    tau_pos, tau_neg = electrolyte_time_constants(params)
    worst_gain = max(
        abs(float(lag_response(gain, tau, constant, 1.0)[-1]) / (gain * i_1c) - 1.0)
        for gain, tau in (
            (params.R_p / (5.0 * params.D_p), solid_time_constant(params, "p")),
            (params.R_n / (5.0 * params.D_n), solid_time_constant(params, "n")),
            (ELEC_GAIN_POS * params.gamma_p, tau_pos),
            (ELEC_GAIN_NEG * params.gamma_n, tau_neg)))
    ok_gains = worst_gain <= 1e-3

    # integrated charge matches an independent trapezoid rule
    t = np.arange(1201.0)
    wave = i_1c * np.sin(2.0 * np.pi * t / 300.0)
    q_model = trapezoid_integral(wave, 1.0)
    q_ref = cumulative_trapezoid(wave, dx=1.0, initial=0.0)
    rel_charge = float(np.max(np.abs(q_model - q_ref))
                       / np.max(np.abs(q_ref)))
    ok_charge = rel_charge <= 1e-6

    # a charge-balanced profile returns the bulk concentration to its start
    balanced = CurrentProfile(dt=1.0, current=np.concatenate(
        [np.full(61, i_1c), np.full(61, -i_1c)]))
    c_bulk = bulk_concentration(params, "n", balanced)
    excursion = float(np.max(np.abs(c_bulk - c_bulk[0])))
    ok_return = abs(float(c_bulk[-1] - c_bulk[0])) <= 1e-6 * excursion

    # halving the step shrinks the voltage error at least first-order
    base = staircase_profile(i_1c, dt=1.0, duration=600.0)
    v_ref = simulate(params, ocv_p, ocv_n, hold_refined(base, 100))[::100]
    errors = []
    for factor in (1, 2, 4):
        v = simulate(params, ocv_p, ocv_n, hold_refined(base, factor))[::factor]
        errors.append(float(np.max(np.abs(v - v_ref))))
    orders = [np.log2(errors[0] / errors[1]), np.log2(errors[1] / errors[2])]
    ok_order = min(orders) >= 1.0

    elapsed = time.perf_counter() - t0
    ok = (ok_rest and ok_gains and ok_charge and ok_return and ok_order
          and elapsed < 10.0)
    _verdict(capsys, "simulator-physical-invariants", ok,
             f"rest exact: {ok_rest}; worst DC-gain error {worst_gain:.2e} "
             f"(tol 1e-3); charge mismatch {rel_charge:.2e} (tol 1e-6); "
             f"balanced-profile return: {ok_return}; convergence orders "
             f"{orders[0]:.2f}/{orders[1]:.2f} (min 1.0); {elapsed:.1f}s")


def test_4_parameter_recovery(cell, box, train_dataset, counted, capsys):
    """BO at a 200-evaluation budget recovers the generating parameters."""
    t0 = time.perf_counter()
    params, ocv_p, ocv_n = cell
    truth = np.array([params.k_p, params.k_n, params.D_e])
    objective = VoltageFitObjective(params, ocv_p, ocv_n, box, train_dataset)

    successes = 0
    worst_errors = []
    for rep_seed in np.random.SeedSequence(20260817).spawn(10):
        counter = counted(objective.unit)
        result = run_bo(counter, BoRunConfig(box=box, budget=200,
                                             seed=rep_seed, s0=10))
        assert counter.count == 200
        rel = np.abs(result.best_theta - truth) / truth
        worst_errors.append(float(np.max(rel)))
        successes += int(np.all(rel <= 0.05))
    elapsed = time.perf_counter() - t0
    ok = successes >= 8 and elapsed < 600.0
    _verdict(capsys, "parameter-recovery-rate", ok,
             f"{successes}/10 repetitions within 5% on every parameter "
             f"(need >= 8); per-run worst relative errors "
             f"{[f'{e:.3f}' for e in sorted(worst_errors)]}; {elapsed:.0f}s")


def test_5_optimizer_ordering(benchmark_run, capsys):
    """At the shared 50-evaluation budget: BO <= PSO <= GD on held-out loss,
    and BO's spread is tighter than GD's."""
    report, elapsed = benchmark_run
    agg = report.results["aggregates"]
    bo, gd, pso = agg["bo"], agg["gd"], agg["pso"]
    ok = (bo["n_ok"] == gd["n_ok"] == pso["n_ok"] == 10
          and bo["test_mean"] <= pso["test_mean"] <= gd["test_mean"]
          and bo["test_var"] < gd["test_var"]
          and elapsed < 1800.0)
    _verdict(capsys, "optimizer-ordering", ok,
             f"mean test loss bo {bo['test_mean']:.3g} <= pso "
             f"{pso['test_mean']:.3g} <= gd {gd['test_mean']:.3g} V^2; "
             f"variance bo {bo['test_var']:.3g} < gd {gd['test_var']:.3g} "
             f"V^4; 10/10 repetitions per method; {elapsed:.0f}s")


def test_6_deterministic_reports(benchmark_run, capsys):
    """Re-running the identical protocol reproduces the results byte for byte."""
    report, _ = benchmark_run
    t0 = time.perf_counter()
    again = run_benchmark(default_config())
    elapsed = time.perf_counter() - t0
    first, second = report.body_bytes(), again.body_bytes()
    ok = first == second
    _verdict(capsys, "deterministic-reports", ok,
             f"two independent runs serialized to {len(first)} identical "
             f"bytes ({elapsed:.0f}s for the second run)")


def test_7_budget_discipline(benchmark_run, capsys):
    """No method may exceed the 50-evaluation budget: BO and GD must consume
    it exactly; PSO may stop at a partial final generation."""
    report, _ = benchmark_run
    rows = report.results["rows"]
    budget = report.results["config"]["budget"]
    evaluations = {(r["method"], r["rep"]): r["evaluations"] for r in rows}
    ok = (len(rows) == 30
          and all(not r["failed"] for r in rows)
          and all(v == budget for (m, _), v in evaluations.items()
                  if m in ("bo", "gd"))
          and all(v <= budget for (m, _), v in evaluations.items()
                  if m == "pso"))
    by_method = {m: sorted({v for (mm, _), v in evaluations.items() if mm == m})
                 for m in ("bo", "gd", "pso")}
    _verdict(capsys, "budget-discipline", ok,
             f"evaluations used per run: {by_method} (budget {budget}, exact "
             f"for bo/gd, <= for pso; a hard counter raises beyond it)")


def test_8_beats_random_search(capsys):
    """BO beats random search on a known 3-D quadratic at the same budget."""
    t0 = time.perf_counter()
    box = ParameterBox(names=("a", "b", "c"), lower=np.zeros(3),
                       upper=np.ones(3))
    target = np.array([0.3, 0.6, 0.2])

    def sphere(u):
        return float(np.sum((np.asarray(u) - target) ** 2))

    bo_losses, rs_losses = [], []
    for child in np.random.SeedSequence(20260817).spawn(20):
        bo_seed, rs_seed = child.spawn(2)
        bo_losses.append(run_bo(sphere, BoRunConfig(
            box=box, budget=50, seed=bo_seed, s0=10)).best_loss)
        rs_losses.append(random_search(sphere, box, 50, rs_seed).best_loss)
    p_value = float(mannwhitneyu(bo_losses, rs_losses,
                                 alternative="less").pvalue)
    elapsed = time.perf_counter() - t0
    ok = (p_value < 0.05
          and np.median(bo_losses) < np.median(rs_losses)
          and elapsed < 60.0)
    _verdict(capsys, "beats-random-search", ok,
             f"one-sided Mann-Whitney p = {p_value:.2e} over 20 paired seeds "
             f"(need < 0.05); median best loss BO {np.median(bo_losses):.2e} "
             f"vs random {np.median(rs_losses):.2e}; {elapsed:.0f}s")


def test_no_default_row_is_penalized(benchmark_run):
    """Every row of the default benchmark fits below the divergence penalty,
    so the check that fails a penalized fit leaves its report as it was."""
    report, _ = benchmark_run
    rows = report.results["rows"]
    assert len(rows) == 30
    assert all(not r["failed"] and r["train_loss_V2"] < DIVERGENCE_PENALTY
               for r in rows)
