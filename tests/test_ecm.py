"""Voltage-model blocks and end-to-end simulator invariants."""

import ast
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellident import ecm
from cellident.bench import generate_profile
from cellident.ecm import (
    ELEC_GAIN_NEG,
    ELEC_GAIN_POS,
    ELEC_TAU_NEG,
    ELEC_TAU_POS,
    FixedTerms,
    bulk_concentration,
    c1_coefficient,
    check_step,
    check_step_floor,
    concentration_scale,
    electrolyte_potential,
    electrolyte_time_constants,
    exchange_current_factors,
    fixed_terms,
    lag_response,
    min_time_constant,
    ohmic_drop,
    overpotential,
    simulate,
    solid_time_constant,
    surface_concentration,
    terminal_voltage,
    trapezoid_integral,
    unit_overpotential,
)
from cellident.errors import ConfigError, DataError
from cellident.ocv import OcvCurve
from cellident.profiles import CurrentProfile

GOLDEN = Path(__file__).parent / "data" / "golden_pulse.csv"
README = Path(__file__).parents[1] / "README.md"


def constant_pulse(amps: float, dt: float = 1.0, on_s: float = 60.0,
                   total_s: float = 120.0) -> CurrentProfile:
    n = int(round(total_s / dt)) + 1
    current = np.zeros(n)
    current[: int(round(on_s / dt))] = amps
    return CurrentProfile(dt=dt, current=current)


class TestFirstOrderLag:
    """``lag_response``: K/(tau s + 1) under a zero-order hold."""

    def test_pole(self):
        """An impulse decays by the pole e^(-dt/tau)."""
        y = lag_response(2.0, 10.0, np.array([1.0, 0.0, 0.0]), 1.0)
        assert y[0] == 0.0
        assert y[2] / y[1] == pytest.approx(math.exp(-0.1), rel=1e-15)

    def test_response_matches_recursion(self, rng):
        gain, tau = 1.7, 4.0
        u = rng.standard_normal(50)
        dt = 0.3
        y = lag_response(gain, tau, u, dt)
        a = math.exp(-dt / tau)
        expected = np.zeros_like(u)
        for k in range(1, u.size):
            expected[k] = a * expected[k - 1] + gain * (1.0 - a) * u[k - 1]
        np.testing.assert_allclose(y, expected, atol=1e-13)

    def test_step_response_closed_form(self):
        gain, tau = 3.0, 5.0
        dt = 0.5
        n = 200
        y = lag_response(gain, tau, np.ones(n), dt)
        a = math.exp(-dt / tau)
        k = np.arange(n)
        np.testing.assert_allclose(y, gain * (1.0 - a**k), atol=1e-12)

    def test_dc_gain(self):
        y = lag_response(-4.2, 2.0, np.ones(400), dt=0.5)
        assert y[-1] == pytest.approx(-4.2, rel=1e-9)


class TestTrapezoidIntegrator:
    """``trapezoid_integral``: the running trapezoid-rule integral."""

    def test_exact_for_linear_input(self):
        dt = 0.25
        t = dt * np.arange(100)
        q = trapezoid_integral(t, dt)
        np.testing.assert_allclose(q, 0.5 * t**2, atol=1e-12)

    def test_step_matches_response(self, rng):
        u = rng.standard_normal(30)
        dt = 0.7
        q = trapezoid_integral(u, dt)
        walked = 0.0
        for k in range(1, u.size):
            walked += 0.5 * dt * (u[k - 1] + u[k])
        assert q[-1] == pytest.approx(walked, rel=1e-12)
        assert q[0] == 0.0

    def test_single_sample(self):
        assert trapezoid_integral(np.array([3.0]), 1.0).tolist() == [0.0]

    def test_dt_validation(self):
        """A zero step is refused before any filter runs."""
        with pytest.raises(DataError, match="dt must be positive"):
            CurrentProfile(dt=0.0, current=np.ones(3))


class TestTimeConstants:
    def test_solid(self, params):
        assert solid_time_constant(params, "p") == pytest.approx(
            params.R_p**2 / (35.0 * params.D_p), rel=1e-15)
        with pytest.raises(ValueError):
            solid_time_constant(params, "both")

    def test_electrolyte(self, params):
        tau_pos, tau_neg = electrolyte_time_constants(params)
        base = params.L_cell**2 / params.D_e
        assert tau_pos == pytest.approx(ELEC_TAU_POS * base, rel=1e-15)
        assert tau_neg == pytest.approx(ELEC_TAU_NEG * base, rel=1e-15)

    def test_minimum(self, params):
        taus = [solid_time_constant(params, "p"), solid_time_constant(params, "n"),
                *electrolyte_time_constants(params)]
        assert min_time_constant(params) == min(taus)

    def test_step_guard(self, params):
        limit = min_time_constant(params) / 10.0
        check_step(params, limit * 0.99)   # fine
        check_step(params, limit)
        with pytest.raises(ConfigError,
                           match="exceeds one tenth of the fastest time constant"):
            check_step(params, limit * 1.01)

    def test_step_floor(self, params, ocv_pair, i_1c):
        """Below tau_max eps^(1/3) phi_e's rounding error, about
        eps (tau/dt)^2, would exceed the hold's own error dt/tau; the
        floor falls as D_e grows, and ``simulate`` checks it."""
        floor = max(electrolyte_time_constants(params)) * np.finfo(float).eps ** (1 / 3)
        check_step_floor(params, floor)
        message = (f"dt = {floor * 0.99:g} s is below {floor:g} s, "
                   "where phi_e's rounding error")
        with pytest.raises(ConfigError, match=message):
            check_step_floor(params, floor * 0.99)
        check_step_floor(params.replace(D_e=2.0 * params.D_e), floor * 0.99)
        with pytest.raises(ConfigError, match=message):
            simulate(params, *ocv_pair, CurrentProfile(
                dt=floor * 0.99, current=np.full(10, i_1c)))

    @pytest.mark.parametrize("dt", [-1.0, math.nan])
    def test_non_positive_step(self, dt):
        """``check_step`` takes a profile's step, and no profile has one
        that is not positive."""
        with pytest.raises(DataError, match=f"dt must be positive, got {dt}"):
            CurrentProfile(dt=dt, current=np.ones(3))

    def test_step_guard_follows_d_e(self, params):
        """The electrolyte time constants fall as D_e grows."""
        dt = min_time_constant(params) / 10.0
        check_step(params, dt)
        with pytest.raises(ConfigError):
            check_step(params.replace(D_e=2.0 * params.D_e), dt)


class TestCoefficients:
    def test_c1_frozen_value(self, params):
        assert c1_coefficient(params) == pytest.approx(
            -1.271333452963335e-12, rel=1e-12)

    def test_c1_independent_regrouping(self, params):
        """Recompute C1 with a different algebraic grouping."""
        p = params
        ce = p.c_e0 / 1000.0
        bracket = (0.601 - 0.24 * math.sqrt(ce)
                   + 0.982 * (1.0 - 0.0052 * (p.T0 - p.T_ref) * ce**1.5))
        thermal = 2.0 * p.R_gas * p.T0 / (p.F**2)
        transport = (1.0 - p.t_plus) * (1.0 + p.beta)
        geometry = -p.L_cell / (p.A_s * p.c_e0)
        assert c1_coefficient(p) == pytest.approx(
            thermal * transport * geometry * bracket, rel=1e-14)

    def test_bracket_reference_point(self, params):
        """At c_e0 = 1000 and T0 = T_ref the bracket reduces to 1.343."""
        p = params.replace(c_e0=1000.0)
        ratio = c1_coefficient(p) / (
            2.0 * p.R_gas * p.T0 * (-p.L_cell / (p.A_s * p.F**2 * p.c_e0))
            * (1.0 - p.t_plus) * (1.0 + p.beta))
        assert ratio == pytest.approx(1.343, rel=1e-12)

    def test_concentration_scale_sign(self, params):
        # discharge (positive current) must deplete the anode: scale_n < 0
        assert concentration_scale(params, "n") < 0.0
        assert concentration_scale(params, "p") < 0.0
        assert concentration_scale(params, "p") == pytest.approx(
            -params.R_p / (3.0 * params.F * params.eps_am_p * params.L_p * params.A),
            rel=1e-15)


class TestZeroCurrent:
    def test_voltage_is_exactly_open_circuit(self, cell):
        params, ocv_p, ocv_n = cell
        profile = CurrentProfile(dt=1.0, current=np.zeros(500))
        v_oc = float(ocv_p(params.c_p0 / params.c_max_p)
                     - ocv_n(params.c_n0 / params.c_max_n))
        assert np.all(simulate(params, ocv_p, ocv_n, profile) == v_oc)
        fixed = fixed_terms(params, ocv_p, ocv_n, profile)
        assert np.all(surface_concentration(params, "p", profile)
                      == params.c_p0)
        assert np.all(surface_concentration(params, "n", profile)
                      == params.c_n0)
        assert np.all(overpotential(params, fixed, "p") == 0.0)
        assert np.all(overpotential(params, fixed, "n") == 0.0)
        assert np.all(electrolyte_potential(params, profile) == 0.0)
        assert np.all(ohmic_drop(params, profile.current) == 0.0)
        assert np.all(fixed.base == v_oc)


def _lags(params):
    """(gain, tau) of the solid lags of p and n and the two electrolyte lags."""
    tau_pos, tau_neg = electrolyte_time_constants(params)
    return [(params.R_p / (5.0 * params.D_p), solid_time_constant(params, "p")),
            (params.R_n / (5.0 * params.D_n), solid_time_constant(params, "n")),
            (ELEC_GAIN_POS * params.gamma_p, tau_pos),
            (ELEC_GAIN_NEG * params.gamma_n, tau_neg)]


class TestDcGains:
    def test_all_four_lag_blocks(self, params, i_1c):
        """Constant input long enough that every lag settles to gain*input."""
        n = 400   # > 8x the slowest time constant
        u = np.full(n, i_1c)
        for gain, tau in _lags(params):
            y = lag_response(gain, tau, u, 1.0)
            assert y[-1] == pytest.approx(gain * i_1c, rel=1e-3), (gain, tau)

    def test_block_wiring(self, params, i_1c):
        """Each concentration is its integrator plus doubled solid lag, and
        phi_e is the one second-order recursion of the two electrolyte lags
        with C1/D_e folded into its numerator, bit for bit."""
        profile = constant_pulse(i_1c, dt=0.5)
        I, dt = profile.current, profile.dt
        solid_p, solid_n, elec_pos, elec_neg = _lags(params)
        for electrode, (gain, tau), c0, R in (
                ("p", solid_p, params.c_p0, params.R_p),
                ("n", solid_n, params.c_n0, params.R_n)):
            want = c0 + concentration_scale(params, electrode) * (
                (3.0 / R) * trapezoid_integral(I, dt)
                + 2.0 * lag_response(gain, tau, I, dt))
            assert np.array_equal(
                surface_concentration(params, electrode, profile), want)
        scale = c1_coefficient(params) / params.D_e
        (gain_pos, tau_pos), (gain_neg, tau_neg) = elec_pos, elec_neg
        a_pos, a_neg = math.exp(-dt / tau_pos), math.exp(-dt / tau_neg)
        b_pos = gain_pos * (1.0 - a_pos) * scale
        b_neg = gain_neg * (1.0 - a_neg) * scale
        want = ecm._linear_filter(
            np.array([0.0, b_pos + b_neg, -(b_pos * a_neg + b_neg * a_pos)]),
            np.array([1.0, -(a_pos + a_neg), a_pos * a_neg]), I, -1)
        assert np.array_equal(electrolyte_potential(params, profile), want)


class TestElectrolyteRecursion:
    """``electrolyte_potential`` against the parallel form it replaces: the
    two float64 lags summed, then scaled by C1/D_e.  The direct form's
    rounding grows as (tau/dt)^2 for two close poles near 1, so the bound
    is 4 eps (tau_max/dt)^2 relative to max |phi_e|."""

    @pytest.mark.parametrize("dt", [1.0, 0.25, 0.05, 0.01, "floor"])
    @pytest.mark.parametrize("kind", ["constant pulse", "drive-cycle-like"])
    def test_matches_the_two_lag_form(self, params, i_1c, kind, dt):
        """Down to ``check_step``'s floor, where a 600-s drive cycle would
        take 3.8 million samples, so both profiles there last 120 s."""
        _, _, elec_pos, elec_neg = _lags(params)
        duration = 600.0
        if dt == "floor":
            dt = max(elec_pos[1], elec_neg[1]) * np.finfo(float).eps ** (1 / 3)
            duration = 120.0
            check_step_floor(params, dt)
        profile = (constant_pulse(i_1c, dt=dt) if kind == "constant pulse"
                   else generate_profile(kind, duration, dt, 3, params))
        I = profile.current
        want = ((lag_response(*elec_pos, I, dt) + lag_response(*elec_neg, I, dt))
                * (c1_coefficient(params) / params.D_e))
        error = np.max(np.abs(electrolyte_potential(params, profile) - want))
        bound = 4.0 * np.finfo(float).eps * (max(elec_pos[1], elec_neg[1]) / dt) ** 2
        assert error <= bound * np.max(np.abs(want))


class TestChargeBookkeeping:
    def test_bulk_concentration_tracks_integrated_current(self, params, i_1c):
        profile = CurrentProfile(
            dt=1.0,
            current=i_1c * np.sin(np.linspace(0.0, 4.0 * np.pi, 601)))
        for electrode, eps, L in (("p", params.eps_am_p, params.L_p),
                                  ("n", params.eps_am_n, params.L_n)):
            c = bulk_concentration(params, electrode, profile)
            moles = (params.c_p0 if electrode == "p" else params.c_n0) - c
            charge = moles * params.F * eps * L * params.A
            reference = np.concatenate(
                [[0.0], np.cumsum(0.5 * profile.dt
                                  * (profile.current[:-1] + profile.current[1:]))])
            scale = np.max(np.abs(reference))
            np.testing.assert_allclose(charge, reference, atol=1e-6 * scale)

    def test_balanced_profile_returns_to_start(self, params, i_1c):
        # zero samples bracket each block so the trapezoid edge contributions
        # of the discharge and charge phases cancel exactly
        current = np.concatenate([[0.0], np.full(60, i_1c),
                                  [0.0], np.full(60, -i_1c),
                                  np.zeros(60)])
        profile = CurrentProfile(dt=1.0, current=current)
        c = bulk_concentration(params, "n", profile)
        excursion = np.max(np.abs(c - params.c_n0))
        assert excursion > 0.0
        assert abs(c[-1] - params.c_n0) <= 1e-6 * excursion

    def test_surface_relaxes_to_bulk(self, cell, i_1c):
        params, ocv_p, ocv_n = cell
        profile = constant_pulse(i_1c, dt=1.0, on_s=60.0, total_s=700.0)
        c_n = surface_concentration(params, "n", profile)
        c_bulk = bulk_concentration(params, "n", profile)
        assert c_n[-1] == pytest.approx(c_bulk[-1], abs=1e-3)


class TestStepRefinement:
    def test_first_order_convergence(self, cell, i_1c, hold_refined):
        params, ocv_p, ocv_n = cell
        base = constant_pulse(i_1c, dt=1.0)
        reference = simulate(params, ocv_p, ocv_n, hold_refined(base, 100))
        errors = []
        for factor in (1, 2, 4):
            v = simulate(params, ocv_p, ocv_n, hold_refined(base, factor))
            stride = 100 // factor
            errors.append(np.max(np.abs(v - reference[::stride])))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.0, f"observed orders {orders}"


class TestGoldenPulse:
    def test_regression_against_committed_trace(self, cell):
        params, ocv_p, ocv_n = cell
        table = np.genfromtxt(GOLDEN, delimiter=",", names=True)
        dt = float(table["time_s"][1] - table["time_s"][0])
        profile = CurrentProfile(dt=dt, current=np.atleast_1d(table["current_A"]))
        v = simulate(params, ocv_p, ocv_n, profile)
        np.testing.assert_allclose(v, table["voltage_V"],
                                   rtol=0.0, atol=1e-12)


class TestLinearity:
    """With frozen exchange currents and flat potentials the model is linear."""

    @staticmethod
    def _flat_cell(params):
        flat_p = OcvCurve(np.array([0.0, 1.0]), np.array([4.0, 4.0]))
        flat_n = OcvCurve(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        return flat_p, flat_n

    def test_superposition(self, params, i_1c, rng, simulate_pinned):
        flat_p, flat_n = self._flat_cell(params)
        n = 300
        u1 = 0.5 * i_1c * np.sin(np.linspace(0, 6 * np.pi, n))
        u2 = 0.3 * i_1c * rng.standard_normal(n)

        def response(current):
            profile = CurrentProfile(dt=1.0, current=current)
            v = simulate_pinned(params, flat_p, flat_n, profile)
            return v.volts - 3.0   # flat open-circuit level

        lhs = response(0.6 * u1 + 1.7 * u2)
        rhs = 0.6 * response(u1) + 1.7 * response(u2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_sign_symmetry(self, params, i_1c, simulate_pinned):
        flat_p, flat_n = self._flat_cell(params)
        current = 0.5 * i_1c * np.sin(np.linspace(0, 4 * np.pi, 200))

        def response(c):
            v = simulate_pinned(params, flat_p, flat_n,
                                CurrentProfile(dt=1.0, current=c))
            return v.volts - 3.0

        np.testing.assert_allclose(response(-current), -response(current),
                                   atol=1e-12)


class TestKinetics:
    def test_exchange_current_hand_value(self, params):
        """At T = T_ref the Arrhenius factor is 1."""
        assert params.T == params.T_ref
        c = 0.5 * params.c_max_p
        scale, root = exchange_current_factors(params, "p", c)
        expected = (params.F * params.k_p
                    * math.sqrt(c * (params.c_max_p - c) * params.c_e_p))
        assert scale * params.k_p * root == pytest.approx(expected, rel=1e-12)

    def test_arrhenius_factor(self, params):
        c = 0.5 * params.c_max_n
        base, root = exchange_current_factors(params, "n", c)
        hot, hot_root = exchange_current_factors(
            params.replace(T=params.T_ref + 10.0), "n", c)
        expected = math.exp(
            (1.0 / params.T_ref - 1.0 / (params.T_ref + 10.0))
            * params.E_io_n / params.R_gas)
        assert hot / base == pytest.approx(expected, rel=1e-12)
        assert hot_root == root

    def test_out_of_range_concentration(self, params):
        with pytest.raises(DataError):
            exchange_current_factors(params, "p", 0.0)
        with pytest.raises(DataError, match="electrode p .* at sample 1 "):
            exchange_current_factors(params, "p",
                                     np.array([100.0, params.c_max_p]))

    def test_overpotential_linear_in_current(self, cell, i_1c,
                                             simulate_pinned):
        params, ocv_p, ocv_n = cell
        pulse = constant_pulse(i_1c)
        tripled = CurrentProfile(dt=pulse.dt, current=3.0 * pulse.current)
        eta1 = simulate_pinned(params, ocv_p, ocv_n, pulse).eta_p
        eta3 = simulate_pinned(params, ocv_p, ocv_n, tripled).eta_p
        np.testing.assert_allclose(eta3, 3.0 * eta1, rtol=1e-12, atol=0.0)

    def test_zero_exchange_current_is_an_error(self, faint_cell, ocv_pair,
                                               i_1c):
        """A k_p small enough for c_p / k_p to overflow gives eta_p = 0
        where no current flows and +inf where it does, and ``simulate``
        raises at the first sample with current.  c_p itself is finite."""
        theta = faint_cell.with_theta(1e-30, faint_cell.k_n, faint_cell.D_e)
        profile = CurrentProfile(dt=1.0, current=np.concatenate(
            [np.zeros(5), np.full(20, i_1c)]))
        fixed = fixed_terms(theta, *ocv_pair, profile)
        assert np.all(np.isfinite(fixed.c_p))
        with np.errstate(over="ignore"):
            eta = overpotential(theta, fixed, "p")
            assert eta[:5].tobytes() == np.zeros(5).tobytes()
            assert np.all(eta[5:] == math.inf)
            with pytest.raises(DataError, match="at sample 5$"):
                simulate(theta, *ocv_pair, profile)


# square roots of any sign, with zeros, NaN, infinities and subnormals
_roots = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e-6, math.nan,
                                    math.inf, -math.inf]), st.floats())


class TestZeroExchangeCurrent:
    """Neither ``unit_overpotential`` nor ``overpotential`` tests i0: for
    every input, zeros, NaN and infinities included, the first returns the
    bits of R T0 (-J I) / ((Arrhenius F sqrt) F), the column ``fixed_terms``
    keeps, and the second the bits of that column over k."""

    @settings(max_examples=400, deadline=None)
    @given(roots=st.one_of(_roots, st.lists(_roots, min_size=1, max_size=8)),
           i0_scale=st.one_of(st.sampled_from([0.0, 5e-324, 96485.33212]),
                              st.floats(min_value=0.0, max_value=1e300)),
           k=st.one_of(st.sampled_from([5e-324, 1e-300, 3e-11]),
                       st.floats(min_value=5e-324, max_value=1e300)))
    @example(roots=[1e-6, 50.0], i0_scale=96485.33212, k=5e-324)   # overflow
    @example(roots=[math.nan, 0.0, math.nan], i0_scale=1.0, k=3e-11)
    @example(roots=[math.nan, math.inf], i0_scale=0.0, k=3e-11)    # 0 * inf
    @example(roots=-2e-300, i0_scale=1e-20, k=1e-10)
    def test_bits_of_numerator_over_f_i0(self, params, roots, i0_scale, k):
        if isinstance(roots, list):
            sqrt_arg, current = np.array(roots), np.linspace(-1.0, 1.0, len(roots))
        else:   # a scalar root broadcasts, as in pinned fixed terms
            sqrt_arg, current = np.float64(roots), np.linspace(-1.0, 1.0, 3)
        theta = params.with_theta(k, k, params.D_e)
        with np.errstate(all="ignore"):
            for electrode in ("p", "n"):
                J = params.J_p if electrode == "p" else params.J_n
                column = unit_overpotential(params, electrode, current,
                                            i0_scale, sqrt_arg)
                want = (params.R_gas * params.T0 * (-J * current)
                        / (i0_scale * sqrt_arg * params.F))
                assert column.shape == want.shape
                assert column.tobytes() == want.tobytes()
                fixed = FixedTerms(c_p=column, c_n=column, base=current)
                eta = overpotential(theta, fixed, electrode)
                assert eta.shape == want.shape
                assert eta.tobytes() == (want / k).tobytes()


def _five_term_voltage(params, ocv_p, ocv_n, profile):
    """The voltage as it was summed before the separable form:
    U_p - U_n - (eta_p - eta_n) + phi_e + phi_ohm - I R_c, with
    eta_i = R T0 (-J_i I) / (F i0_i) and i0_i = (Arrhenius F k_i) sqrt."""
    p, I = params, profile.current
    eta, ocv = {}, {}
    for electrode, curve, c_max, k, J in (("p", ocv_p, p.c_max_p, p.k_p, p.J_p),
                                          ("n", ocv_n, p.c_max_n, p.k_n, p.J_n)):
        c = surface_concentration(p, electrode, profile)
        i0_scale, sqrt_arg = exchange_current_factors(p, electrode, c)
        eta[electrode] = (p.R_gas * p.T0 * (-J * I)
                          / (i0_scale * k * sqrt_arg * p.F))
        ocv[electrode] = curve(c / c_max)
    return ((ocv["p"] - ocv["n"]) - (eta["p"] - eta["n"])
            + electrolyte_potential(p, profile) + ohmic_drop(p, I) - I * p.R_c)


class TestSeparableVoltage:
    """``simulate`` sums ((c_n/k_n - c_p/k_p) + phi_e) + base, which rounds
    differently from the five-term sum it replaced but stays within
    4 eps max |V| of it, on the two ``sim-heavy`` training profiles at 24
    theta spread over [0.5, 2] times each truth component."""

    def test_within_rounding_of_the_five_term_sum(self, cell):
        params, ocv_p, ocv_n = cell
        profiles = [generate_profile("rcid-like", 3600.0, 0.25, 1, params),
                    generate_profile("drive-cycle-like", 7200.0, 0.5, 1, params)]
        factors = 2.0 ** np.random.default_rng(7).uniform(-1.0, 1.0, (24, 3))
        for f_p, f_n, f_e in factors:
            theta = params.with_theta(params.k_p * f_p, params.k_n * f_n,
                                      params.D_e * f_e)
            for profile in profiles:
                got = simulate(theta, ocv_p, ocv_n, profile)
                want = _five_term_voltage(theta, ocv_p, ocv_n, profile)
                bound = 4.0 * np.finfo(float).eps * np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= bound


class TestDivergence:
    def test_overdischarge_raises_with_location(self, cell, i_1c):
        params, ocv_p, ocv_n = cell
        profile = CurrentProfile(dt=1.0, current=np.full(600, 20.0 * i_1c))
        with pytest.raises(DataError) as err:
            simulate(params, ocv_p, ocv_n, profile)
        assert 0 < int(re.search(r"at sample (\d+)", str(err.value))[1]) < 600

    def test_healthy_profile_does_not_raise(self, cell, i_1c):
        params, ocv_p, ocv_n = cell
        v = simulate(params, ocv_p, ocv_n, constant_pulse(i_1c))
        assert np.all(np.isfinite(v))

    def test_returns_one_float_voltage_per_sample(self, cell, i_1c):
        params, ocv_p, ocv_n = cell
        profile = constant_pulse(i_1c)
        v = simulate(params, ocv_p, ocv_n, profile)
        assert isinstance(v, np.ndarray)
        assert v.dtype == np.float64
        assert v.shape == (profile.n,)

    def test_non_finite_voltage_raises_at_its_first_sample(self, cell, i_1c):
        """At k_p = 5e-324 eta_p overflows to infinity once current flows:
        the concentrations stay in range and only the voltage check fires."""
        params, ocv_p, ocv_n = cell
        current = np.concatenate([np.zeros(10), np.full(50, i_1c)])
        with np.errstate(over="ignore"), pytest.raises(
                DataError, match="at sample 10$"):
            simulate(params.replace(k_p=5e-324), ocv_p, ocv_n,
                     CurrentProfile(dt=1.0, current=current))


_PER_ELECTRODE = {
    "a_s": lambda p, profile, fixed, e: p.a_s(e),
    "solid_time_constant": lambda p, profile, fixed, e: solid_time_constant(p, e),
    "concentration_scale": lambda p, profile, fixed, e: concentration_scale(p, e),
    "surface_concentration":
        lambda p, profile, fixed, e: surface_concentration(p, e, profile),
    "bulk_concentration":
        lambda p, profile, fixed, e: bulk_concentration(p, e, profile),
    "exchange_current_factors":
        lambda p, profile, fixed, e: exchange_current_factors(
            p, e, min(p.c_p0, p.c_n0)),
    "overpotential": lambda p, profile, fixed, e: overpotential(p, fixed, e),
}


class TestElectrodeNames:
    @pytest.mark.parametrize("name", sorted(_PER_ELECTRODE))
    def test_unknown_electrode_rejected(self, cell, i_1c, name):
        params, ocv_p, ocv_n = cell
        profile = constant_pulse(i_1c)
        fixed = fixed_terms(params, ocv_p, ocv_n, profile)
        call = _PER_ELECTRODE[name]
        for electrode in ("p", "n"):
            call(params, profile, fixed, electrode)
        with pytest.raises(ValueError, match="electrode must be 'p' or 'n'"):
            call(params, profile, fixed, "x")


class TestReadmeExample:
    def test_library_use_snippet_runs(self, tmp_path, monkeypatch):
        """README's ``cellident.ecm`` example runs as written, and the
        contributions it computes add up to its simulated voltage."""
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        (snippet,) = [b for b in blocks if "from cellident.ecm import" in b]
        monkeypatch.chdir(tmp_path)
        ns = {}
        exec(snippet, ns)
        eta_n = overpotential(ns["cell"], ns["fixed"], "n")
        summed = terminal_voltage(ns["fixed"], ns["eta_p"], eta_n, ns["phi_e"],
                                  np.empty(ns["profile"].n))
        assert np.array_equal(ns["volts"], summed)
        assert ns["c_p"].shape == (ns["profile"].n,)

    def test_library_use_imports_resolve(self):
        """Every name the "Library use" section imports exists where it
        says, so deleting a documented name fails here."""
        section = README.read_text().split("## Library use", 1)[1]
        section = section.split("\n## ", 1)[0]
        blocks = re.findall(r"```python\n(.*?)```", section, re.S)
        names = [(node.module, alias.name)
                 for node in ast.walk(ast.parse("\n".join(blocks)))
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
        assert ("cellident.bench", "run_benchmark") in names
        assert ("cellident.ecm", "simulate") in names
        for module, name in names:
            assert hasattr(importlib.import_module(module), name), (module, name)
