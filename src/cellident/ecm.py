"""Reduced-order electrochemical voltage model.

Terminal voltage is assembled from open-circuit potentials at the electrode
surface stoichiometries, linearized charge-transfer overpotentials, a
first-order electrolyte potential drop, an ohmic drop, and a contact
resistance:

    V = U_p(x_p) - U_n(x_n) - (eta_p - eta_n) + phi_e + phi_ohm - I*R_c

Solid-phase surface concentration per electrode follows a rational
(Pade-reduced) approximation of spherical diffusion, split into a bulk
branch G_b with an exact integrator and a diffusion branch G_d:

    G_b(s) = ((2/7)(R/D) s + 3/R) / ((1/35)(R^2/D) s^2 + s)
           = (3/R)/s + (R/(5D)) / (tau s + 1),      tau = R^2/(35 D)
    G_d(s) = (R/(5D)) / (tau s + 1)

so G_b + G_d = (3/R)/s + 2*(R/(5D))/(tau s + 1): one integrator plus a
doubled first-order lag; phi_e is two first-order lags scaled by C1/D_e.

Discretization: lags use the exact zero-order-hold map (pole a = e^(-dt/tau),
input taken as the previous sample), the integrator uses the trapezoidal
rule, so DC behavior is preserved exactly.  The two electrolyte lags run as
one direct-form second-order filter, whose rounding error, about
eps (tau/dt)^2 of max |phi_e|, would pass the hold's own error dt/tau below
dt = tau eps^(1/3), the floor of ``check_step_floor``.

The identified parameters theta = (k_p, k_n, D_e) enter V only through the
overpotentials, eta_i = R T0 (-J_i I)/(F i0_i) with i0_i proportional to
k_i, and through phi_e, whose gain C1/D_e and lag poles depend on D_e.  The
voltage is therefore the separable sum

    V = ((c_n/k_n - c_p/k_p) + phi_e(D_e)) + base

of three theta-free columns and one filter, built in two steps:

- ``fixed_terms``: the columns -- c_i, eta_i at k_i = 1, from the surface
  concentrations (with their range checks) and i0's Arrhenius*F and
  square-root factors, and base = (U_p - U_n + phi_ohm) - I R_c;
- the three theta terms, each from its own function reading one component:
  ``overpotential`` gives eta_i = c_i/k_i, ``electrolyte_potential`` gives
  phi_e at D_e, and ``terminal_voltage`` writes the sum above into a
  caller's buffer.

Every function takes the cell parameters and the profile it runs over, and
reads the step only from the profile.  Per-electrode functions take "p" or
"n" and read that electrode's fields only through
``params.electrode_fields``.

``simulate`` is both step checks followed by both steps; a fit that
evaluates many theta on one profile builds the fixed terms once and may keep
a term whose component did not change.  Every caller runs the same float
operations in the same order, so results do not depend on which terms were
kept.  A step too coarse or too fine for the cell is a ConfigError,
and a profile the cell cannot simulate a DataError: the classes the user sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy_c import routine
from .errors import ConfigError, DataError
from .ocv import OcvCurve
from .params import ELECTRODES, CellParameters, electrode_fields
from .profiles import CurrentProfile

# electrolyte transfer-function constants
ELEC_GAIN_POS = 0.124   # multiplies gamma_p
ELEC_GAIN_NEG = 0.117   # multiplies gamma_n
ELEC_TAU_POS = 0.1052   # multiplies L_cell^2 / D_e
ELEC_TAU_NEG = 0.0997   # multiplies L_cell^2 / D_e

# lfilter(b, a, x, axis) without importing scipy.signal
_linear_filter = routine("signal", "_sigtools", "_linear_filter", "lfilter")


def lag_response(gain: float, tau: float, u: np.ndarray, dt: float) -> np.ndarray:
    """gain/(tau s + 1) from rest under a zero-order hold: pole e^(-dt/tau),
    input entering with one-sample delay."""
    a = math.exp(-dt / tau)
    return _linear_filter(np.array([0.0, gain * (1.0 - a)]), np.array([1.0, -a]),
                          np.asarray(u, dtype=float), -1)


def trapezoid_integral(u: np.ndarray, dt: float) -> np.ndarray:
    """Running integral q[k] = q[k-1] + dt/2*(u[k-1] + u[k]) from q[0] = 0."""
    u = np.asarray(u, dtype=float)
    q = np.zeros_like(u)
    if u.size > 1:
        q[1:] = np.cumsum(0.5 * dt * (u[:-1] + u[1:]))
    return q


def solid_time_constant(params: CellParameters, electrode: str) -> float:
    """R_i^2 / (35 D_i)."""
    R, D = electrode_fields(electrode, "R", "D")(params)
    return R ** 2 / (35.0 * D)


def electrolyte_time_constants(params: CellParameters) -> tuple[float, float]:
    """(tau_pos, tau_neg) of the electrolyte branches."""
    base = params.L_cell ** 2 / params.D_e
    return ELEC_TAU_POS * base, ELEC_TAU_NEG * base


def min_time_constant(params: CellParameters) -> float:
    return min(*(solid_time_constant(params, e) for e in ELECTRODES),
               *electrolyte_time_constants(params))


def check_step(params: CellParameters, dt: float) -> None:
    """ConfigError when ``dt`` (> 0, as every profile's step is) exceeds
    a tenth of the fastest time constant, which falls as D_e grows."""
    tau_min = min_time_constant(params)
    if dt > tau_min / 10.0:
        raise ConfigError(
            f"dt = {dt:g} s exceeds one tenth of the fastest time "
            f"constant ({tau_min:g} s); discretization would be inaccurate"
        )


def check_step_floor(params: CellParameters, dt: float) -> None:
    """ConfigError when ``dt`` is below the module docstring's floor (rising as D_e falls)."""
    floor = max(electrolyte_time_constants(params)) * np.finfo(float).eps ** (1 / 3)
    if dt < floor:
        raise ConfigError(f"dt = {dt:g} s is below {floor:g} s, where phi_e's "
                          "rounding error would exceed its discretization error")


def c1_coefficient(params: CellParameters) -> float:
    """Electrolyte-potential coefficient C1 (evaluated once per parameter set).

    The bracketed concentration factor reduces to 1.343 at
    c_e0 = 1000 mol/m^3 and T0 = T_ref.  T0 multiplies the thermal prefactor.
    """
    p = params
    ce = p.c_e0 / 1000.0
    bracket = (
        0.601
        - 0.24 * math.sqrt(ce)
        + 0.982 * (1.0 - 0.0052 * (p.T0 - p.T_ref) * ce ** 1.5)
    )
    return (
        2.0 * p.R_gas * p.T0
        * (-p.L_cell / (p.A_s * p.F ** 2 * p.c_e0))
        * (1.0 - p.t_plus) * (1.0 + p.beta)
        * bracket
    )


def concentration_scale(params: CellParameters, electrode: str) -> float:
    """Current-to-concentration factor -R_i/(3 F eps_am_i L_i A)."""
    R, eps_am, L = electrode_fields(electrode, "R", "eps_am", "L")(params)
    return -R / (3.0 * params.F * eps_am * L * params.A)


def surface_concentration(params: CellParameters, electrode: str,
                          profile: CurrentProfile) -> np.ndarray:
    """c_i(t) = c_i0 + (integrator + doubled lag applied to I) * scale_i.

    Raises DataError at the first sample leaving (0, c_max_i).
    """
    p = params
    c0, c_max, R, D = electrode_fields(electrode, "c0", "c_max", "R", "D")(p)

    q = trapezoid_integral(profile.current, profile.dt)
    # G_b's lag term and G_d share gain R/(5D) and tau: compute once, double
    y = lag_response(R / (5.0 * D), solid_time_constant(p, electrode),
                     profile.current, profile.dt)
    c = c0 + concentration_scale(p, electrode) * ((3.0 / R) * q + 2.0 * y)

    bad = np.flatnonzero((c <= 0.0) | (c >= c_max))
    if bad.size:
        k = int(bad[0])
        raise DataError(
            f"electrode {electrode} surface concentration {c[k]:g} mol/m^3 "
            f"left (0, {c_max:g}) at sample {k}")
    return c


def bulk_concentration(params: CellParameters, electrode: str,
                       profile: CurrentProfile) -> np.ndarray:
    """Integrator-only (volume-averaged) concentration: c0 - q/(F eps L A)."""
    c0, eps_am, L = electrode_fields(electrode, "c0", "eps_am", "L")(params)
    q = trapezoid_integral(profile.current, profile.dt)
    return c0 - q / (params.F * eps_am * L * params.A)


def exchange_current_factors(params: CellParameters, electrode: str, c_surf):
    """(Arrhenius(T) * F, sqrt(c (c_max - c) c_e)): i0 without its k_i.

    The first is ``params.i0_scale``, finite and non-zero by validation.
    Raises DataError where the square-root argument is not positive.
    """
    c_max, c_e = electrode_fields(electrode, "c_max", "c_e")(params)
    c = np.asarray(c_surf, dtype=float)
    arg = c * (c_max - c) * c_e
    bad = np.flatnonzero(np.atleast_1d(arg) <= 0.0)
    if bad.size:
        k_bad = int(bad[0])
        raise DataError(
            f"electrode {electrode} exchange-current argument is non-positive "
            f"at sample {k_bad} (c = {np.atleast_1d(c)[k_bad]:g} mol/m^3)")
    return params.i0_scale(electrode), np.sqrt(arg)


def electrolyte_potential(params: CellParameters,
                          profile: CurrentProfile) -> np.ndarray:
    """phi_e(t): the two electrolyte lags, poles a = e^(-dt/tau) and input
    gains b = gain (1 - a) C1/D_e, as one direct-form filter,
    ((b+ + b-) z^-1 - (b+ a- + b- a+) z^-2) / (1 - (a+ + a-) z^-1 + a+ a- z^-2)."""
    p = params
    a_pos, a_neg = (math.exp(-profile.dt / tau) for tau in electrolyte_time_constants(p))
    scale = c1_coefficient(p) / p.D_e
    b_pos = ELEC_GAIN_POS * p.gamma_p * (1.0 - a_pos) * scale
    b_neg = ELEC_GAIN_NEG * p.gamma_n * (1.0 - a_neg) * scale
    return _linear_filter(np.array([0.0, b_pos + b_neg, -(b_pos * a_neg + b_neg * a_pos)]),
                          np.array([1.0, -(a_pos + a_neg), a_pos * a_neg]),
                          np.asarray(profile.current, dtype=float), -1)


def ohmic_drop(params: CellParameters, current):
    """phi_ohm = -I L_cell/(kappa A)."""
    return -np.asarray(current, dtype=float) * params.L_cell / (params.kappa * params.A)


@dataclass(frozen=True)
class FixedTerms:
    """The theta-free columns of one simulation (see the module docstring).

    ``c_p / k_p`` is eta_p and ``c_n / k_n`` eta_n.  Nothing is checked: a
    k_i small enough makes c_i / k_i overflow to +-inf wherever the current
    is not zero (it stays 0 where it is).
    """

    c_p: np.ndarray               # eta_p at k_p = 1, in V times the unit of k_p
    c_n: np.ndarray
    base: np.ndarray              # (U_p - U_n + phi_ohm) - I R_c [V]


def unit_overpotential(params: CellParameters, electrode: str, current,
                       i0_scale, sqrt_arg) -> np.ndarray:
    """R T0 (-J_i I) / ((i0_scale sqrt_arg) F), eta_i at k_i = 1, from
    ``exchange_current_factors``' two factors.  No check."""
    J = electrode_fields(electrode, "J")(params)
    return (params.R_gas * params.T0 * (-J * np.asarray(current, dtype=float))
            / (i0_scale * sqrt_arg * params.F))


def fixed_terms(params: CellParameters, ocv_p: OcvCurve, ocv_n: OcvCurve,
                profile: CurrentProfile) -> FixedTerms:
    """Every term of the voltage that does not depend on (k_p, k_n, D_e).

    Raises DataError when a surface concentration leaves its valid range.
    """
    p = params
    I = profile.current
    c_p = surface_concentration(p, "p", profile)
    c_n = surface_concentration(p, "n", profile)
    return FixedTerms(
        c_p=unit_overpotential(p, "p", I, *exchange_current_factors(p, "p", c_p)),
        c_n=unit_overpotential(p, "n", I, *exchange_current_factors(p, "n", c_n)),
        base=ocv_p(c_p / p.c_max_p) - ocv_n(c_n / p.c_max_n) + ohmic_drop(p, I)
        - I * p.R_c)


def overpotential(params: CellParameters, fixed: FixedTerms,
                  electrode: str) -> np.ndarray:
    """eta_i = c_i / k_i at the params' k_i, in one pass; no check."""
    return (electrode_fields(electrode, "c")(fixed)
            / electrode_fields(electrode, "k")(params))


def terminal_voltage(fixed: FixedTerms, eta_p: np.ndarray, eta_n: np.ndarray,
                     phi_e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """((eta_n - eta_p) + phi_e) + base, into ``out``, in place; no
    finiteness check."""
    np.subtract(eta_n, eta_p, out=out)
    out += phi_e
    out += fixed.base
    return out


def simulate(params: CellParameters, ocv_p: OcvCurve, ocv_n: OcvCurve,
             profile: CurrentProfile) -> np.ndarray:
    """Terminal voltage at each sample of a current profile (discharge
    positive).

    Raises DataError when a surface concentration leaves its range
    or the voltage is not finite.
    """
    check_step(params, profile.dt)
    check_step_floor(params, profile.dt)
    fixed = fixed_terms(params, ocv_p, ocv_n, profile)
    volts = terminal_voltage(fixed, overpotential(params, fixed, "p"),
                             overpotential(params, fixed, "n"),
                             electrolyte_potential(params, profile),
                             np.empty_like(fixed.base))
    if not np.all(np.isfinite(volts)):
        k = int(np.flatnonzero(~np.isfinite(volts))[0])
        raise DataError(f"non-finite terminal voltage at sample {k}")
    return volts
