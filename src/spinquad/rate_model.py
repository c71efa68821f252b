"""Secular (diagonal) reduction of the kinetics: populations and line signs.

When the level splittings dwarf every kinetic rate, coherences decouple and
the state reduces to eigenstate populations.  Spin transfer between bases is
then governed by doubly stochastic matrices T[i, j] = |U[i, j]|^2 built from
the eigenvector unitaries.  This module implements the steady-state population
variations, the MW-induced ODMR line intensities, and their closed-form
small/large-field limits, including the sign-change criterion of the
excited-state resonance.

Conventions: eigenstates are numbered 0..3 in descending energy order.  The
zero-field quadrupole direction is d0 = (-1, -1, +1, +1)/2, whose first two
entries tag the +/-3/2 doublet (energy +D) and last two the +/-1/2 doublet.
A population variation df = eps*d0 therefore has quadrupole -2*eps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hamiltonian import CenterParams, TransitionTable, eigensystem, transition_table
from .kinetics import RateParams

D0 = np.array([-1.0, -1.0, 1.0, 1.0]) / 2.0

COND_LIMIT = 1e8


class IllConditioned(RuntimeError):
    """A rate-model matrix inverse exceeded the conditioning limit."""


@dataclass(frozen=True)
class TransferMatrices:
    """|U|^2 transfer matrices between eigenbases.

    t_g0[i, j] = |<g_i(B)|g_j(0)>|^2, t_e0 likewise for the ES, and
    t_eg[i, j] = |<e_i(B)|g_j(B)>|^2.  Each T is doubly stochastic.
    """

    t_g0: np.ndarray
    t_e0: np.ndarray
    t_eg: np.ndarray

    @property
    def t_ge(self) -> np.ndarray:
        return self.t_eg.T

    @property
    def t_0e(self) -> np.ndarray:
        return self.t_e0.T

    @property
    def t_0g(self) -> np.ndarray:
        return self.t_g0.T


@dataclass(frozen=True)
class PopulationVariation:
    """Traceless eigenstate population variations of both levels."""

    df_g: np.ndarray
    df_e: np.ndarray
    n_e: float


def transfer_matrices(center: CenterParams, bx: float) -> TransferMatrices:
    """Assemble U and T matrices between the B=0, GS(B) and ES(B) eigenbases."""
    v_g = eigensystem("g", center, bx).vectors
    v_e = eigensystem("e", center, bx).vectors
    v_g0 = eigensystem("g", center, 0.0).vectors
    v_e0 = eigensystem("e", center, 0.0).vectors
    return TransferMatrices(
        t_g0=np.abs(v_g.conj().T @ v_g0) ** 2,
        t_e0=np.abs(v_e.conj().T @ v_e0) ** 2,
        t_eg=np.abs(v_e.conj().T @ v_g) ** 2,
    )


def _kappa(rates: RateParams) -> float:
    return (rates.pump * rates.recomb) / (
        (rates.pump + rates.gamma_g) * (rates.recomb + rates.gamma_ms + rates.gamma_e)
    )


def _core_solve(rates: RateParams, tm: TransferMatrices, rhs: np.ndarray) -> np.ndarray:
    core = np.eye(4) - _kappa(rates) * tm.t_eg @ tm.t_ge
    cond = np.linalg.cond(core)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditioned(f"condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return np.linalg.solve(core, rhs)


def solve_population_variations(
    rates: RateParams, tm: TransferMatrices, n_e: float
) -> PopulationVariation:
    """Steady-state df_g, df_e from the secular balance equations.

    df_e comes from the closed form with the resolvent of kappa*T_eg*T_ge;
    df_g is then recovered from the GS balance equation.
    """
    ge_total = rates.recomb + rates.gamma_ms + rates.gamma_e
    pump_frac = rates.pump / (rates.pump + rates.gamma_g)
    source = (rates.eta_g * pump_frac * tm.t_eg @ tm.t_g0 - rates.eta_e * tm.t_e0) @ D0
    df_e = (rates.gamma_ms * n_e / ge_total) * _core_solve(rates, tm, source)
    df_g = (
        rates.eta_g * rates.gamma_ms * n_e * tm.t_g0 @ D0 + rates.recomb * tm.t_ge @ df_e
    ) / (rates.pump + rates.gamma_g)
    return PopulationVariation(df_g=df_g, df_e=df_e, n_e=n_e)


def balance_residual(rates: RateParams, tm: TransferMatrices, pv: PopulationVariation) -> float:
    """Max residual of the two secular balance equations (should be ~0)."""
    r1 = (
        rates.eta_g * rates.gamma_ms * pv.n_e * tm.t_g0 @ D0
        - (rates.pump + rates.gamma_g) * pv.df_g
        + rates.recomb * tm.t_ge @ pv.df_e
    )
    r2 = (
        -rates.eta_e * rates.gamma_ms * pv.n_e * tm.t_e0 @ D0
        + rates.pump * tm.t_eg @ pv.df_g
        - (rates.recomb + rates.gamma_ms + rates.gamma_e) * pv.df_e
    )
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def unit_kick(tt: TransitionTable, i: int, j: int) -> np.ndarray:
    """The kick of a unit df_j - df_i on transition i<->j: |M_ij|^2 at i, -|M_ij|^2 at j."""
    if i == j:
        raise ValueError("i and j must differ")
    _, m2 = tt.lookup(i, j)
    kick = np.zeros(4)
    kick[i], kick[j] = m2, -m2
    return kick


def mw_population_kick(
    tt: TransitionTable, pv: PopulationVariation, level: str, i: int, j: int
) -> np.ndarray:
    """Population transfer rate induced by a resonant MW on transition i<->j.

    f_dot_k = |M_ij|^2 * (df_j - df_i) * (delta_ik - delta_jk); the two
    nonzero entries are opposite, so the kick conserves the level population.
    Indices are 0-based descending-energy eigenstate numbers.
    """
    df = pv.df_g if level == "g" else pv.df_e
    return (df[j] - df[i]) * unit_kick(tt, i, j)


def odmr_line_intensity(
    rates: RateParams, tm: TransferMatrices, kick: np.ndarray, level: str
) -> float:
    """Signed ODMR line intensity produced by a population kick.

    ES kick:  -eta_e * d0 . T_0e [1 - kappa T_eg T_ge]^-1 f_dot
    GS kick:  -eta_e * d0 . T_0e [1 - kappa T_eg T_ge]^-1 T_eg f_dot

    (proportional units; common positive prefactors are dropped).
    """
    if level == "g":
        propagated = _core_solve(rates, tm, tm.t_eg @ kick)
    elif level == "e":
        propagated = _core_solve(rates, tm, kick)
    else:
        raise ValueError("level must be 'g' or 'e'")
    return float(-rates.eta_e * D0 @ tm.t_0e @ propagated)


def transition_tables(center: CenterParams, bx: float) -> dict:
    """{level: transition_table(level, center, bx)} for both levels."""
    return {level: transition_table(level, center, bx) for level in ("g", "e")}


def line_intensities(
    rates: RateParams, tm: TransferMatrices, pv: PopulationVariation, tables: dict, keys
) -> dict:
    """{(level, i, j): line intensity of the MW kick of ``pv``} in the order of ``keys``.

    ``tables`` maps each level to its ``transition_table`` at the field of ``tm``.
    """
    kicks = {(lv, i, j): mw_population_kick(tables[lv], pv, lv, i, j) for lv, i, j in keys}
    return {key: odmr_line_intensity(rates, tm, kick, key[0]) for key, kick in kicks.items()}


def rate_model_lines(
    center: CenterParams, rates: RateParams, bx: float, n_e: float, m2_floor: float = 1e-9
) -> dict:
    """All secular ODMR lines at one field: {(level, i, j): (freq, intensity)}.

    Transitions with squared matrix element below ``m2_floor`` are skipped.
    ``n_e`` is the excited-state population (taken from the full model's
    steady state, which is the single source of truth for it).
    """
    tm = transfer_matrices(center, bx)
    tables = transition_tables(center, bx)
    freqs = {
        (level, int(i), int(j)): float(freq)
        for level, tt in tables.items()
        for i, j, freq, m2 in zip(tt.i, tt.j, tt.freq, tt.m2)
        if m2 >= m2_floor and freq > 0
    }
    lines = line_intensities(rates, tm, solve_population_variations(rates, tm, n_e), tables, freqs)
    return {key: (freqs[key], value) for key, value in lines.items()}


def small_field_x(b_g: float) -> float:
    """Quadrupole survival factor x(b) = (1 + 3/(1 + b^2 + b^4))/4.

    This is the d0-eigenvalue of T_0g T_g0: the fraction of spin quadrupole
    preserved by one GS->ES->GS optical cycle at reduced field b = gyro*B/D_g.
    Decreases from 1 at b=0 to 1/4 at large field.
    """
    if b_g < 0:
        raise ValueError("b_g must be >= 0")
    return 0.25 * (1.0 + 3.0 / (1.0 + b_g**2 + b_g**4))


def small_field_crossover(ratio: float) -> float:
    """Reduced field b_g where x(b_g) = ratio, for ratio in (1/4, 1]."""
    if not 0.25 < ratio <= 1.0:
        raise ValueError("ratio must lie in (1/4, 1]")
    # x = (1 + 3/(1+u+u^2))/4 with u = b^2  =>  u^2 + u + 1 = 3/(4x-1)
    rhs = 3.0 / (4.0 * ratio - 1.0)
    u = (-1.0 + np.sqrt(max(4.0 * rhs - 3.0, 0.0))) / 2.0
    return float(np.sqrt(max(u, 0.0)))


def _check_hierarchy(rates: RateParams) -> None:
    if not rates.in_hierarchy:
        warnings.warn(
            "rate hierarchy gamma_g, gamma_e, gamma_ms << pump, recomb not "
            "satisfied; closed-form small-field expressions are approximate",
            stacklevel=3,
        )


def es_signal_small_field(rates: RateParams, b_g: float) -> float:
    """Sign-bearing proxy of the ES ODMR signal at small fields.

    Proportional to eta_e*eta_g*(x - eta_e/eta_g): positive while the optical
    cycle preserves enough quadrupole (x above the selectivity ratio), turning
    negative once the transverse field destroys it.  The resolvent denominator
    uses the exact 1 - x*kappa (which tends to 1 - x in the rate hierarchy) so
    the expression stays finite at b_g = 0.
    """
    _check_hierarchy(rates)
    if rates.eta_g == 0:
        return 0.0
    x = small_field_x(b_g)
    kappa = _kappa(rates)
    n_e = rates.pump / (rates.recomb + rates.gamma_ms + 1.5 * rates.pump)
    prefac = rates.gamma_ms * n_e / ((1.0 - x * kappa) * rates.recomb)
    return float(prefac * rates.eta_e * rates.eta_g * (x - rates.eta_e / rates.eta_g))


def gs_signal_sign_small_field(rates: RateParams) -> float:
    """Small-field GS line signal, proportional to eta_e*eta_g*(1 - eta_e/eta_g)."""
    if rates.eta_g == 0:
        return 0.0
    return float(rates.eta_e * rates.eta_g * (1.0 - rates.eta_e / rates.eta_g))


def large_field_signals(rates: RateParams, b_e: float) -> tuple[float, float]:
    """GS line signals when the Zeeman energy dwarfs the GS splitting.

    Returns (half_to_threehalf, half_to_minus_half) as functions of the
    reduced ES field b_e = gyro*B/D_e.  The -1/2 <-> +1/2 component is never
    positive; the +/-1/2 <-> +/-3/2 component is positive for
    eta_e/eta_g < 1, negative for eta_e/eta_g > 2, and changes sign twice
    (at reciprocal reduced fields) in between.
    """
    u = b_e**2
    denom = 1.0 + u + u**2
    ratio = rates.eta_e / rates.eta_g if rates.eta_g != 0 else np.inf
    outer = (
        (rates.eta_e * rates.eta_g / 4.0)
        * (1.0 + u)
        * (1.0 - ratio * (2.0 - u + 2.0 * u**2) / (2.0 * denom))
        if rates.eta_g != 0
        else -(rates.eta_e**2 / 4.0) * (1.0 + u) * (2.0 - u + 2.0 * u**2) / (2.0 * denom)
    )
    central = -(5.0 * rates.eta_e**2 / 4.0) * u * (1.0 + u) / denom
    return float(outer), float(central)
