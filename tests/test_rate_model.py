import numpy as np
import pytest
from scipy.optimize import brentq

from spinquad.hamiltonian import transition_table
from spinquad.kinetics import RateParams, steady_state_at
from spinquad.rate_model import (
    D0,
    IllConditioned,
    TransferMatrices,
    balance_residual,
    es_signal_small_field,
    gs_signal_sign_small_field,
    large_field_signals,
    mw_population_kick,
    odmr_line_intensity,
    rate_model_lines,
    small_field_crossover,
    small_field_x,
    solve_population_variations,
    transfer_matrices,
)


def test_transfer_identity_at_zero_field(center):
    tm = transfer_matrices(center, 0.0)
    for t in (tm.t_g0, tm.t_e0, tm.t_eg):
        assert np.max(np.abs(t - np.eye(4))) < 1e-12


def test_transfer_identity_at_huge_field(center):
    # both levels quantized along x: common eigenbasis
    tm = transfer_matrices(center, 1000.0)
    assert np.max(np.abs(tm.t_eg - np.eye(4))) < 1e-3


def test_transfer_doubly_stochastic(center):
    rng = np.random.default_rng(17)
    for _ in range(50):
        tm = transfer_matrices(center, float(rng.uniform(0, 25)))
        for t in (tm.t_g0, tm.t_e0, tm.t_eg):
            assert np.max(np.abs(t.sum(axis=0) - 1.0)) < 1e-10
            assert np.max(np.abs(t.sum(axis=1) - 1.0)) < 1e-10
            assert np.all(t >= -1e-12) and np.all(t <= 1.0 + 1e-12)
        assert np.array_equal(tm.t_ge, tm.t_eg.T)


def test_population_variations_vanish_without_selectivity(center):
    r = RateParams(eta_g=0.0, eta_e=0.0)
    pv = solve_population_variations(r, transfer_matrices(center, 3.0), 0.08)
    assert np.max(np.abs(pv.df_g)) < 1e-15
    assert np.max(np.abs(pv.df_e)) < 1e-15


def test_population_variations_traceless_and_consistent(center, rates):
    rng = np.random.default_rng(23)
    for _ in range(20):
        tm = transfer_matrices(center, float(rng.uniform(0, 15)))
        pv = solve_population_variations(rates, tm, 0.08)
        assert abs(pv.df_g.sum()) < 1e-12
        assert abs(pv.df_e.sum()) < 1e-12
        assert balance_residual(rates, tm, pv) < 1e-10


def test_es_quadrupole_sign_vs_field(center, rates):
    from spinquad.multipoles import multipoles_from_populations

    n_e = steady_state_at(center, rates, 0.0).n_e
    pv0 = solve_population_variations(rates, transfer_matrices(center, 0.0), n_e)
    # d0 . df_e > 0 at zero field, i.e. the quadrupole itself is negative
    assert D0 @ pv0.df_e > 0
    quad0, _ = multipoles_from_populations(pv0.df_e, 0.0)
    assert quad0 < 0

    bx = 15.0
    pv15 = solve_population_variations(rates, transfer_matrices(center, bx), n_e)
    b_e = center.gyro * bx / center.d_e
    quad15, _ = multipoles_from_populations(pv15.df_e, b_e)
    assert quad15 > 0


def test_ill_conditioned_raises():
    r = RateParams(gamma_ms=0.0, gamma_g=0.0, gamma_e=0.0)  # kappa = 1 exactly
    eye = np.eye(4)
    tm = TransferMatrices(t_g0=eye, t_e0=eye, t_eg=eye)
    with pytest.raises(IllConditioned):
        solve_population_variations(r, tm, 0.1)


def test_mw_kick_structure(center, rates):
    tt = transition_table("g", center, 5.0)
    pv = solve_population_variations(rates, transfer_matrices(center, 5.0), 0.08)
    kick = mw_population_kick(tt, pv, "g", 0, 1)
    assert kick.sum() == pytest.approx(0.0, abs=1e-15)
    assert kick[0] == -kick[1]
    assert kick[2] == kick[3] == 0.0
    with pytest.raises(ValueError):
        mw_population_kick(tt, pv, "g", 1, 1)


def test_mw_kick_trivial_zeros(center, rates):
    # saturated transition: equal populations kick nothing
    tt = transition_table("g", center, 5.0)
    pv_flat = solve_population_variations(
        RateParams(eta_g=0.0, eta_e=0.0), transfer_matrices(center, 5.0), 0.08
    )
    assert np.max(np.abs(mw_population_kick(tt, pv_flat, "g", 0, 1))) == 0.0
    # forbidden transition: zero matrix element kicks nothing
    tt0 = transition_table("g", center, 0.0)
    pv = solve_population_variations(rates, transfer_matrices(center, 0.0), 0.08)
    assert np.max(np.abs(mw_population_kick(tt0, pv, "g", 0, 1))) < 1e-12


def test_line_intensity_zero_kick(center, rates):
    tm = transfer_matrices(center, 5.0)
    assert odmr_line_intensity(rates, tm, np.zeros(4), "g") == 0.0
    with pytest.raises(ValueError):
        odmr_line_intensity(rates, tm, np.zeros(4), "x")


def test_line_intensity_signs(center, rates):
    n_e0 = steady_state_at(center, rates, 0.0).n_e
    tm0 = transfer_matrices(center, 0.0)
    pv0 = solve_population_variations(rates, tm0, n_e0)
    tt0 = transition_table("g", center, 0.0)
    # the 70 MHz zero-field GS line (states 0 <-> 2) is positive
    kick = mw_population_kick(tt0, pv0, "g", 0, 2)
    assert odmr_line_intensity(rates, tm0, kick, "g") > 0
    # the -1/2 <-> +1/2 central GS line at 10 mT is negative
    lines = rate_model_lines(center, rates, 10.0, steady_state_at(center, rates, 10.0).n_e)
    assert lines[("g", 1, 2)][1] < 0


def test_small_field_x_limits():
    assert small_field_x(0.0) == 1.0
    assert small_field_x(1e6) == pytest.approx(0.25, abs=1e-10)
    grid = np.linspace(0.0, 10.0, 100)
    vals = [small_field_x(b) for b in grid]
    assert np.all(np.diff(vals) < 0)
    assert all(0.25 < v <= 1.0 for v in vals)
    with pytest.raises(ValueError):
        small_field_x(-1.0)


def test_small_field_x_root_bisection_oracle():
    # oracle: bisect 1 + b^2 + b^4 = 5/3 (i.e. x = 0.7) without the closed form
    f = lambda b: 1.0 + b * b + b**4 - 5.0 / 3.0
    lo, hi = 0.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    b_oracle = 0.5 * (lo + hi)
    assert b_oracle == pytest.approx(0.676335, abs=1e-5)
    assert small_field_crossover(0.7) == pytest.approx(b_oracle, abs=1e-9)
    assert small_field_x(b_oracle) == pytest.approx(0.7, abs=1e-9)


def test_small_field_crossover_inverse_property():
    rng = np.random.default_rng(31)
    for _ in range(50):
        ratio = float(rng.uniform(0.26, 1.0))
        assert small_field_x(small_field_crossover(ratio)) == pytest.approx(ratio, abs=1e-12)
    with pytest.raises(ValueError):
        small_field_crossover(0.2)


def test_es_signal_small_field(rates):
    assert es_signal_small_field(rates, 0.0) > 0  # x = 1 > 0.7
    assert es_signal_small_field(rates, 10.0) < 0  # x -> 1/4 < 0.7
    # sign flips exactly where x(b) crosses eta_e/eta_g
    b_star = small_field_crossover(rates.eta_e / rates.eta_g)
    root = brentq(lambda b: es_signal_small_field(rates, b), 0.1, 3.0, xtol=1e-12)
    assert root == pytest.approx(b_star, abs=1e-9)
    assert es_signal_small_field(RateParams(eta_g=0.0), 1.0) == 0.0


def test_es_signal_warns_outside_hierarchy():
    bad = RateParams(gamma_g=1.0)  # gamma_g = pump
    with pytest.warns(UserWarning, match="hierarchy"):
        es_signal_small_field(bad, 0.5)


def test_gs_signal_small_field():
    assert gs_signal_sign_small_field(RateParams(eta_g=0.5, eta_e=0.35)) > 0
    assert gs_signal_sign_small_field(RateParams(eta_g=0.5, eta_e=0.5)) == pytest.approx(0.0)
    assert gs_signal_sign_small_field(RateParams(eta_g=0.4, eta_e=0.6)) < 0


def test_large_field_signal_structure():
    r = RateParams(eta_g=0.5, eta_e=0.35)
    grid = np.linspace(0.05, 5.0, 60)
    outer = np.array([large_field_signals(r, b)[0] for b in grid])
    central = np.array([large_field_signals(r, b)[1] for b in grid])
    assert np.all(outer > 0)  # eta_e/eta_g = 0.7 < 1
    assert np.all(central < 0)
    assert large_field_signals(r, 0.0)[1] == 0.0
    r_big = RateParams(eta_g=0.2, eta_e=0.5)  # ratio 2.5 > 2
    assert all(large_field_signals(r_big, b)[0] < 0 for b in grid)


def test_large_field_double_sign_change():
    r = RateParams(eta_g=0.4, eta_e=0.6)  # ratio 1.5 in (1, 2)
    f = lambda b: large_field_signals(r, b)[0]
    root1 = brentq(f, 0.05, 1.0, xtol=1e-12)
    root2 = brentq(f, 1.0, 5.0, xtol=1e-12)
    assert root1 * root2 == pytest.approx(1.0, abs=1e-6)


def test_x_is_transfer_matrix_eigenvalue(center):
    # T_0g T_g0 d0 = x(b) d0 with x = (1 + 3/(1+b^2+b^4))/4
    for b in (0.0, 0.3, 0.676, 1.0, 2.0, 5.0):
        bx = b * center.d_g / center.gyro
        tm = transfer_matrices(center, bx)
        lhs = tm.t_0g @ tm.t_g0 @ D0
        assert np.max(np.abs(lhs - small_field_x(b) * D0)) < 1e-8


def test_large_field_formula_vs_general_chain(center):
    # The general chain (verified against an exact secular population oracle)
    # and the printed closed forms agree in sign everywhere, but their
    # outer/central relative normalization differs by an asymptotic factor 2
    # (see decisions ledger); the factor is pinned here so regressions in
    # either side surface.
    r = RateParams(gamma_ms=0.1, gamma_g=1e-4, gamma_e=1e-4)
    for b_g in (40.0, 80.0):
        bx = b_g * center.d_g / center.gyro
        b_e = center.gyro * bx / center.d_e
        n_e = steady_state_at(center, r, bx).n_e
        lines = rate_model_lines(center, r, bx, n_e, m2_floor=1e-9)
        outer, central = large_field_signals(r, b_e)
        assert np.sign(lines[("g", 0, 1)][1]) == np.sign(outer)
        assert np.sign(lines[("g", 2, 3)][1]) == np.sign(outer)
        assert np.sign(lines[("g", 1, 2)][1]) == np.sign(central)
        ratio_chain = lines[("g", 0, 1)][1] / lines[("g", 1, 2)][1]
        ratio_formula = outer / central
        assert 1.7 < ratio_chain / ratio_formula < 2.3
