import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from helpers import loop_husimi
from spinquad.hamiltonian import eigensystem
from spinquad.kinetics import steady_state_at
from spinquad.multipoles import (
    ES_OBSERVED,
    PeakAreaSet,
    SingularExtraction,
    UnnormalizedInput,
    ZeroTrace,
    dipole_x,
    extract_from_peak_areas,
    husimi,
    model_peak_areas,
    multipoles_from_populations,
    peak_areas_from_json,
    quadrupole,
)
from spinquad.rate_model import D0, odmr_line_intensity, transfer_matrices
from spinquad.spin_algebra import rotation_operator


def test_quadrupole_pure_doublets(ops):
    assert quadrupole(ops.p_three_half / 2) == pytest.approx(1.0)
    assert quadrupole(ops.p_half / 2) == pytest.approx(-1.0)
    assert quadrupole(np.eye(4, dtype=complex)) == pytest.approx(0.0)
    with pytest.raises(ZeroTrace):
        quadrupole(np.zeros((4, 4), dtype=complex))


def test_dipole_limits(ops):
    assert dipole_x(np.eye(4, dtype=complex)) == pytest.approx(0.0)
    # |+3/2>_x projector via a pi/2 rotation of the stretched state
    u = rotation_operator(np.pi / 2.0, 0.0)
    psi = u[:, 0]
    rho = np.outer(psi, psi.conj())
    assert dipole_x(rho) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ZeroTrace):
        dipole_x(np.zeros((4, 4), dtype=complex))


def test_husimi_stretched_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    grid = husimi(rho)
    # P(theta) = cos(theta/2)^6 for the +3/2 pole state, phi-independent
    expect = np.cos(grid.thetas[0] / 2.0) ** 6
    assert np.allclose(grid.values[0], expect, atol=1e-12)
    assert np.max(grid.values) <= 1.0 + 1e-12


def test_husimi_maximally_mixed():
    grid = husimi(np.eye(4, dtype=complex) / 4.0, n_theta=11, n_phi=13)
    assert np.allclose(grid.values, 0.25, atol=1e-12)


def test_husimi_normalization_and_bounds(center, rates):
    s = steady_state_at(center, rates, 0.0)
    grid = husimi(s.rho_g)
    assert grid.normalization() == pytest.approx(s.n_g, abs=1e-3)
    lam_max = np.max(np.linalg.eigvalsh(s.rho_g))
    assert np.all(grid.values >= -1e-12)
    assert np.max(grid.values) <= lam_max + 1e-12


def test_husimi_zero_field_symmetries(center, rates):
    s = steady_state_at(center, rates, 0.0)
    grid = husimi(s.rho_g, n_theta=30, n_phi=16)
    # phi-independence (rho commutes with S_z) and z -> -z mirror symmetry
    assert np.max(np.std(grid.values, axis=1)) < 1e-12
    assert np.allclose(grid.values, grid.values[::-1], atol=1e-10)
    # equatorial maximum: +/-1/2 doublet preferentially populated
    profile = grid.values[:, 0]
    assert np.argmax(profile) in (len(profile) // 2 - 1, len(profile) // 2)
    # zero first moment: no x-dipole at zero field
    dth = np.pi / grid.thetas.size
    dph = 2 * np.pi / grid.phis.size
    sx_moment = np.sum(
        grid.values * np.sin(grid.thetas)[:, None] ** 2 * np.cos(grid.phis)[None, :]
    ) * dth * dph
    assert abs(sx_moment) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_husimi_bounded_by_largest_eigenvalue(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng)
    rho = m @ m.conj().T  # PSD
    grid = husimi(rho, n_theta=9, n_phi=9)
    lam = np.linalg.eigvalsh(rho)
    assert np.all(grid.values >= -1e-12)
    assert np.max(grid.values) <= lam[-1] + 1e-9


@pytest.mark.parametrize("bx", [0.0, 7.0, 15.0])
def test_husimi_matches_row_loop(center, rates, bx):
    # one stacked rotation and one einsum give the per-row values bit for bit
    s = steady_state_at(center, rates, bx)
    for rho in (s.rho_g, s.rho_e):
        for grid in ((91, 181), (7, 9), (1, 1)):
            values, ref = husimi(rho, *grid).values, loop_husimi(rho, *grid)
            assert values.shape == grid
            assert np.array_equal(values, ref)
            assert np.array_equal(np.signbit(values), np.signbit(ref))


def test_populations_zero_gives_zero():
    quad, dip = multipoles_from_populations(np.zeros(4), 1.3)
    assert quad == 0.0 and dip == 0.0


def test_populations_requires_traceless():
    with pytest.raises(UnnormalizedInput):
        multipoles_from_populations(np.array([0.1, 0.0, 0.0, 0.0]), 0.0)
    with pytest.raises(UnnormalizedInput):
        multipoles_from_populations(np.array([0.0, 0.0, 0.0]), 0.0)


def test_populations_quadrupole_direction_b0(ops):
    # df = eps*d0 populates the +/-1/2 doublet: the quadrupole is -2*eps.
    # Oracle: trace form on the eigenbasis-diagonal matrix (B=0 eigenbasis is
    # the z-basis reordered to (3/2, -3/2, 1/2, -1/2)).
    eps = 0.01
    q_op = ops.sz @ ops.sz - 1.25 * np.eye(4)
    rho_delta = np.diag([-eps / 2, eps / 2, eps / 2, -eps / 2]).astype(complex)  # z-order
    oracle = np.trace(rho_delta @ q_op).real
    assert oracle == pytest.approx(-2.0 * eps, abs=1e-15)
    quad, dip = multipoles_from_populations(eps * D0, 0.0)
    assert quad == pytest.approx(oracle, abs=1e-12)
    assert dip == pytest.approx(0.0, abs=1e-12)


def test_populations_match_trace_form(center, ops):
    # density-matrix oracle: build the traceless eigenbasis-diagonal matrix
    # and compare operator averages
    # b >= 0.05 keeps the upper Kramers pair resolvable; below that the
    # eigenvectors (and with them "populations per eigenstate") become
    # numerically convention-dependent (splitting ~ 3 b^3 D / 8)
    rng = np.random.default_rng(19)
    q_op = ops.sz @ ops.sz - 1.25 * np.eye(4)
    for _ in range(200):
        b = float(rng.uniform(0.05, 3.0))
        df = rng.normal(size=4)
        df -= df.mean()
        level = "g" if rng.random() < 0.5 else "e"
        d = center.d_g if level == "g" else center.d_e
        bx = b * d / center.gyro
        v = eigensystem(level, center, bx).vectors
        rho = v @ np.diag(df.astype(complex)) @ v.conj().T
        quad, dip = multipoles_from_populations(df, b)
        assert quad == pytest.approx(np.trace(rho @ q_op).real, abs=1e-8)
        assert dip == pytest.approx(np.trace(rho @ ops.sx).real, abs=1e-8)


def test_peak_area_set_validation():
    with pytest.raises(ValueError):
        PeakAreaSet(level="g", areas={(0, 1): 1.0}, field=5.0)
    with pytest.raises(ValueError):
        PeakAreaSet(level="e", areas={(0, 1): 1.0, (1, 2): 2.0}, field=5.0)
    with pytest.raises(ValueError, match="twice"):  # (1, 0) is (0, 1) again
        PeakAreaSet(level="g", areas={(0, 1): 1.0, (1, 0): 2.0, (1, 2): 1.0, (2, 3): 1.0},
                    field=5.0)


def test_extraction_roundtrip_gs(center, rates):
    # synthetic areas from the forward model invert exactly (3 areas + the
    # sum-zero constraint pin all four GS variations)
    bx = 10.0
    gs, es = model_peak_areas(center, rates, bx)
    res = extract_from_peak_areas(gs, es, center, rates, bx)
    from spinquad.kinetics import steady_state_at as ssat
    from spinquad.rate_model import solve_population_variations

    pv = solve_population_variations(rates, transfer_matrices(center, bx), ssat(center, rates, bx).n_e)
    corr = res.df_g @ pv.df_g / np.linalg.norm(res.df_g) / np.linalg.norm(pv.df_g)
    assert corr > 1.0 - 1e-9
    assert np.max(np.abs(res.df_g - pv.df_g)) < 1e-9
    assert res.residual_g < 1e-9


def test_extraction_roundtrip_es_identifiable(center, rates):
    # The four zero-intensity prescriptions confine the recoverable ES
    # variation to the d0 direction; a variation in that subspace round-trips
    # exactly.
    bx = 10.0
    gs, _ = model_peak_areas(center, rates, bx)
    df_e = 0.012 * D0
    tm = transfer_matrices(center, bx)
    from spinquad.hamiltonian import transition_table

    tt = transition_table("e", center, bx)
    areas = {}
    for i, j in ES_OBSERVED:
        _, m2 = tt.lookup(i, j)
        kick = np.zeros(4)
        amp = m2 * (df_e[j] - df_e[i])
        kick[i], kick[j] = amp, -amp
        areas[(i, j)] = odmr_line_intensity(rates, tm, kick, "e")
    es = PeakAreaSet(level="e", areas=areas, field=bx)
    res = extract_from_peak_areas(gs, es, center, rates, bx)
    assert np.max(np.abs(res.df_e - df_e)) < 1e-9
    assert res.residual_e < 1e-9


def test_extraction_zero_areas(center, rates):
    bx = 8.0
    gs = PeakAreaSet(level="g", areas={k: 0.0 for k in ((0, 1), (1, 2), (2, 3))}, field=bx)
    es = PeakAreaSet(level="e", areas={k: 0.0 for k in ES_OBSERVED}, field=bx)
    res = extract_from_peak_areas(gs, es, center, rates, bx)
    assert np.max(np.abs(res.df_g)) == 0.0
    assert np.max(np.abs(res.df_e)) == 0.0
    res_cal = extract_from_peak_areas(gs, es, center, rates, bx, calibrated=True)
    assert res_cal.quad_g == 0.0 and res_cal.quad_e == 0.0


def test_extraction_singular_at_zero_field(center, rates):
    gs = PeakAreaSet(level="g", areas={k: 1.0 for k in ((0, 1), (1, 2), (2, 3))}, field=0.0)
    es = PeakAreaSet(level="e", areas={k: 1.0 for k in ES_OBSERVED}, field=0.0)
    with pytest.warns(UserWarning, match="overlap"):
        with pytest.raises(SingularExtraction):
            extract_from_peak_areas(gs, es, center, rates, 0.0)


def test_extraction_sweep_signs(center, rates):
    # calibrated pipeline over 2..15 mT: GS quadrupole negative throughout,
    # ES quadrupole positive at and above 2 mT (its zero crossing sits below)
    for bx in (2.0, 5.0, 10.0, 15.0):
        gs, es = model_peak_areas(center, rates, bx)
        res = extract_from_peak_areas(gs, es, center, rates, bx, calibrated=True)
        assert res.quad_g < 0
        assert res.quad_e > 0


def test_peak_areas_wire_format():
    doc = {
        "field_mT": 10.0,
        "gs": {"1-2": 0.5, "2-3": -0.25, "3-4": 0.125},
        "es": {"1-4": -0.5, "2-3": -0.75},
    }
    gs, es, field = peak_areas_from_json(doc)
    assert field == 10.0
    assert gs.areas[(0, 1)] == 0.5 and gs.areas[(2, 3)] == 0.125
    assert es.areas[(0, 3)] == -0.5 and es.areas[(1, 2)] == -0.75
    malformed = [
        {"gs": {}, "es": {}},
        [1],
        {"field_mT": 3, "gs": [1, 2], "es": {}},
        {**doc, "field_mT": float("nan")},
        {**doc, "field_mT": "ten"},
        {**doc, "gs": {**doc["gs"], "1-2": {}}},
        {**doc, "es": {**doc["es"], "2-3": float("nan")}},
        {**doc, "es": {**doc["es"], "1-4": float("inf")}},
        {**doc, "gs": {**doc["gs"], "2-1": 2.0}},
    ]
    for bad in malformed:
        with pytest.raises(ValueError):
            peak_areas_from_json(bad)
