import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_valid_rates
import spinquad.kinetics as kinetics
from helpers import loop_generator, lstsq_steady_coords, time_evolve
from spinquad.hamiltonian import CenterParams
from spinquad.kinetics import (
    NDIM,
    NULL_RTOL,
    DegenerateKernel,
    InvalidRates,
    RateParams,
    SpinState,
    build_generator,
    coords_to_state,
    generator_stack,
    hermitian_to_coords,
    kinetic_rhs,
    level_report,
    pl_intensity,
    state_to_coords,
    steady_state,
    steady_state_at,
    steady_states,
    trace_functional,
)
from spinquad.multipoles import dipole_x, quadrupole


def test_branch_rates():
    r = RateParams(gamma_ms=2.0, eta_g=0.5, eta_e=-0.25)
    assert r.k_g_half == pytest.approx(3.0)
    assert r.k_g_three == pytest.approx(1.0)
    assert r.k_e_half == pytest.approx(1.5)
    assert r.k_e_three == pytest.approx(2.5)


def test_invalid_rates():
    with pytest.raises(InvalidRates):
        RateParams(eta_e=1.5)
    with pytest.raises(InvalidRates):
        RateParams(pump=-0.1)


def test_rhs_zero_rates_projector_state(center, ops):
    r = RateParams(pump=0, recomb=0, gamma_ms=0, eta_g=0, eta_e=0, gamma_g=0, gamma_e=0)
    s = SpinState(
        rho_g=0.3 * ops.p_half + 0.1 * ops.p_three_half,
        rho_e=0.05 * ops.p_half + 0.15 * ops.p_three_half,
        n_m=0.0,
    )
    d = kinetic_rhs(center, r, 0.0, s)
    # projector states commute with the diagonal zero-field Hamiltonians
    assert np.max(np.abs(d.rho_g)) < 1e-14
    assert np.max(np.abs(d.rho_e)) < 1e-14
    assert d.n_m == 0.0


def test_rhs_all_population_in_ms(center, rates, ops):
    s = SpinState(rho_g=np.zeros((4, 4), complex), rho_e=np.zeros((4, 4), complex), n_m=1.0)
    d = kinetic_rhs(center, rates, 0.0, s)
    expect = 0.5 * (rates.k_g_half * ops.p_half + rates.k_g_three * ops.p_three_half)
    assert np.max(np.abs(d.rho_g - expect)) < 1e-14
    assert np.max(np.abs(d.rho_e)) < 1e-14
    assert d.n_m == pytest.approx(-(rates.k_g_half + rates.k_g_three))


def test_trace_left_null_vector(center):
    rng = np.random.default_rng(11)
    t = trace_functional()
    for _ in range(50):
        gen = build_generator(center, random_valid_rates(rng), float(rng.uniform(0, 20)))
        assert np.max(np.abs(t @ gen.matrix)) < 1e-10


def test_generator_matches_direct_rhs(center, rates):
    # internal consistency: the 33x33 matrix reproduces the term-by-term
    # evaluation on arbitrary Hermitian-coordinate states
    rng = np.random.default_rng(5)
    gen = build_generator(center, rates, 4.0)
    for _ in range(10):
        x = rng.normal(size=NDIM)
        direct = state_to_coords(kinetic_rhs(center, rates, 4.0, coords_to_state(x)))
        assert np.max(np.abs(gen.matrix @ x - direct)) < 1e-10 * max(1.0, np.max(np.abs(direct)))


def test_generator_matches_column_loop():
    # the batched probe must reproduce the column-by-column assembly bit for
    # bit, signs of zeros included, and hand LAPACK a C-ordered matrix
    rng = np.random.default_rng(21)
    for k in range(30):
        center = CenterParams(d_g=float(rng.uniform(5, 100)), d_e=float(rng.uniform(50, 400)),
                              g_factor=float(rng.uniform(1.5, 2.5)))
        bx = 0.0 if k == 0 else float(rng.uniform(0, 20))
        rates = random_valid_rates(rng)
        gen = build_generator(center, rates, bx)
        ref = loop_generator(center, rates, bx)
        assert np.array_equal(gen.matrix, ref)
        assert np.array_equal(np.signbit(gen.matrix), np.signbit(ref))
        assert gen.matrix.flags.c_contiguous


def test_generator_stack_matches_column_loop():
    # G(0) plus the Zeeman term over a field grid: every slice equals the
    # column-by-column generator at that field, signs of zeros included,
    # also with a decoupled excited-state g-factor and at tiny and subnormal
    # fields
    rng = np.random.default_rng(22)
    for k in range(9):
        g_e = float(rng.uniform(1.5, 2.5)) if k >= 5 else None
        center = CenterParams(d_g=float(rng.uniform(5, 100)), d_e=float(rng.uniform(50, 400)),
                              g_factor=float(rng.uniform(1.5, 2.5)), g_factor_e=g_e)
        rates = random_valid_rates(rng)
        fields = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 5e-324],
                                 rng.uniform(-20, 20, 7)])
        stack = generator_stack(center, rates, fields)
        assert stack.shape == (fields.size, NDIM, NDIM) and stack.flags.c_contiguous
        for g, bx in zip(stack, fields):
            ref = loop_generator(center, rates, float(bx))
            assert np.array_equal(g, ref)
            assert np.array_equal(np.signbit(g), np.signbit(ref))


@pytest.mark.parametrize("block", [4, kinetics.SWEEP_BLOCK])
def test_steady_states_match_per_field(center, block, monkeypatch):
    # 11 fields: with a block of 4 the last block is partial
    monkeypatch.setattr(kinetics, "SWEEP_BLOCK", block)
    rng = np.random.default_rng(23)
    rates = random_valid_rates(rng)
    fields = np.concatenate([[0.0], rng.uniform(0, 20, 10)])
    states = steady_states(center, rates, fields)
    assert states.rho_g.shape == (fields.size, 4, 4)
    for k, bx in enumerate(fields):
        one = steady_state_at(center, rates, float(bx))
        assert np.array_equal(states[k].rho_g, one.rho_g)
        assert np.array_equal(states[k].rho_e, one.rho_e)
        assert states[k].n_m == one.n_m
        # the least-squares oracle rounds differently (it is the less accurate
        # of the two, see test_mp_oracle); agreement to 1e-10 of max|x|
        ref = lstsq_steady_coords(loop_generator(center, rates, float(bx)))
        x = state_to_coords(states[k])
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
    # the batched multipoles and level populations are the per-field values
    for batch, one in (
        (quadrupole(states.rho_g), lambda s: quadrupole(s.rho_g)),
        (quadrupole(states.rho_e), lambda s: quadrupole(s.rho_e)),
        (dipole_x(states.rho_g), lambda s: dipole_x(s.rho_g)),
        (dipole_x(states.rho_e), lambda s: dipole_x(s.rho_e)),
        (states.n_g, lambda s: s.n_g),
        (states.n_e, lambda s: s.n_e),
    ):
        assert batch.shape == fields.shape
        assert np.array_equal(batch, [one(states[k]) for k in range(fields.size)])


def test_steady_states_name_the_degenerate_field(center):
    # the kernel checks run before the bordered solve, so a degenerate kernel
    # is never a LinAlgError; on a grid the first field is named
    r = RateParams(pump=0, recomb=0, gamma_ms=0, eta_g=0, eta_e=0, gamma_g=0, gamma_e=0)
    for grid in ([0.0], [0.5], [7.5], [15.0], np.linspace(0.5, 20.0, 70)):
        with pytest.raises(DegenerateKernel, match=f"at {grid[0]} mT"):
            steady_states(center, r, grid)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=9))
def test_steady_states_properties(seed, fields):
    # every state of a batch is a density-matrix pair of total trace 1 in the
    # kernel of its generator, and it is the one-field state bit for bit
    center = CenterParams()
    rates = random_valid_rates(np.random.default_rng(seed))
    fields = np.array(fields)
    states = steady_states(center, rates, fields)
    assert np.all(np.abs(states.total() - 1.0) <= 1e-9)
    for rho in (states.rho_g, states.rho_e):
        assert np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj())) <= 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-9
    assert np.min(states.n_m) >= -1e-9
    gens = generator_stack(center, rates, fields)
    residual = np.linalg.norm(gens @ state_to_coords(states)[..., None], axis=(1, 2))
    assert np.all(residual <= NULL_RTOL * np.linalg.norm(gens, axis=(1, 2)))
    for k, bx in enumerate(fields):
        one = steady_state_at(center, rates, float(bx))
        assert np.array_equal(states[k].rho_g, one.rho_g)
        assert np.array_equal(states[k].rho_e, one.rho_e)
        assert states[k].n_m == one.n_m


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sweep_norms_are_the_per_field_norms(seed):
    # the stacked SVD's largest singular values are |G|_2 of each generator,
    # bit for bit, so the pole gate needs no SVD of its own
    rates = random_valid_rates(np.random.default_rng(seed))
    fields = np.linspace(0.0, 15.0, kinetics.SWEEP_BLOCK + 3)
    (gens, _, norms), (tail, _, tail_norms) = kinetics.sweep_blocks(CenterParams(), rates, fields)
    for g, norm in zip([*gens, *tail], [*norms, *tail_norms]):
        assert norm == np.linalg.norm(g, 2)


def test_trace_free_zero_mode_raises_degenerate_kernel():
    # a conservative generator (t G = 0) with a one-dimensional kernel whose
    # state has zero trace: coordinate 0 feeds the trace-free coordinate 4,
    # the zero mode, and every other traced coordinate drains into 0.  The
    # bordered matrix is singular; it is reported as DegenerateKernel.
    t = trace_functional()
    g = -np.eye(NDIM)
    g[0, np.flatnonzero(t)[1:]] = 1.0
    g[:, 0] = 0.0
    g[4, 0] = 1.0
    g[:, 4] = 0.0
    assert np.max(np.abs(t @ g)) == 0.0
    with pytest.raises(DegenerateKernel, match="at 3.0 mT"):
        kinetics._kernel_coords(g[None], [3.0])


def test_hermiticity_preserved(center, rates):
    rng = np.random.default_rng(6)
    x = rng.normal(size=NDIM)
    d = kinetic_rhs(center, rates, 7.7, coords_to_state(x))
    assert np.max(np.abs(d.rho_g - d.rho_g.conj().T)) < 1e-12
    assert np.max(np.abs(d.rho_e - d.rho_e.conj().T)) < 1e-12


def test_steady_state_unpolarized_without_selectivity(center):
    r = RateParams(eta_g=0.0, eta_e=0.0)
    s = steady_state_at(center, r, 0.0)
    # no spin selectivity: maximally mixed spin in both levels
    assert np.max(np.abs(s.rho_g - np.trace(s.rho_g) / 4 * np.eye(4))) < 1e-12
    assert np.max(np.abs(s.rho_e - np.trace(s.rho_e) / 4 * np.eye(4))) < 1e-12
    # sector ratio set by rate balance: P*N_g = (recomb + gamma_ms)*N_e
    assert r.pump * s.n_g == pytest.approx((r.recomb + r.gamma_ms) * s.n_e, rel=1e-9)


def test_steady_state_quadrupoles_negative(center, rates):
    s = steady_state_at(center, rates, 0.0)
    assert quadrupole(s.rho_g) < 0
    assert quadrupole(s.rho_e) < 0


def test_steady_state_no_dipole_at_zero_field(center, rates):
    s = steady_state_at(center, rates, 0.0)
    assert abs(dipole_x(s.rho_g)) < 1e-10
    assert abs(dipole_x(s.rho_e)) < 1e-10


def test_steady_state_zero_field_block_structure(center, rates, ops):
    s = steady_state_at(center, rates, 0.0)
    for rho in (s.rho_g, s.rho_e):
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) < 1e-10
        d = np.diag(rho).real
        assert d[0] == pytest.approx(d[3], abs=1e-10)  # m <-> -m symmetry
        assert d[1] == pytest.approx(d[2], abs=1e-10)
        assert abs(np.trace(rho @ ops.sy).real) < 1e-10


def test_degenerate_kernel_raises(center):
    # without rates the kernel is 17-dimensional at 0 mT and 9-dimensional in
    # a field, where the smallest singular value comes out exactly 0.0
    r = RateParams(pump=0, recomb=0, gamma_ms=0, eta_g=0, eta_e=0, gamma_g=0, gamma_e=0)
    for bx in (0.0, 0.5, 7.5, 15.0):
        with pytest.raises(DegenerateKernel):
            steady_state(build_generator(center, r, bx))


def test_generator_spectrum_stability(center):
    rng = np.random.default_rng(21)
    for _ in range(5):
        gen = build_generator(center, random_valid_rates(rng), float(rng.uniform(0, 15)))
        eigvals = np.linalg.eigvals(gen.matrix)
        order = np.argsort(-eigvals.real)
        assert abs(eigvals[order[0]].real) < 1e-9 * max(1.0, np.linalg.norm(gen.matrix))
        assert eigvals[order[1]].real < -1e-6


def test_steady_state_positivity_sweep(center):
    rng = np.random.default_rng(100)
    for _ in range(100):
        s = steady_state_at(center, random_valid_rates(rng), float(rng.uniform(0, 20)))
        for rho in (s.rho_g, s.rho_e):
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-9
        assert s.n_m >= -1e-9


def test_time_evolve_identity_at_zero(center, rates):
    gen = build_generator(center, rates, 2.0)
    rng = np.random.default_rng(8)
    x = rng.normal(size=NDIM)
    s0 = coords_to_state(x)
    s = time_evolve(gen, s0, 0.0)
    assert np.array_equal(state_to_coords(s), x)
    with pytest.raises(ValueError):
        time_evolve(gen, s0, -1.0)


def test_time_evolve_reaches_steady_state(center, rates):
    # oracle: long integration must land on the kernel of the generator
    gen = build_generator(center, rates, 7.0)
    target = steady_state(gen)
    rho0 = np.zeros((4, 4), complex)
    rho0[0, 0] = 1.0
    s0 = SpinState(rho_g=rho0, rho_e=np.zeros((4, 4), complex), n_m=0.0)
    t_long = 100.0 / min(rates.gamma_g, rates.gamma_e, rates.gamma_ms, rates.pump, rates.recomb)
    s = time_evolve(gen, s0, t_long)
    assert np.max(np.abs(state_to_coords(s) - state_to_coords(target))) < 1e-6


def test_time_evolve_conserves_trace(center, rates):
    gen = build_generator(center, rates, 3.0)
    rho0 = np.eye(4, dtype=complex) / 5.0
    s0 = SpinState(rho_g=rho0, rho_e=rho0 * 0.2, n_m=1.0 - np.trace(rho0).real * 1.2)
    for t in (0.01, 0.5, 5.0, 50.0):
        s = time_evolve(gen, s0, t)
        assert s.total() == pytest.approx(s0.total(), abs=1e-8)


def test_pl_intensity(center, rates):
    zero = SpinState(rho_g=np.eye(4, dtype=complex) / 4, rho_e=np.zeros((4, 4), complex), n_m=0.0)
    assert pl_intensity(rates, zero) == 0.0
    s = steady_state_at(center, rates, 0.0)
    assert pl_intensity(RateParams(recomb=0.0), s) == 0.0
    assert pl_intensity(rates, s) == pytest.approx(rates.recomb * s.n_e)


def test_level_report_population_patterns(center, rates):
    rep0 = level_report(center, rates, 0.0, steady_state_at(center, rates, 0.0))
    # zero field: +/-1/2 doublet (descending indices 2, 3) preferentially
    # populated in both levels
    for level in ("g", "e"):
        p = rep0[f"populations_{level}"]
        assert min(p[2], p[3]) > max(p[0], p[1])
    rep_hi = level_report(center, rates, 20.0, steady_state_at(center, rates, 20.0))
    pe = rep_hi["populations_e"]
    # far above the ES crossover the +/-3/2_x states (outer indices) dominate
    assert pe[0] > pe[1] and pe[3] > pe[2]


def test_level_report_over_fields_is_per_field(center, rates):
    # one call on a steady_states batch equals the one-field calls bit for bit
    fields = np.linspace(0.0, 15.0, 31)
    states = steady_states(center, rates, fields)
    batch = level_report(center, rates, fields, states)
    for k, bx in enumerate(fields):
        one = level_report(center, rates, float(bx), states[k])
        assert batch.keys() == one.keys()
        for key, value in one.items():
            assert np.array_equal(batch[key][k], value)


def test_level_report_population_sums(center, rates):
    s = steady_state_at(center, rates, 5.0)
    rep = level_report(center, rates, 5.0, s)
    assert rep["populations_g"].sum() == pytest.approx(s.n_g, abs=1e-10)
    assert rep["populations_e"].sum() == pytest.approx(s.n_e, abs=1e-10)
    assert np.all(rep["brightness_g"] >= 0) and np.all(rep["brightness_e"] >= 0)


def test_coordinate_roundtrip():
    from spinquad.kinetics import coords_to_hermitian

    rng = np.random.default_rng(13)
    x = rng.normal(size=16)
    m = coords_to_hermitian(x)
    assert np.max(np.abs(m - m.conj().T)) == 0.0
    assert np.array_equal(hermitian_to_coords(m), x)
