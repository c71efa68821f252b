import numpy as np
import pytest

from spinquad.hamiltonian import (
    CenterParams,
    build_hamiltonian,
    crossover_fields,
    eigensystem,
    transition_table,
)

SQRT3 = np.sqrt(3.0)


def test_center_params_defaults(center):
    assert center.gyro == pytest.approx(2.0 * 13.9962, rel=1e-12)
    with pytest.raises(ValueError):
        CenterParams(d_g=-1.0)
    with pytest.raises(TypeError):
        CenterParams(gyro=30.0)  # gyro is derived from g_factor, not a field


def test_gs_zero_field_is_diagonal(center):
    h = build_hamiltonian("g", center, 0.0)
    assert np.max(np.abs(h - np.diag([35.0, -35.0, -35.0, 35.0]))) < 1e-12


def test_es_zero_field_splitting(center):
    es = eigensystem("e", center, 0.0)
    assert np.allclose(es.energies, [220.0, 220.0, -220.0, -220.0])
    tt = transition_table("e", center, 0.0)
    # among transitions with nonzero matrix element, the only nonzero
    # frequency is 2*D_e (the intra-doublet element sits at zero frequency)
    active = {round(f, 9) for f, m2 in zip(tt.freq, tt.m2) if m2 > 1e-9 and f > 1e-9}
    assert active == {440.0}


def test_direct_construction_oracle_5mT(center):
    # hand-written matrix: gyro*5*S_x + 35*diag(1,-1,-1,1), S_x spelled out
    g5 = center.gyro * 5.0
    sx = np.array(
        [
            [0, SQRT3 / 2, 0, 0],
            [SQRT3 / 2, 0, 1, 0],
            [0, 1, 0, SQRT3 / 2],
            [0, 0, SQRT3 / 2, 0],
        ]
    )
    oracle = g5 * sx + 35.0 * np.diag([1.0, -1.0, -1.0, 1.0])
    h = build_hamiltonian("g", center, 5.0)
    assert np.max(np.abs(h - oracle)) < 1e-12
    assert abs(np.trace(h)) < 1e-10


def test_gs_zero_field_line(center):
    tt = transition_table("g", center, 0.0)
    active = sorted(
        (round(f, 9), i, j)
        for i, j, f, m2 in zip(tt.i, tt.j, tt.freq, tt.m2)
        if m2 > 1e-9 and f > 1e-9
    )
    assert [a[0] for a in active] == [70.0, 70.0]
    assert {(a[1], a[2]) for a in active} == {(0, 2), (1, 3)}
    for i, j in ((0, 2), (1, 3)):
        _, m2 = tt.lookup(i, j)
        assert m2 == pytest.approx(0.75, abs=1e-12)


def test_forbidden_transitions_any_field(center):
    # (0,2) and (1,3) pair states of equal J-parity once B > 0; S_y is
    # parity-odd, so these lines vanish identically (Delta S_x = +/-2).
    for bx in (0.5, 3.0, 10.0):
        tt = transition_table("g", center, bx)
        assert tt.lookup(0, 2)[1] < 1e-10
        assert tt.lookup(1, 3)[1] < 1e-10


def test_transition_lookup_rejects_non_pairs(center):
    # the index form must not wrap a negative index or accept a diagonal pair
    tt = transition_table("g", center, 4.2)
    assert tt.lookup(3, 1) == tt.lookup(1, 3) == (tt.freq[4], tt.m2[4])
    for i, j in ((1, 1), (0, 4), (-1, 0)):
        with pytest.raises(KeyError):
            tt.lookup(i, j)


def test_transition_table_invariants(center):
    for level in ("g", "e"):
        tt = transition_table(level, center, 4.2)
        assert len(tt.freq) == 6
        assert np.all(tt.freq >= 0)
        assert np.all(tt.m2 >= 0) and np.all(tt.m2 <= 3.75 + 1e-12)


def test_crossover_fields(center):
    b_g, b_e = crossover_fields(center)
    assert b_g == pytest.approx(1.25, rel=5e-3)
    assert b_e == pytest.approx(7.86, rel=5e-3)
    tiny = CenterParams(d_g=1e-12, d_e=1e-12)
    assert crossover_fields(tiny)[0] == pytest.approx(0.0, abs=1e-10)


def test_level_sweep_zero_field(center):
    es = eigensystem("g", center, [0.0])
    assert np.allclose(es.energies[0], [35.0, 35.0, -35.0, -35.0])


def test_level_sweep_continuity(center):
    grid = np.linspace(0.0, 10.0, 201)
    energies = eigensystem("g", center, grid).energies
    db = grid[1] - grid[0]
    bound = center.gyro * db * 1.5 * 2 + 1e-9
    assert np.max(np.abs(np.diff(energies, axis=0))) < bound


def test_level_sweep_zeeman_asymptote(center):
    # leading correction to the Zeeman ladder is -/+ D/2 on the outer/inner
    # states, so the relative deviation shrinks as 1/B
    es = eigensystem("g", center, 2000.0)
    zeeman = center.gyro * 2000.0 * np.array([1.5, 0.5, -0.5, -1.5])
    assert np.max(np.abs(es.energies - zeeman) / np.abs(zeeman)) < 1e-3


def test_spectrum_even_in_field(center):
    for bx in (0.7, 3.3):
        e_plus = eigensystem("g", center, bx).energies
        e_minus = eigensystem("g", center, -bx).energies
        assert np.max(np.abs(e_plus - e_minus)) < 1e-10


def test_trace_always_zero(center):
    rng = np.random.default_rng(3)
    for _ in range(20):
        level = rng.choice(["g", "e"])
        h = build_hamiltonian(level, center, float(rng.uniform(-30, 30)))
        assert abs(np.trace(h)) < 1e-10


def test_separate_es_g_factor():
    c = CenterParams(g_factor_e=2.1)
    assert c.gyro_of("e") == pytest.approx(2.1 * 13.9962)
    assert c.gyro_of("g") == pytest.approx(2.0 * 13.9962)


@pytest.mark.parametrize("level", ["g", "e"])
def test_eigensystem_over_fields_is_per_field(center, level):
    # the stacked eigensystems of a 241-field grid are the one-field ones bit
    # for bit, and their energies are plain eigh's, descending
    fields = np.linspace(0.0, 15.0, 241)
    stack = eigensystem(level, center, fields)
    for k, bx in enumerate(fields):
        one = eigensystem(level, center, float(bx))
        assert np.array_equal(stack.energies[k], one.energies)
        assert np.array_equal(stack.vectors[k], one.vectors)
        ref = np.linalg.eigh(build_hamiltonian(level, center, float(bx)))[0][::-1]
        assert np.array_equal(one.energies, ref)
