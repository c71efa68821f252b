import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from spinquad.spin_algebra import (
    NotHermitian,
    commutator,
    expm_hermitian,
    hermitian_eig,
    make_spin_operators,
    rotation_operator,
    sym_anticommutator,
)

EYE = np.eye(4)


def test_sz_is_diagonal(ops):
    assert np.array_equal(ops.sz, np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex))


def test_sx_ladder_entry(ops):
    # <3/2|S_x|1/2> = sqrt(3)/2 from the ladder construction
    assert ops.sx[0, 1] == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-15)


def test_casimir(ops):
    total = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    assert np.max(np.abs(total - 3.75 * EYE)) < 1e-12


@pytest.mark.parametrize("a,b,c", [("sx", "sy", "sz"), ("sy", "sz", "sx"), ("sz", "sx", "sy")])
def test_commutation_cyclic(ops, a, b, c):
    lhs = commutator(getattr(ops, a), getattr(ops, b))
    assert np.max(np.abs(lhs - 1j * getattr(ops, c))) < 1e-12


def test_commutator_trivial_cases(ops):
    assert np.max(np.abs(commutator(ops.sx, ops.sx))) == 0.0
    rng = np.random.default_rng(0)
    m = random_hermitian(rng)
    assert np.max(np.abs(commutator(EYE, m))) == 0.0


def test_sym_anticommutator_examples(ops):
    rng = np.random.default_rng(1)
    m = random_hermitian(rng)
    # the 1/2 in {A,B} = (AB+BA)/2 makes the identity neutral
    assert np.max(np.abs(sym_anticommutator(EYE, m) - m)) < 1e-14
    assert np.max(np.abs(sym_anticommutator(ops.p_half, ops.p_half) - ops.p_half)) == 0.0
    assert np.max(np.abs(sym_anticommutator(ops.p_half, ops.p_three_half))) == 0.0


def test_projectors(ops):
    assert np.array_equal(ops.p_half + ops.p_three_half, EYE.astype(complex))
    for p in (ops.p_half, ops.p_three_half):
        assert np.array_equal(p @ p, p)
        assert np.array_equal(p, p.conj().T)


def test_eig_already_diagonal():
    es = hermitian_eig(np.diag([35.0, -35.0, -35.0, 35.0]).astype(complex))
    assert np.allclose(es.energies, [35.0, 35.0, -35.0, -35.0])
    # tie-break keeps canonical basis vectors, ordered by basis index
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 1] = expect[1, 2] = expect[2, 3] = 1.0
    assert np.max(np.abs(es.vectors - expect)) < 1e-14


def test_eig_zero_matrix():
    es = hermitian_eig(np.zeros((4, 4), dtype=complex))
    assert np.array_equal(es.energies, np.zeros(4))
    assert np.max(np.abs(es.vectors - EYE)) < 1e-14


def test_eig_at_gs_crossover_field(center):
    # Oracle: the J-parity sector reduction of H/D = b*S_x + (S_z^2 - 5/4)
    # gives closed-form eigenvalues D*(b/2 +/- sqrt(1-b+b^2)) and
    # D*(-b/2 +/- sqrt(1+b+b^2)); derived independently of the eigensolver.
    from spinquad.hamiltonian import build_hamiltonian

    bx = 1.25
    b = center.gyro * bx / center.d_g
    sm, sp = np.sqrt(1 - b + b * b), np.sqrt(1 + b + b * b)
    oracle = center.d_g * np.sort([b / 2 + sm, -b / 2 + sp, b / 2 - sm, -b / 2 - sp])[::-1]
    es = hermitian_eig(build_hamiltonian("g", center, bx))
    assert np.allclose(es.energies, oracle, atol=1e-10)
    assert np.all(np.diff(es.energies) < -1e-3)  # four distinct energies


def _charpoly_roots(m):
    # Faddeev-LeVerrier via Newton's identities on power sums tr(M^k):
    # independent of any eigensolver.
    p = [np.trace(np.linalg.matrix_power(m, k)).real for k in range(1, 5)]
    c1 = -p[0]
    c2 = -(p[1] + c1 * p[0]) / 2.0
    c3 = -(p[2] + c1 * p[1] + c2 * p[0]) / 3.0
    c4 = -(p[3] + c1 * p[2] + c2 * p[1] + c3 * p[0]) / 4.0
    return np.sort(np.roots([1.0, c1, c2, c3, c4]).real)[::-1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_eig_matches_charpoly_roots(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, scale=rng.uniform(0.5, 50.0))
    es = hermitian_eig(m)
    roots = _charpoly_roots(m)
    scale = max(np.max(np.abs(roots)), 1.0)
    assert np.max(np.abs(es.energies - roots)) < 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_eig_reconstruction_and_determinism(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, scale=10.0)
    es1 = hermitian_eig(m)
    es2 = hermitian_eig(m.copy())
    assert np.array_equal(es1.energies, es2.energies)
    assert np.array_equal(es1.vectors, es2.vectors)
    recon = es1.vectors @ np.diag(es1.energies) @ es1.vectors.conj().T
    assert np.max(np.abs(recon - m)) <= 1e-10 * max(np.max(np.abs(m)), 1.0)
    gram = es1.vectors.conj().T @ es1.vectors
    assert np.max(np.abs(gram - EYE)) < 1e-10


def test_eig_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0  # not mirrored
    with pytest.raises(NotHermitian):
        hermitian_eig(m)


def test_rotation_identity():
    assert np.max(np.abs(rotation_operator(0.0, 0.0) - EYE)) < 1e-14


def test_rotation_pi_flips_stretched_state():
    u = rotation_operator(np.pi, 0.0)
    flipped = u[:, 0]  # image of |+3/2>
    assert abs(abs(flipped[3]) - 1.0) < 1e-12
    assert np.max(np.abs(flipped[:3])) < 1e-12


def test_rotation_unitary_random_angles():
    rng = np.random.default_rng(42)
    for _ in range(100):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        u = rotation_operator(theta, phi)
        assert np.max(np.abs(u.conj().T @ u - EYE)) < 1e-10


def test_rotation_stack_is_per_angle():
    # an array of theta gives the per-angle rotations bit for bit
    thetas = np.concatenate([[0.0, np.pi], np.random.default_rng(43).uniform(0, np.pi, 9)])
    for phi in (0.0, 1.3):
        stack = rotation_operator(thetas, phi)
        assert stack.shape == (thetas.size, 4, 4)
        for u, theta in zip(stack, thetas):
            assert np.array_equal(u, rotation_operator(float(theta), phi))
    assert rotation_operator(thetas.reshape(1, -1), 0.0).shape == (1, thetas.size, 4, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_expm_skew_hermitian_is_unitary(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, scale=rng.uniform(0.1, 20.0))
    u = expm_hermitian(h, scale=-1j)
    assert np.max(np.abs(u.conj().T @ u - EYE)) < 1e-10


def test_eig_degenerate_subspace_not_axis_aligned():
    # rank-1 matrix: a 3-fold degenerate kernel whose span is not spanned by
    # canonical axes; the tie-break must still produce an orthonormal,
    # deterministic basis that reconstructs the input
    v = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    h = 5.0 * np.outer(v, v).astype(complex)
    es1 = hermitian_eig(h)
    es2 = hermitian_eig(h.copy())
    assert np.allclose(es1.energies, [5.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.max(np.abs(es1.vectors.conj().T @ es1.vectors - EYE)) < 1e-10
    recon = es1.vectors @ np.diag(es1.energies) @ es1.vectors.conj().T
    assert np.max(np.abs(recon - h)) < 1e-10
    assert np.array_equal(es1.vectors, es2.vectors)


def test_operations_are_pure(ops):
    a = make_spin_operators()
    b = make_spin_operators()
    assert np.array_equal(a.sx, b.sx) and np.array_equal(a.sy, b.sy)
    m = np.diag([3.0, 1.0, -1.0, -3.0]).astype(complex)
    assert np.array_equal(hermitian_eig(m).vectors, hermitian_eig(m).vectors)


def test_eig_stack_matches_per_matrix():
    # one batched call over any leading axes equals the one-matrix calls bit
    # for bit, degenerate matrices (tie-break) mixed in with generic ones
    rng = np.random.default_rng(17)
    v = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    special = [np.diag([35.0, -35.0, -35.0, 35.0]), np.zeros((4, 4)), 5.0 * np.outer(v, v),
               np.diag([3.0, 1.0, -1.0, -3.0])]
    generic = [random_hermitian(rng, scale=10.0) for _ in range(16)]
    generic += [m.real for m in generic[:4]]
    stack = np.array(special + generic, dtype=complex).reshape(4, 6, 4, 4)
    es = hermitian_eig(stack)
    assert es.energies.shape == (4, 6, 4) and es.vectors.shape == (4, 6, 4, 4)
    for idx in np.ndindex(4, 6):
        one = hermitian_eig(stack[idx])
        assert np.array_equal(es.energies[idx], one.energies)
        assert np.array_equal(es.vectors[idx], one.vectors)
    # phase fix: the largest entry of every column is real positive
    pivot = np.take_along_axis(es.vectors, np.argmax(np.abs(es.vectors), axis=-2)[..., None, :],
                               axis=-2)
    assert np.all(pivot.real > 0) and np.max(np.abs(pivot.imag)) < 1e-15
    bad = stack.copy()
    bad[2, 3, 0, 1] += 1.0  # not mirrored
    with pytest.raises(NotHermitian):
        hermitian_eig(bad)
