"""Exact 4x4 complex linear algebra for a single spin 3/2.

Everything downstream (Hamiltonians, kinetics, transfer matrices) works in the
fixed z-basis order (|+3/2>, |+1/2>, |-1/2>, |-3/2>).  Eigen-decompositions use
a deterministic tie-breaking rule inside degenerate subspaces so that zero-field
Kramers doublets come out as plain z-basis states and all derived unitaries are
reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

SQRT3 = np.sqrt(3.0)

# Relative gap below which two eigenvalues are treated as degenerate.
DEGENERACY_RTOL = 1e-9

# Largest max|m - m^dag|, relative to max(max|m|, 1), that ``hermitian_eig`` accepts.
HERMITIAN_RTOL = 1e-10

# The six i<j index pairs of a 4x4 in row-major order: the transitions of a
# level and the off-diagonal coordinates of a density matrix.  Read-only.
UPPER_ROWS, UPPER_COLS = np.triu_indices(4, 1)
UPPER_ROWS.flags.writeable = UPPER_COLS.flags.writeable = False


class NotHermitian(ValueError):
    """Input matrix deviates from its conjugate transpose beyond tolerance."""


@dataclass(frozen=True)
class SpinOperators:
    """The spin-3/2 matrices (units of hbar) and doublet projectors."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    p_half: np.ndarray        # |+1/2><+1/2| + |-1/2><-1/2|
    p_three_half: np.ndarray  # |+3/2><+3/2| + |-3/2><-3/2|


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of a Hermitian 4x4 (or a stack), energies sorted descending."""

    energies: np.ndarray  # shape (..., 4), MHz, descending
    vectors: np.ndarray   # shape (..., 4, 4), column i belongs to energies[..., i]


@cache
def make_spin_operators() -> SpinOperators:
    """S_x, S_y, S_z and the doublet projectors in the fixed z-basis.

    Built once and shared by every caller, so the arrays are read-only.
    """
    # S+ from the ladder construction: <m+1|S+|m> = sqrt(S(S+1) - m(m+1)).
    sp = np.zeros((4, 4), dtype=complex)
    sp[0, 1] = SQRT3
    sp[1, 2] = 2.0
    sp[2, 3] = SQRT3
    sm = sp.conj().T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2.0j
    sz = np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex)
    p_half = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    p_three_half = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    for op in (sx, sy, sz, p_half, p_three_half):
        op.flags.writeable = False
    return SpinOperators(sx=sx, sy=sy, sz=sz, p_half=p_half, p_three_half=p_three_half)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA."""
    return a @ b - b @ a


def sym_anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{A, B} = (AB + BA)/2, the symmetrized product (note the factor 1/2)."""
    return (a @ b + b @ a) / 2.0


def _phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column's global phase so its largest entry is real positive."""
    idx = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    pivot = np.take_along_axis(vectors, idx, axis=-2)
    size = np.abs(pivot)
    phase = np.divide(pivot.conj(), size, out=np.ones_like(pivot), where=size > 0)
    return vectors * phase


def _tie_break(v: np.ndarray, cluster: np.ndarray) -> None:
    """Set the columns ``cluster`` of one 4x4 ``v`` to the canonical basis of their span."""
    sub = v[:, cluster]                   # orthonormal span of the subspace
    proj = sub @ sub.conj().T
    chosen: list[np.ndarray] = []
    for j in range(4):
        cand = proj @ np.eye(4, dtype=complex)[:, j]
        for prev in chosen:
            cand = cand - prev * (prev.conj() @ cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-7:
            chosen.append(cand / nrm)
        if len(chosen) == len(cluster):
            break
    if len(chosen) == len(cluster):
        v[:, cluster] = np.column_stack(chosen)


def hermitian_eig(m: np.ndarray) -> EigenSystem:
    """Diagonalize a Hermitian 4x4, or a (..., 4, 4) stack, with descending energies.

    A stack goes through one batched ``eigh``, bitwise the same as matrix by
    matrix.  Inside a degenerate subspace the eigenvectors are the
    projections of the canonical basis vectors, Gram-Schmidt orthonormalized
    in basis order, so a diagonal input returns canonical basis vectors
    exactly.  All columns are phase-fixed (largest component real positive).

    Raises NotHermitian if max|m - m^dag| of a matrix exceeds ``HERMITIAN_RTOL``
    (relative to its scale).
    """
    m = np.asarray(m, dtype=complex)
    m_h = np.swapaxes(m, -1, -2).conj()
    limit = HERMITIAN_RTOL * np.maximum(np.max(np.abs(m), axis=(-2, -1)), 1.0)
    dev = np.max(np.abs(m - m_h), axis=(-2, -1))
    over = dev > limit
    if np.any(over):
        k = np.argmax(over)
        raise NotHermitian(
            f"max|m - m^dag| = {dev.flat[k]:.3e} exceeds tolerance {limit.flat[k]:.3e}"
        )

    w, v = np.linalg.eigh((m + m_h) / 2.0)  # ascending
    w, v = w[..., ::-1].copy(), v[..., ::-1].copy()

    # adjacent energies closer than DEGENERACY_RTOL of the matrix's scale tie;
    # the tie-break runs only on the matrices that have a tie
    spread = w[..., 0] - w[..., -1]
    tol = DEGENERACY_RTOL * np.maximum(np.maximum(spread, np.max(np.abs(w), axis=-1)), 1e-300)
    tied = ((w[..., :-1] - w[..., 1:]) < tol[..., None]).reshape(-1, 3)
    for k in np.flatnonzero(tied.any(axis=-1)):
        for cluster in np.split(np.arange(4), np.flatnonzero(~tied[k]) + 1):
            if len(cluster) > 1:
                _tie_break(v.reshape(-1, 4, 4)[k], cluster)

    return EigenSystem(energies=w, vectors=_phase_fix(v))


def expm_hermitian(generator: np.ndarray, scale=1.0) -> np.ndarray:
    """exp(scale * G) for Hermitian G via eigendecomposition (exact for 4x4).

    An array of scales gives the stack of exponentials, its shape leading,
    from one ``eigh``.
    """
    g = np.asarray(generator, dtype=complex)
    w, v = np.linalg.eigh((g + g.conj().T) / 2.0)
    return (v * np.exp(np.multiply.outer(scale, w))[..., None, :]) @ v.conj().T


def rotation_operator(theta, phi: float) -> np.ndarray:
    """Spin rotation U = exp(-i phi S_z) exp(-i theta S_y).

    An array of theta gives the stack of rotations, theta's shape leading.
    """
    ops = make_spin_operators()
    uz = np.diag(np.exp(-1j * phi * np.diag(ops.sz).real))
    uy = expm_hermitian(ops.sy, scale=-1j * np.asarray(theta))
    return uz @ uy
