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
    """Spectral data of one Hermitian 4x4, energies sorted descending."""

    energies: np.ndarray  # shape (4,), MHz, descending
    vectors: np.ndarray   # shape (4, 4), column i belongs to energies[i]


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
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            out[:, k] = col * (pivot.conjugate() / abs(pivot))
    return out


def _degenerate_clusters(energies: np.ndarray) -> list[list[int]]:
    """Group indices of (descending) energies into degenerate clusters."""
    spread = float(energies[0] - energies[-1])
    tol = DEGENERACY_RTOL * max(spread, np.max(np.abs(energies)), 1e-300)
    clusters = [[0]]
    for i in range(1, len(energies)):
        if energies[i - 1] - energies[i] < tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def hermitian_eig(m: np.ndarray, htol: float = 1e-10) -> EigenSystem:
    """Diagonalize a Hermitian 4x4 with descending energies and fixed tie-breaking.

    Inside a degenerate subspace the eigenvectors are the projections of the
    canonical basis vectors, Gram-Schmidt orthonormalized in basis order, so a
    diagonal input returns canonical basis vectors exactly.  All columns are
    phase-fixed (largest component real positive).

    Raises NotHermitian if max|m - m^dag| exceeds ``htol`` (relative to scale).
    """
    m = np.asarray(m, dtype=complex)
    scale = max(np.max(np.abs(m)), 1.0)
    dev = np.max(np.abs(m - m.conj().T))
    if dev > htol * scale:
        raise NotHermitian(f"max|m - m^dag| = {dev:.3e} exceeds tolerance {htol * scale:.3e}")
    herm = (m + m.conj().T) / 2.0

    w, v = np.linalg.eigh(herm)  # ascending
    w = w[::-1].copy()
    v = v[:, ::-1].copy()

    for cluster in _degenerate_clusters(w):
        if len(cluster) == 1:
            continue
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

    v = _phase_fix(v)
    return EigenSystem(energies=w, vectors=v)


def expm_hermitian(generator: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * G) for Hermitian G via eigendecomposition (exact for 4x4)."""
    g = np.asarray(generator, dtype=complex)
    w, v = np.linalg.eigh((g + g.conj().T) / 2.0)
    return (v * np.exp(scale * w)) @ v.conj().T


def rotation_operator(theta: float, phi: float) -> np.ndarray:
    """Spin rotation U = exp(-i phi S_z) exp(-i theta S_y)."""
    ops = make_spin_operators()
    uz = np.diag(np.exp(-1j * phi * np.diag(ops.sz).real))
    uy = expm_hermitian(ops.sy, scale=-1j * theta)
    return uz @ uy
