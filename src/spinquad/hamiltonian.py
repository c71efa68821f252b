"""Ground/excited-state spin Hamiltonians of the color center.

H = gyro * B_x * S_x + D * (S_z^2 - 5/4) in frequency units (MHz), with the
transverse field B_x in mT.  gyro = g * mu_B / h = g * 13.9962 MHz/mT, which
pins the crossover fields D_g/gyro = 1.25 mT and D_e/gyro = 7.86 mT for the
default center (D_g = 35 MHz, D_e = 220 MHz, g = 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spin_algebra import EigenSystem, hermitian_eig, make_spin_operators

# Bohr magneton over Planck constant, in MHz per mT.
MU_B_OVER_H = 13.9962


@dataclass(frozen=True)
class CenterParams:
    """Zero-field splittings (MHz) and g-factor of the defect.

    ``g_factor_e`` optionally decouples the excited-state g-factor; by default
    both levels share ``g_factor``.  ``gyro`` (MHz/mT) is derived unless given
    explicitly, in which case it must be consistent with the g-factor.
    """

    d_g: float = 35.0
    d_e: float = 220.0
    g_factor: float = 2.0
    g_factor_e: float | None = None
    gyro: float = field(default=0.0)

    def __post_init__(self):
        if self.d_g <= 0 or self.d_e <= 0:
            raise ValueError("zero-field splittings must be positive")
        if self.gyro == 0.0:
            object.__setattr__(self, "gyro", self.g_factor * MU_B_OVER_H)
        else:
            expected = self.g_factor * MU_B_OVER_H
            if abs(self.gyro - expected) > 1e-4 * expected:
                raise ValueError(
                    f"gyro={self.gyro} inconsistent with g_factor={self.g_factor} "
                    f"(expected {expected:.6f} MHz/mT)"
                )
        if self.gyro <= 0:
            raise ValueError("gyro must be positive")

    def splitting(self, level: str) -> float:
        return self.d_g if level == "g" else self.d_e

    def gyro_of(self, level: str) -> float:
        if level == "e" and self.g_factor_e is not None:
            return self.g_factor_e * MU_B_OVER_H
        return self.gyro


def _check_level(level: str) -> None:
    if level not in ("g", "e"):
        raise ValueError(f"level must be 'g' or 'e', got {level!r}")


def build_hamiltonian(level: str, params: CenterParams, bx) -> np.ndarray:
    """H(level, B_x) in MHz: Zeeman along x plus the axial crystal-field term.

    An array of fields gives the stack of Hamiltonians, shape ``bx.shape + (4, 4)``.
    """
    _check_level(level)
    bx = np.asarray(bx, dtype=float)
    if not np.all(np.isfinite(bx)):
        raise ValueError("bx must be finite")
    ops = make_spin_operators()
    d = params.splitting(level)
    zfs = ops.sz @ ops.sz - 1.25 * np.eye(4)
    return params.gyro_of(level) * bx[..., None, None] * ops.sx + d * zfs


def eigensystem(level: str, params: CenterParams, bx) -> EigenSystem:
    """Eigen-decomposition of H(level, B_x), descending energies.

    An array of fields gives the stacked eigensystems, ``bx.shape`` leading.
    """
    return hermitian_eig(build_hamiltonian(level, params, bx))


@dataclass(frozen=True)
class TransitionTable:
    """The six i<j transitions of one level: frequencies and |<i|S_drive|j>|^2."""

    level: str
    bx: float
    i: np.ndarray     # shape (6,), int
    j: np.ndarray     # shape (6,), int
    freq: np.ndarray  # shape (6,), MHz, >= 0
    m2: np.ndarray    # shape (6,), dimensionless

    def lookup(self, i: int, j: int) -> tuple[float, float]:
        """(freq, m2) of the i<->j transition (order-insensitive)."""
        lo, hi = min(i, j), max(i, j)
        for k in range(6):
            if self.i[k] == lo and self.j[k] == hi:
                return float(self.freq[k]), float(self.m2[k])
        raise KeyError((i, j))


def transition_table(
    level: str, params: CenterParams, bx: float, drive_op: np.ndarray | None = None
) -> TransitionTable:
    """All pairwise transitions of one level under the given drive operator.

    The drive operator defaults to S_y (MW field perpendicular to both the
    symmetry axis and the static field).
    """
    es = eigensystem(level, params, bx)
    if drive_op is None:
        drive_op = make_spin_operators().sy
    vmat = es.vectors
    m_eig = vmat.conj().T @ drive_op @ vmat
    ii, jj, freqs, m2s = [], [], [], []
    for a in range(4):
        for b in range(a + 1, 4):
            ii.append(a)
            jj.append(b)
            freqs.append(es.energies[a] - es.energies[b])
            m2s.append(abs(m_eig[a, b]) ** 2)
    return TransitionTable(
        level=level,
        bx=bx,
        i=np.array(ii),
        j=np.array(jj),
        freq=np.array(freqs),
        m2=np.array(m2s),
    )


def crossover_fields(params: CenterParams) -> tuple[float, float]:
    """Fields (mT) where the Zeeman energy equals the zero-field splitting."""
    return params.d_g / params.gyro, params.d_e / params.gyro_of("e")


def level_sweep(level: str, params: CenterParams, b_grid) -> list[EigenSystem]:
    """Eigen-systems for every field in ``b_grid`` (mT), from one stacked call."""
    b_grid = np.asarray(b_grid, dtype=float).reshape(-1)
    if b_grid.size == 0:
        raise ValueError("field grid must be nonempty")
    es = eigensystem(level, params, b_grid)
    return [EigenSystem(energies=e, vectors=v) for e, v in zip(es.energies, es.vectors)]


def asymptotic_labels(level: str, params: CenterParams, bx: float) -> list[str]:
    """Label eigenstates by their S_x projection in the large-field limit.

    Adiabatic continuation in descending-energy order: (+3/2, +1/2, -1/2, -3/2)
    along x for B -> infinity.
    """
    _check_level(level)
    return ["+3/2_x", "+1/2_x", "-1/2_x", "-3/2_x"]
