"""Ground/excited-state spin Hamiltonians of the color center.

H = gyro * B_x * S_x + D * (S_z^2 - 5/4) in frequency units (MHz), with the
transverse field B_x in mT.  gyro = g * mu_B / h = g * 13.9962 MHz/mT, which
pins the crossover fields D_g/gyro = 1.25 mT and D_e/gyro = 7.86 mT for the
default center (D_g = 35 MHz, D_e = 220 MHz, g = 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_algebra import UPPER_COLS, UPPER_ROWS, EigenSystem, hermitian_eig, make_spin_operators

# Bohr magneton over Planck constant, in MHz per mT.
MU_B_OVER_H = 13.9962


@dataclass(frozen=True)
class CenterParams:
    """Zero-field splittings (MHz) and g-factor of the defect.

    ``g_factor_e`` optionally decouples the excited-state g-factor; by default
    both levels share ``g_factor``.
    """

    d_g: float = 35.0
    d_e: float = 220.0
    g_factor: float = 2.0
    g_factor_e: float | None = None

    def __post_init__(self):
        if self.d_g <= 0 or self.d_e <= 0:
            raise ValueError("zero-field splittings must be positive")
        if self.gyro <= 0:
            raise ValueError("gyro must be positive")

    @property
    def gyro(self) -> float:
        """Ground-state gyromagnetic ratio g * mu_B / h, MHz/mT."""
        return self.g_factor * MU_B_OVER_H

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
    """The six i<j transitions of one level: frequencies and |<i|S_drive|j>|^2.

    ``i`` and ``j`` are the shared ``UPPER_ROWS`` and ``UPPER_COLS``, so the
    pair (i, j) sits at row-major index i*(7 - i)/2 + j - i - 1.
    """

    level: str
    bx: float
    i: np.ndarray     # shape (6,), int
    j: np.ndarray     # shape (6,), int
    freq: np.ndarray  # shape (6,), MHz, >= 0
    m2: np.ndarray    # shape (6,), dimensionless

    def lookup(self, i: int, j: int) -> tuple[float, float]:
        """(freq, m2) of the i<->j transition (order-insensitive)."""
        lo, hi = min(i, j), max(i, j)
        if not 0 <= lo < hi <= 3:
            raise KeyError((i, j))
        k = lo * (7 - lo) // 2 + hi - lo - 1
        return float(self.freq[k]), float(self.m2[k])


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
    m_eig = es.vectors.conj().T @ drive_op @ es.vectors
    return TransitionTable(
        level=level,
        bx=bx,
        i=UPPER_ROWS,
        j=UPPER_COLS,
        freq=es.energies[UPPER_ROWS] - es.energies[UPPER_COLS],
        m2=np.abs(m_eig[UPPER_ROWS, UPPER_COLS]) ** 2,
    )


def crossover_fields(params: CenterParams) -> tuple[float, float]:
    """Fields (mT) where the Zeeman energy equals the zero-field splitting."""
    return params.d_g / params.gyro, params.d_e / params.gyro_of("e")
