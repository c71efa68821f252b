"""Microwave response of the kinetic model: ODMR spectra and field maps.

The MW field B_1 e^{-i w t} + B_1* e^{i w t} enters the Hamiltonians through
the drive operator (S_y by default).  Harmonic balance truncated at the first
harmonic gives the photoluminescence change to order B_1 B_1*:

    (G + i*wt) s+ = -V s0,        s- = conj(s+),
    G ds = -(V s- + V* s+)        solved in the trace-zero subspace,

with wt = 2*pi*freq, V = b1 * W and W the superoperator of the unit-amplitude
drive commutator acting on both density-matrix blocks.  The 2w sidebands it
neglects would feed back only at order |B_1|^4, so the reported dPL/PL scales
exactly quadratically in the MW amplitude.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .hamiltonian import CenterParams
from .kinetics import (
    NDIM,
    GeneratorMatrix,
    RateParams,
    SpinState,
    build_generator,
    commutator,
    coords_to_state,
    linear_map_matrix,
    pl_intensity,
    state_to_coords,
    steady_state,
    trace_functional,
)
from .spin_algebra import make_spin_operators

TWO_PI = 2.0 * np.pi

# Fraction of the baseline PL beyond which the quadratic truncation is suspect.
PERTURBATIVE_LIMIT = 0.2


class SingularResponse(RuntimeError):
    """First-harmonic solve hit an (undamped) singular resonance."""


@dataclass(frozen=True)
class DriveParams:
    """MW drive: amplitude b1 in mT (may be complex), axis, frequency in MHz."""

    b1: complex = 0.01
    axis: str = "y"
    freq: float = 440.0

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError("drive axis must be one of 'x', 'y', 'z'")


@dataclass(frozen=True)
class OdmrResult:
    """dPL/PL on a frequency grid (one row per static-field value)."""

    freqs: np.ndarray      # (n_f,) MHz
    fields: np.ndarray     # (n_b,) mT
    dpl: np.ndarray        # (n_b, n_f) relative PL change
    baseline: np.ndarray   # (n_b,) PL in 1/us

    def __post_init__(self):
        if self.dpl.shape != (self.fields.size, self.freqs.size):
            raise ValueError(f"dpl shape {self.dpl.shape} inconsistent with grids")
        if self.baseline.shape != (self.fields.size,) or np.any(self.baseline <= 0):
            raise ValueError("baseline must be positive, one value per field")


def drive_superoperator(center: CenterParams, drive: DriveParams) -> np.ndarray:
    """Real 33x33 map of rho -> 2*pi*i*[rho, gyro*S_axis] per unit b1 (1 mT)."""
    ops = make_spin_operators()
    s_axis = {"x": ops.sx, "y": ops.sy, "z": ops.sz}[drive.axis]

    def drive_rhs(s: SpinState) -> SpinState:
        return SpinState(
            rho_g=TWO_PI * 1j * commutator(s.rho_g, center.gyro_of("g") * s_axis),
            rho_e=TWO_PI * 1j * commutator(s.rho_e, center.gyro_of("e") * s_axis),
            n_m=np.zeros_like(s.n_m),
        )

    return linear_map_matrix(drive_rhs)


def _second_order_dc(gen: GeneratorMatrix, source: np.ndarray) -> np.ndarray:
    """Solve G ds = source on the complement of the trace zero mode."""
    t_row = trace_functional()
    a = np.vstack([gen.matrix, t_row])
    b = np.append(source, 0.0)
    ds, *_ = np.linalg.lstsq(a, b, rcond=None)
    return ds


def mw_response(
    center: CenterParams,
    rates: RateParams,
    bx: float,
    drive: DriveParams,
    gen: GeneratorMatrix | None = None,
    drive_op: np.ndarray | None = None,
    s0: SpinState | None = None,
) -> tuple[float, float]:
    """(dPL/PL, baseline PL) at one static field and one MW frequency.

    ``gen``, ``drive_op`` and ``s0`` may be passed in to amortize their
    construction over a frequency sweep; they must match (center, rates, bx).
    """
    if gen is None:
        gen = build_generator(center, rates, bx)
    if s0 is None:
        s0 = steady_state(gen)
    baseline = pl_intensity(rates, s0)

    if drive.b1 == 0:
        return 0.0, baseline

    if drive_op is None:
        drive_op = drive_superoperator(center, drive)

    x0 = state_to_coords(s0)
    v_x0 = drive_op @ x0
    omega = TWO_PI * drive.freq
    b1 = complex(drive.b1)

    a_plus = gen.matrix + 1j * omega * np.eye(NDIM)
    rhs = -b1 * v_x0
    try:
        s_plus = np.linalg.solve(a_plus, rhs)
    except np.linalg.LinAlgError as err:
        raise SingularResponse(f"first-harmonic solve singular at {drive.freq} MHz") from err
    if not np.all(np.isfinite(s_plus)) or (
        np.linalg.norm(a_plus @ s_plus - rhs) > 1e-6 * max(np.linalg.norm(rhs), 1e-300)
    ):
        raise SingularResponse(
            f"first-harmonic solve is singular at {drive.freq} MHz "
            "(undamped resonance: no relaxation at this transition)"
        )

    # s- = conj(s+), so the DC source -(V s- + V* s+) is real by construction.
    source = -2.0 * (drive_op @ np.real(np.conj(b1) * s_plus))
    ds = _second_order_dc(gen, source)
    d_state = coords_to_state(ds)
    dpl = rates.recomb * d_state.n_e / baseline

    if abs(dpl) > PERTURBATIVE_LIMIT:
        warnings.warn(
            f"second-order response {dpl:.3f} exceeds {PERTURBATIVE_LIMIT:.0%} of the "
            "baseline PL; the quadratic truncation is unreliable here",
            stacklevel=2,
        )
    return float(dpl), float(baseline)


def odmr_spectrum(
    center: CenterParams,
    rates: RateParams,
    bx: float,
    drive: DriveParams,
    freq_grid,
) -> OdmrResult:
    """dPL/PL over a sorted MW frequency grid at one static field."""
    freqs = np.asarray(freq_grid, dtype=float)
    if freqs.size == 0:
        raise ValueError("frequency grid must be nonempty")
    if np.any(np.diff(freqs) < 0):
        raise ValueError("frequency grid must be sorted ascending")

    gen = build_generator(center, rates, bx)
    s0 = steady_state(gen)
    w = drive_superoperator(center, drive)
    dpl = np.empty(freqs.size)
    for k, f in enumerate(freqs):
        dpl[k], baseline = mw_response(
            center, rates, bx, replace(drive, freq=f), gen=gen, drive_op=w, s0=s0
        )
    return OdmrResult(
        freqs=freqs,
        fields=np.array([bx]),
        dpl=dpl[None, :],
        baseline=np.array([baseline]),
    )


def odmr_map(
    center: CenterParams,
    rates: RateParams,
    drive: DriveParams,
    freq_grid,
    field_grid,
    jobs: int = 1,
) -> OdmrResult:
    """dPL/PL over frequency x field; rows are independent computations.

    With ``jobs > 1`` the rows are spread over that many worker processes;
    the result is bitwise the same as the serial one.
    """
    fields = np.asarray(field_grid, dtype=float)
    if fields.size == 0:
        raise ValueError("field grid must be nonempty")
    row = partial(odmr_spectrum, center, rates, drive=drive, freq_grid=freq_grid)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(row, fields))
    else:
        rows = [row(b) for b in fields]
    return OdmrResult(
        freqs=np.asarray(freq_grid, dtype=float),
        fields=fields,
        dpl=np.vstack([r.dpl for r in rows]),
        baseline=np.concatenate([r.baseline for r in rows]),
    )
