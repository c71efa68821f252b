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

Spectra and maps take each field's G and s0 from the kinetics block sweep
(``sweep_blocks``); ``odmr_map`` gives each ``--jobs`` worker one contiguous
block of fields and raises the perturbative-limit warnings itself.  Rows are
in pole form: one eigendecomposition G = V diag(lam) V^-1 turns the
first-harmonic solves for all frequencies into
s+(w) = V diag(1/(lam + i*wt)) V^-1 (-V s0), a sum of 33 complex Lorentzians
evaluated as one (33, n_f) product, and the DC stage into one LU solve of
the bordered generator G + u t^T (``kinetics.bordered_generator``) with the
n_f sources as columns.  Each frequency's s+ is accepted only if its
normwise backward error

    |(G + i*wt) s+ + V s0| / ((|G|_2 + |wt|) |s+| + |V s0|)

is finite and at most POLE_BACKWARD_ERROR; any other frequency (near an
exceptional point, or in an undamped regime) is recomputed by the direct
solve of ``mw_response``, with its residual gate and SingularResponse.
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .hamiltonian import CenterParams
from .kinetics import (
    NDIM,
    GeneratorMatrix,
    RateParams,
    SpinState,
    bordered_generator,
    build_generator,
    commutator,
    coords_to_state,
    linear_map_matrix,
    pl_intensity,
    state_to_coords,
    steady_state,
    sweep_blocks,
)
from .spin_algebra import make_spin_operators

TWO_PI = 2.0 * np.pi

# Fraction of the baseline PL beyond which the quadratic truncation is suspect.
PERTURBATIVE_LIMIT = 0.2

# Largest normwise backward error of a pole-form s+ that is accepted without
# recomputing it by the direct solve (a few hundred ulps).
POLE_BACKWARD_ERROR = 1e-12


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


def _second_order_dc(g: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Trace-zero solution of G ds = source, one LU solve of the bordered generator.

    ``source`` is one (33,) vector or a (33, n) block of them as columns, of
    zero trace: the drive commutator conserves population.
    """
    return np.linalg.solve(bordered_generator(g), source)


def _first_harmonic(g: np.ndarray, omega: float, rhs: np.ndarray, freq: float) -> np.ndarray:
    """Direct solve of (G + i*omega) s+ = rhs; SingularResponse when it fails."""
    a_plus = g + 1j * omega * np.eye(NDIM)
    try:
        s_plus = np.linalg.solve(a_plus, rhs)
    except np.linalg.LinAlgError as err:
        raise SingularResponse(f"first-harmonic solve singular at {freq} MHz") from err
    if not np.all(np.isfinite(s_plus)) or (
        np.linalg.norm(a_plus @ s_plus - rhs) > 1e-6 * max(np.linalg.norm(rhs), 1e-300)
    ):
        raise SingularResponse(
            f"first-harmonic solve is singular at {freq} MHz "
            "(undamped resonance: no relaxation at this transition)"
        )
    return s_plus


def _warn_if_nonperturbative(dpl) -> None:
    """One warning per value of ``dpl`` beyond PERTURBATIVE_LIMIT, at the caller's caller."""
    dpl = np.atleast_1d(dpl)
    for value in dpl[np.abs(dpl) > PERTURBATIVE_LIMIT]:
        warnings.warn(
            f"second-order response {value:.3f} exceeds {PERTURBATIVE_LIMIT:.0%} of the "
            "baseline PL; the quadratic truncation is unreliable here",
            stacklevel=3,
        )


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

    This is the direct solve, the reference for ``odmr_spectrum``.  ``gen``,
    ``drive_op`` and ``s0`` may be passed in to amortize their construction
    over several calls; they must match (center, rates, bx).
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
    b1 = complex(drive.b1)
    s_plus = _first_harmonic(gen.matrix, TWO_PI * drive.freq, -b1 * v_x0, drive.freq)

    # s- = conj(s+), so the DC source -(V s- + V* s+) is real by construction.
    source = -2.0 * (drive_op @ np.real(np.conj(b1) * s_plus))
    ds = _second_order_dc(gen.matrix, source)
    d_state = coords_to_state(ds)
    dpl = rates.recomb * d_state.n_e / baseline

    _warn_if_nonperturbative(dpl)
    return float(dpl), float(baseline)


def _pole_first_harmonic(
    g: np.ndarray, gnorm: float, freqs: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """s+ at every frequency as the (33, n_f) columns, from one eigendecomposition.

    ``gnorm`` is |G|_2, which scales the backward-error gate.
    """
    omega = TWO_PI * freqs
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam, vec = np.linalg.eig(g)
        try:
            coef = np.linalg.solve(vec, rhs)
        except np.linalg.LinAlgError:
            coef = np.full(NDIM, np.nan)
        s_plus = vec @ (coef[:, None] / (lam[:, None] + 1j * omega))
        resid = g @ s_plus + 1j * omega * s_plus - rhs[:, None]
        scale = (gnorm + np.abs(omega)) * np.linalg.norm(s_plus, axis=0) + np.linalg.norm(rhs)
        # backward error <= cut-off, written so that NaN and inf fail it and an
        # exact zero response (0/0) passes
        accepted = np.linalg.norm(resid, axis=0) <= POLE_BACKWARD_ERROR * scale
    for k in np.flatnonzero(~accepted):
        s_plus[:, k] = _first_harmonic(g, omega[k], rhs, freqs[k])
    return s_plus


def _spectrum_rows(
    center: CenterParams,
    rates: RateParams,
    drive: DriveParams,
    w: np.ndarray,
    freqs: np.ndarray,
    fields: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(n_b, n_f) dPL/PL and (n_b,) baseline PL on the block sweep; ``w`` is the drive map.

    No warning is raised here: a ``--jobs`` worker's would never reach the caller.
    """
    dpl = np.zeros((fields.size, freqs.size))
    baseline = np.empty(fields.size)
    b1 = complex(drive.b1)
    rows = (row for block in sweep_blocks(center, rates, fields) for row in zip(*block))
    for k, (g, x0, gnorm) in enumerate(rows):
        baseline[k] = pl_intensity(rates, coords_to_state(x0))
        if b1 != 0:
            s_plus = _pole_first_harmonic(g, gnorm, freqs, -b1 * (w @ x0))
            source = -2.0 * (w @ np.real(np.conj(b1) * s_plus))
            ds = _second_order_dc(g, source)
            dpl[k] = rates.recomb * ds[16:20].sum(axis=0) / baseline[k]
    return dpl, baseline


def _freq_axis(freq_grid) -> np.ndarray:
    freqs = np.asarray(freq_grid, dtype=float)
    if freqs.size == 0:
        raise ValueError("frequency grid must be nonempty")
    if np.any(np.diff(freqs) < 0):
        raise ValueError("frequency grid must be sorted ascending")
    return freqs


def odmr_spectrum(
    center: CenterParams,
    rates: RateParams,
    bx: float,
    drive: DriveParams,
    freq_grid,
) -> OdmrResult:
    """dPL/PL over a sorted MW frequency grid at one static field."""
    freqs = _freq_axis(freq_grid)
    fields = np.array([bx])
    dpl, baseline = _spectrum_rows(
        center, rates, drive, drive_superoperator(center, drive), freqs, fields
    )
    _warn_if_nonperturbative(dpl)
    return OdmrResult(freqs=freqs, fields=fields, dpl=dpl, baseline=baseline)


def odmr_map(
    center: CenterParams,
    rates: RateParams,
    drive: DriveParams,
    freq_grid,
    field_grid,
    jobs: int = 1,
) -> OdmrResult:
    """dPL/PL over frequency x field; rows are independent computations.

    With ``jobs > 1`` the grid is cut into min(jobs, n_fields) contiguous
    blocks, one per worker process; the result is bitwise the same as the
    serial one, and the perturbative-limit warnings are raised here.
    """
    fields = np.asarray(field_grid, dtype=float)
    if fields.size == 0:
        raise ValueError("field grid must be nonempty")
    freqs = _freq_axis(freq_grid)
    rows = partial(_spectrum_rows, center, rates, drive, drive_superoperator(center, drive), freqs)
    workers = min(jobs, fields.size)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: serial runs skip it
        with ProcessPoolExecutor(max_workers=workers, initializer=_single_blas_thread) as pool:
            dpl, baseline = zip(*pool.map(rows, np.array_split(fields, workers)))
        dpl, baseline = np.vstack(dpl), np.concatenate(baseline)
    else:
        dpl, baseline = rows(fields)
    _warn_if_nonperturbative(dpl)
    return OdmrResult(freqs=freqs, fields=fields, dpl=dpl, baseline=baseline)


def _bundled_openblas(symbol: str):
    """``symbol`` of the OpenBLAS that numpy bundles, or None when it has none."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
        if fn is not None:
            return fn
    return None


def _single_blas_thread() -> None:
    """Pool initializer: one BLAS thread in each ``--jobs`` worker.

    Forked workers inherit the parent's OpenBLAS pool, one thread per core, so
    N workers on 33x33 kernels would run N x cores busy threads.  The count is
    set through numpy's bundled OpenBLAS; with any other BLAS (no such
    symbol) this does nothing, and OPENBLAS_NUM_THREADS / OMP_NUM_THREADS set
    before start-up remain the way to pin it.
    """
    set_threads = _bundled_openblas("scipy_openblas_set_num_threads64_")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
