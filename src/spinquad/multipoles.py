"""Spin multipoles, Husimi sphere maps, and extraction from ODMR peak areas.

Quadrupole <S_z^2 - 5/4> and dipole <S_x> are computed either directly from a
density matrix or from eigenstate population variations via closed forms in
the reduced field b = gyro*B/D.  The closed forms below are the exact
per-eigenstate operator averages:

    <Q>_1,3 = +/- (2-b) / (2 sqrt(1-b+b^2)),   <Q>_2,4 = +/- (2+b) / (2 sqrt(1+b+b^2))
    <Sx>_1,3 = 1/2 +/- (2b-1) / (2 sqrt(1-b+b^2)),
    <Sx>_2,4 = -1/2 +/- (2b+1) / (2 sqrt(1+b+b^2)),

(states numbered by descending energy), so that the population form agrees
with the trace form trace(rho*A)/trace(rho) identically.

The inverse problem takes measured ODMR peak areas, models each area as the
secular line intensity generated by the unknown population difference on that
transition, and solves the resulting linear system for the population
variations (GS: three observed lines plus the sum-zero constraint; ES: two
observed lines, the remaining transitions prescribed zero intensity).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hamiltonian import CenterParams
from .kinetics import RateParams, steady_state_at
from .rate_model import (
    TransferMatrices,
    line_intensities,
    odmr_line_intensity,
    solve_population_variations,
    transfer_matrices,
    transition_tables,
    unit_kick,
)
from .spin_algebra import make_spin_operators, rotation_operator

GS_TRANSITIONS = ((0, 1), (1, 2), (2, 3))
ES_OBSERVED = ((0, 3), (1, 2))
ES_ZERO = ((0, 1), (0, 2), (1, 3), (2, 3))
GS_LINES = tuple(("g", i, j) for i, j in GS_TRANSITIONS)


class ZeroTrace(ValueError):
    """Density matrix has (numerically) zero trace; averages are undefined."""


class UnnormalizedInput(ValueError):
    """Population variations must sum to zero."""


class SingularExtraction(RuntimeError):
    """The peak-area design matrix is rank-deficient."""


def _trace_average(rho: np.ndarray, op: np.ndarray):
    """trace(rho @ op) / trace(rho) over the last two axes of ``rho``."""
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    if np.any(np.abs(tr) < 1e-300):
        raise ZeroTrace("trace(rho) is zero")
    return np.trace(rho @ op, axis1=-2, axis2=-1).real / tr


def quadrupole(rho: np.ndarray):
    """<S_z^2 - 5/4>: +1 for a pure +/-3/2 doublet, -1 for +/-1/2, 0 when mixed.

    ``rho`` is one 4x4 density matrix or a batch (..., 4, 4).
    """
    ops = make_spin_operators()
    q_op = ops.sz @ ops.sz - 1.25 * np.eye(4)
    return _trace_average(rho, q_op)


def dipole_x(rho: np.ndarray):
    """<S_x>, in [-3/2, 3/2]; batched like :func:`quadrupole`."""
    return _trace_average(rho, make_spin_operators().sx)


@dataclass(frozen=True)
class HusimiGrid:
    """Husimi quasiprobability P(theta, phi) on a midpoint sphere grid."""

    thetas: np.ndarray  # (n_theta,)
    phis: np.ndarray    # (n_phi,)
    values: np.ndarray  # (n_theta, n_phi), >= 0

    def normalization(self) -> float:
        """(1/pi) * integral of P sin(theta) dtheta dphi; equals trace(rho)."""
        dth = np.pi / self.thetas.size
        dph = 2.0 * np.pi / self.phis.size
        return float(np.sum(self.values * np.sin(self.thetas)[:, None]) * dth * dph / np.pi)


def husimi(rho: np.ndarray, n_theta: int = 91, n_phi: int = 181) -> HusimiGrid:
    """P(theta, phi) = <3/2|_(theta,phi) rho |3/2>_(theta,phi).

    The coherent state is the rotated stretched state
    exp(-i phi S_z) exp(-i theta S_y) |+3/2>_z: the stretched column of the
    stacked theta rotations (one ``eigh`` of S_y) times the S_z phases, so the
    grid is one einsum over (n_theta, 4, n_phi) coherent states.
    """
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phis = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    mvals = np.array([1.5, 0.5, -0.5, -1.5])
    phase = np.exp(-1j * np.outer(mvals, phis))  # (4, n_phi)
    psi = rotation_operator(thetas, 0.0)[:, :, 0, None] * phase
    values = np.real(np.einsum("tap,ab,tbp->tp", psi.conj(), rho, psi))
    return HusimiGrid(thetas=thetas, phis=phis, values=values)


def multipoles_from_populations(df, b: float) -> tuple[float, float]:
    """(quadrupole, dipole_x) of a traceless population variation at field b.

    ``df`` are the variations of the four descending-energy eigenstate
    populations; ``b`` is the reduced field gyro*B/D of the level.  These are
    the exact operator averages (see module docstring); they reproduce
    trace-form multipoles of the eigenbasis-diagonal traceless matrix built
    from ``df``.
    """
    df = np.asarray(df, dtype=float)
    if df.shape != (4,):
        raise UnnormalizedInput("df must have exactly 4 entries")
    if abs(df.sum()) > 1e-9 * max(1.0, np.max(np.abs(df))):
        raise UnnormalizedInput(f"df must sum to zero, got {df.sum():.3e}")
    s_minus = np.sqrt(1.0 - b + b * b)
    s_plus = np.sqrt(1.0 + b + b * b)
    quad = (2.0 + b) * (df[1] - df[3]) / (2.0 * s_plus) + (2.0 - b) * (df[0] - df[2]) / (
        2.0 * s_minus
    )
    dip = (
        (1.0 + 2.0 * b) * (df[1] - df[3]) / (2.0 * s_plus)
        + (1.0 - 2.0 * b) * (df[2] - df[0]) / (2.0 * s_minus)
        + (df[0] + df[2] - df[1] - df[3]) / 2.0
    )
    return float(quad), float(dip)


@dataclass(frozen=True)
class PeakAreaSet:
    """Signed ODMR peak areas of one level at one field (arbitrary units).

    Transitions are keyed by 0-based descending-energy eigenstate pairs.
    The GS set must carry exactly the three observed transitions
    (0,1), (1,2), (2,3); the ES set carries (0,3) and (1,2), all other ES
    transitions being prescribed zero intensity.
    """

    level: str
    areas: dict
    field: float

    def __post_init__(self):
        keys = {(min(i, j), max(i, j)) for i, j in self.areas}
        if len(keys) < len(self.areas):
            raise ValueError(
                f"{self.level.upper()} areas name a transition twice, got {sorted(self.areas)}"
            )
        expected = set(GS_TRANSITIONS) if self.level == "g" else set(ES_OBSERVED)
        if keys != expected:
            raise ValueError(
                f"{self.level.upper()} areas must carry exactly {sorted(expected)}, got {sorted(keys)}"
            )


@dataclass(frozen=True)
class ExtractionResult:
    df_g: np.ndarray
    df_e: np.ndarray
    quad_g: float
    quad_e: float
    dip_g: float
    dip_e: float
    residual_g: float
    residual_e: float
    calibrated: bool


def _design_row(
    rates: RateParams, tm: TransferMatrices, tt, level: str, i: int, j: int
) -> np.ndarray:
    """Row r with r @ df = modeled area of transition (i, j)."""
    coeff = odmr_line_intensity(rates, tm, unit_kick(tt, i, j), level)
    row = np.zeros(4)
    row[j], row[i] = coeff, -coeff
    return row


def _solve_level(
    rates: RateParams,
    tm: TransferMatrices,
    tt,
    level: str,
    observed: dict,
    zero_transitions=(),
) -> tuple[np.ndarray, float]:
    targets = sorted(observed.items()) + [(ij, 0.0) for ij in zero_transitions]
    a = np.array([_design_row(rates, tm, tt, level, *ij) for ij, _ in targets] + [np.ones(4)])
    b = np.array([area for _, area in targets] + [0.0])
    if np.linalg.matrix_rank(a, tol=1e-12 * max(np.max(np.abs(a)), 1e-300)) < 4:
        raise SingularExtraction(
            f"{level.upper()} design matrix is rank-deficient (degenerate matrix elements)"
        )
    df, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ df - b))
    return df, residual


def model_peak_areas(
    center: CenterParams, rates: RateParams, bx: float
) -> tuple[PeakAreaSet, PeakAreaSet]:
    """Forward model: the peak areas the secular model predicts at bx.

    The ES population is taken from the full kinetic model's steady state.
    """
    tm = transfer_matrices(center, bx)
    pv = solve_population_variations(rates, tm, steady_state_at(center, rates, bx).n_e)
    lines = line_intensities(
        rates, tm, pv, transition_tables(center, bx),
        GS_LINES + tuple(("e", i, j) for i, j in ES_OBSERVED),
    )
    return tuple(
        PeakAreaSet(level, {(i, j): a for (lv, i, j), a in lines.items() if lv == level}, bx)
        for level in ("g", "e")
    )


def extract_from_peak_areas(
    gs: PeakAreaSet,
    es: PeakAreaSet,
    center: CenterParams,
    rates: RateParams,
    bx: float,
    calibrated: bool = False,
) -> ExtractionResult:
    """Recover population variations (and multipoles) from ODMR peak areas.

    The recovered df carry the input areas' arbitrary unit.  In calibrated
    mode the scale is fixed by matching the model-predicted total GS area at
    the same parameters, and the multipoles are normalized by the model's
    level populations so they are comparable to the density-matrix values.
    Warns below 2 mT, where the GS peaks overlap in practice.
    """
    if gs.level != "g" or es.level != "e":
        raise ValueError("pass the GS set first and the ES set second")
    if bx < 2.0:
        warnings.warn(
            "below 2 mT the GS transitions overlap spectrally; extracted areas "
            "are unreliable there",
            stacklevel=2,
        )
    tm = transfer_matrices(center, bx)
    tables = transition_tables(center, bx)

    df_g, res_g = _solve_level(rates, tm, tables["g"], "g", gs.areas)
    df_e, res_e = _solve_level(rates, tm, tables["e"], "e", es.areas, zero_transitions=ES_ZERO)

    n_g = n_e = 1.0
    if calibrated:
        # the model's GS areas from this call's own matrices, tables and state
        state = steady_state_at(center, rates, bx)
        n_g, n_e = state.n_g, state.n_e
        pv = solve_population_variations(rates, tm, n_e)
        total_model = sum(map(abs, line_intensities(rates, tm, pv, tables, GS_LINES).values()))
        total_input = sum(abs(v) for v in gs.areas.values())
        scale = total_model / total_input if total_input > 0 else 0.0
        df_g = df_g * scale
        df_e = df_e * scale

    b_g = center.gyro * bx / center.d_g
    b_e = center.gyro_of("e") * bx / center.d_e
    quad_g, dip_g = multipoles_from_populations(df_g, b_g)
    quad_e, dip_e = multipoles_from_populations(df_e, b_e)
    if calibrated:
        quad_g, dip_g = quad_g / n_g, dip_g / n_g
        quad_e, dip_e = quad_e / n_e, dip_e / n_e

    return ExtractionResult(
        df_g=df_g,
        df_e=df_e,
        quad_g=quad_g,
        quad_e=quad_e,
        dip_g=dip_g,
        dip_e=dip_e,
        residual_g=res_g,
        residual_e=res_e,
        calibrated=calibrated,
    )


def peak_areas_from_json(doc) -> tuple[PeakAreaSet, PeakAreaSet, float]:
    """Parse the wire format {"field_mT": x, "gs": {"1-2": a, ...}, "es": {...}}.

    Wire transition keys are 1-based state pairs; they map to the 0-based
    indices used everywhere else.  A malformed document raises ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError("peak-area document must be an object")
    try:
        field = _finite("field_mT", doc["field_mT"])
        gs_doc = doc["gs"]
        es_doc = doc["es"]
    except KeyError as err:
        raise ValueError(f"peak-area document missing key {err}") from None

    def parse(level: str, block) -> PeakAreaSet:
        if not isinstance(block, dict):
            raise ValueError(f"peak-area block '{level}s' must be an object")
        areas = {}
        for key, val in block.items():
            i_str, j_str = key.split("-")
            areas[(int(i_str) - 1, int(j_str) - 1)] = _finite(f"area {key}", val)
        return PeakAreaSet(level=level, areas=areas, field=field)

    return parse("g", gs_doc), parse("e", es_doc), field


def _finite(name: str, value) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = np.nan
    if not np.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return x
