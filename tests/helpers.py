"""Shared test oracles, independent of the library's own solution paths.

The secular population model here rebuilds the diagonal (eigenbasis) kinetics
from scratch -- populations only, exact in the spin selectivities -- and is
used to cross-check both the full density-matrix model and the closed-form
rate expressions.
"""

from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from spinquad.cli import SCHEMA_TAG
from spinquad.hamiltonian import CenterParams, eigensystem, transition_table
from spinquad.kinetics import (
    NDIM,
    RateParams,
    SpinState,
    build_generator,
    kinetic_rhs,
    steady_state,
    trace_functional,
)
from spinquad.odmr import drive_superoperator, mw_response
from spinquad.rate_model import rate_model_lines
from spinquad.spin_algebra import commutator, make_spin_operators

UPPER_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _loop_hermitian(c):
    m = np.zeros((4, 4), dtype=complex)
    m[np.diag_indices(4)] = c[0:4]
    for k, (i, j) in enumerate(UPPER_PAIRS):
        m[i, j] = c[4 + k] + 1j * c[10 + k]
        m[j, i] = c[4 + k] - 1j * c[10 + k]
    return m


def _loop_coords(m):
    c = np.empty(16)
    c[0:4] = np.diag(m).real
    for k, (i, j) in enumerate(UPPER_PAIRS):
        c[4 + k] = m[i, j].real
        c[10 + k] = m[i, j].imag
    return c


def probe_columns(fn):
    """Matrix of a linear SpinState map, one unit state per call.

    The column-by-column reference for ``kinetics.linear_map_matrix``, with
    its own entry-by-entry coordinate conversions.
    """
    m = np.empty((NDIM, NDIM))
    for k in range(NDIM):
        unit = np.zeros(NDIM)
        unit[k] = 1.0
        s = fn(SpinState(
            rho_g=_loop_hermitian(unit[0:16]), rho_e=_loop_hermitian(unit[16:32]), n_m=unit[32]
        ))
        m[0:16, k] = _loop_coords(s.rho_g)
        m[16:32, k] = _loop_coords(s.rho_e)
        m[32, k] = s.n_m
    return m


def loop_generator(center, rates, bx):
    """Reference for ``build_generator``: kinetic_rhs probed column by column."""
    return probe_columns(lambda s: kinetic_rhs(center, rates, bx, s))


def loop_drive_superoperator(center, drive):
    """Reference for ``drive_superoperator``: the drive commutator, column by column."""
    ops = make_spin_operators()
    s_axis = {"x": ops.sx, "y": ops.sy, "z": ops.sz}[drive.axis]

    def rhs(s):
        d_g = 2.0 * np.pi * 1j * commutator(s.rho_g, center.gyro_of("g") * s_axis)
        d_e = 2.0 * np.pi * 1j * commutator(s.rho_e, center.gyro_of("e") * s_axis)
        return SpinState(rho_g=d_g, rho_e=d_e, n_m=0.0)

    return probe_columns(rhs)


def lstsq_steady_coords(g):
    """Reference for the steady state: the 34x33 least-squares solve of one generator."""
    t_row = trace_functional()
    b = np.zeros(NDIM + 1)
    b[-1] = 1.0
    x, *_ = np.linalg.lstsq(np.vstack([g, t_row]), b, rcond=None)
    return x / (t_row @ x)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def loop_csv_text(subcommand, names, rows, meta):
    """Reference for ``cli.write_csv``: the file text with every value formatted alone."""
    lines = [f"# {SCHEMA_TAG} {subcommand}"]
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


class SecularPopulationModel:
    """Exact eigenbasis population kinetics: 9 variables (f_g, f_e, N_m)."""

    def __init__(self, center: CenterParams, rates: RateParams, bx: float):
        ops = make_spin_operators()
        v_g = eigensystem("g", center, bx).vectors
        v_e = eigensystem("e", center, bx).vectors
        h_g = np.real(np.diag(v_g.conj().T @ ops.p_half @ v_g))
        h_e = np.real(np.diag(v_e.conj().T @ ops.p_half @ v_e))
        t_eg = np.abs(v_e.conj().T @ v_g) ** 2
        drain = rates.k_e_half * h_e + rates.k_e_three * (1.0 - h_e)
        refill = 0.5 * (rates.k_g_half * h_g + rates.k_g_three * (1.0 - h_g))

        a = np.zeros((9, 9))
        for i in range(4):
            a[i, 4:8] += rates.recomb * t_eg.T[i, :]
            a[i, i] -= rates.pump + rates.gamma_g
            a[i, 0:4] += rates.gamma_g / 4.0
            a[i, 8] += refill[i]
            a[4 + i, 0:4] += rates.pump * t_eg[i, :]
            a[4 + i, 4 + i] -= rates.recomb + rates.gamma_e + drain[i]
            a[4 + i, 4:8] += rates.gamma_e / 4.0
            a[8, 4 + i] += drain[i]
        a[8, 8] -= rates.k_g_half + rates.k_g_three
        self.matrix = a
        self.rates = rates
        self.center = center
        self.bx = bx

    def steady(self, source=None, total: float = 1.0) -> np.ndarray:
        m = np.vstack([self.matrix, np.ones(9)])
        b = np.zeros(10)
        b[-1] = total
        if source is not None:
            b[:9] = -np.asarray(source)
        x, *_ = np.linalg.lstsq(m, b, rcond=None)
        return x

    def line_intensity(self, level: str, i: int, j: int) -> float:
        """PL change per unit MW kick strength on transition (i, j)."""
        x0 = self.steady()
        tt = transition_table(level, self.center, self.bx)
        _, m2 = tt.lookup(i, j)
        pops = x0[:4] if level == "g" else x0[4:8]
        amp = m2 * (pops[j] - pops[i])
        src = np.zeros(9)
        base = 0 if level == "g" else 4
        src[base + i] = amp
        src[base + j] = -amp
        x = self.steady(source=src, total=x0.sum())
        return float(self.rates.recomb * (x - x0)[4:8].sum())


def full_model_line_area(center, rates, bx, drive, freq0, halfwidth=2.0, gen=None, s0=None, w=None):
    """Integral of dPL/PL across one resonance of the full kinetic model."""
    if gen is None:
        gen = build_generator(center, rates, bx)
    if s0 is None:
        s0 = steady_state(gen)
    if w is None:
        w = drive_superoperator(center, drive)

    def f(x):
        return mw_response(center, rates, bx, replace(drive, freq=x),
                           gen=gen, drive_op=w, s0=s0)[0]

    val, _ = quad(f, freq0 - halfwidth, freq0 + halfwidth, limit=300, points=[freq0])
    return val


def compare_secular_lines(center, rates, bx, drive, min_visible=0.05):
    """Full-model areas vs rate-model intensities at one field.

    Returns (max relative deviation of normalized areas over mutually visible
    lines, signs_agree over mutually visible lines, list of line keys used).
    A line is visible when its magnitude exceeds ``min_visible`` of the
    strongest line of the same model.
    """
    gen = build_generator(center, rates, bx)
    s0 = steady_state(gen)
    w = drive_superoperator(center, drive)
    lines = rate_model_lines(center, rates, bx, s0.n_e, m2_floor=1e-6)
    keys = sorted((k for k in lines if lines[k][0] > 1.0), key=lambda k: lines[k][0])
    areas = np.array([
        full_model_line_area(center, rates, bx, drive, lines[k][0], gen=gen, s0=s0, w=w)
        for k in keys
    ])
    intens = np.array([lines[k][1] for k in keys])
    a_n = areas / np.max(np.abs(areas))
    r_n = intens / np.max(np.abs(intens))
    visible = (np.abs(a_n) > min_visible) & (np.abs(r_n) > min_visible)
    signs_ok = bool(np.all(np.sign(areas[visible]) == np.sign(intens[visible])))
    max_dev = float(np.max(np.abs(a_n[visible] - r_n[visible]) / np.abs(a_n[visible])))
    return max_dev, signs_ok, [k for k, v in zip(keys, visible) if v]


def find_features(freqs, dpl, rel_threshold=1e-3):
    """Contiguous |dpl| excursions above rel_threshold * max|dpl|.

    Returns a list of (center_freq, signed_peak_value), centers refined by a
    parabolic fit through the in-cluster maximum of |dpl|.
    """
    dpl = np.asarray(dpl)
    mask = np.abs(dpl) > rel_threshold * np.max(np.abs(dpl))
    idx = np.where(mask)[0]
    if idx.size == 0:
        return []
    groups = np.split(idx, np.where(np.diff(idx) > 1)[0] + 1)
    features = []
    for g in groups:
        k = g[np.argmax(np.abs(dpl[g]))]
        center = freqs[k]
        if 0 < k < len(freqs) - 1:
            y0, y1, y2 = np.abs(dpl[k - 1]), np.abs(dpl[k]), np.abs(dpl[k + 1])
            denom = y0 - 2 * y1 + y2
            if denom != 0:
                center = freqs[k] + 0.5 * (y0 - y2) / denom * (freqs[k] - freqs[k - 1])
        features.append((float(center), float(dpl[k])))
    return features
