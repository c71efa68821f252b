import concurrent.futures
import ctypes
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinquad.kinetics as kinetics
import spinquad.odmr as odmr
from helpers import compare_secular_lines, find_features, loop_drive_superoperator
from spinquad.hamiltonian import CenterParams, transition_table
from spinquad.kinetics import (
    RateParams,
    SpinState,
    build_generator,
    state_to_coords,
    steady_state,
    trace_functional,
)
from spinquad.odmr import (
    PERTURBATIVE_LIMIT,
    DriveParams,
    SingularResponse,
    drive_superoperator,
    mw_response,
    odmr_map,
    odmr_spectrum,
)
from spinquad.rate_model import rate_model_lines
from spinquad.spin_algebra import make_spin_operators


def test_zero_amplitude_gives_zero(center, rates):
    dpl, baseline = mw_response(center, rates, 0.0, DriveParams(b1=0.0, freq=70.0))
    assert dpl == 0.0 and baseline > 0


def test_positive_resonances_at_zero_field(center, rates, drive):
    for freq in (70.0, 440.0):
        dpl, _ = mw_response(center, rates, 0.0, replace(drive, freq=freq))
        assert dpl > 0


def test_es_lines_negative_at_7mT(center, rates, drive):
    tt = transition_table("e", center, 7.0)
    gen = build_generator(center, rates, 7.0)
    s0 = steady_state(gen)
    w = drive_superoperator(center, drive)
    for i, j in ((1, 2), (0, 3)):
        freq, m2 = tt.lookup(i, j)
        assert m2 > 0.05
        dpl, _ = mw_response(center, rates, 7.0, replace(drive, freq=freq),
                             gen=gen, drive_op=w, s0=s0)
        assert dpl < 0


def test_spectrum_two_features_zero_field(center, rates, drive):
    freqs = np.arange(30.0, 500.0, 0.5)
    res = odmr_spectrum(center, rates, 0.0, drive, freqs)
    feats = find_features(freqs, res.dpl[0])
    assert len(feats) == 2
    (c1, v1), (c2, v2) = sorted(feats)
    assert c1 == pytest.approx(70.0, abs=0.5)
    assert c2 == pytest.approx(440.0, abs=0.5)
    assert v1 > 0 and v2 > 0


def test_gs_pattern_at_7mT(center, rates, drive):
    # two positive outer peaks with a negative resonance in between
    tt = transition_table("g", center, 7.0)
    f01, _ = tt.lookup(0, 1)
    f12, _ = tt.lookup(1, 2)
    f23, _ = tt.lookup(2, 3)
    assert f01 < f12 < f23
    gen = build_generator(center, rates, 7.0)
    s0 = steady_state(gen)
    w = drive_superoperator(center, drive)
    signs = []
    for f in (f01, f12, f23):
        dpl, _ = mw_response(center, rates, 7.0, replace(drive, freq=f),
                             gen=gen, drive_op=w, s0=s0)
        signs.append(np.sign(dpl))
    assert signs == [1.0, -1.0, 1.0]


def test_off_resonant_response_is_tiny(center, rates, drive):
    on, _ = mw_response(center, rates, 0.0, replace(drive, freq=70.0))
    off, _ = mw_response(center, rates, 0.0, replace(drive, freq=650.0))
    assert abs(off) < 1e-6 * abs(on)


def test_quadratic_amplitude_scaling(center, rates):
    d1 = DriveParams(b1=0.001, freq=70.3)
    d2 = DriveParams(b1=0.002, freq=70.3)
    v1, _ = mw_response(center, rates, 0.0, d1)
    v2, _ = mw_response(center, rates, 0.0, d2)
    assert v2 / v1 == pytest.approx(4.0, rel=0.01)
    # complex amplitude of the same modulus gives the same response
    v3, _ = mw_response(center, rates, 0.0, replace(d1, b1=0.001j))
    assert v3 == pytest.approx(v1, rel=1e-9)


def test_drive_axis_override(center, rates):
    # at zero field a z-axis drive commutes with both Hamiltonians: no
    # response; x and y drives are equivalent by symmetry
    vy, _ = mw_response(center, rates, 0.0, DriveParams(b1=0.002, axis="y", freq=70.0))
    vx, _ = mw_response(center, rates, 0.0, DriveParams(b1=0.002, axis="x", freq=70.0))
    vz, _ = mw_response(center, rates, 0.0, DriveParams(b1=0.002, axis="z", freq=70.0))
    assert vx == pytest.approx(vy, rel=1e-9)
    assert abs(vz) < 1e-20 * abs(vy)
    with pytest.raises(ValueError):
        DriveParams(axis="q")


def test_first_harmonic_conjugate_pair_reality(center, rates, drive):
    # the DC source -(V s- + V* s+) built from s- = conj(s+) must be real
    gen = build_generator(center, rates, 0.0)
    s0 = steady_state(gen)
    w = drive_superoperator(center, drive)
    x0 = state_to_coords(s0)
    b1 = complex(drive.b1)
    omega = 2 * np.pi * 70.0
    s_plus = np.linalg.solve(gen.matrix + 1j * omega * np.eye(33), -b1 * w @ x0)
    source = b1 * (w @ np.conj(s_plus)) + np.conj(b1) * (w @ s_plus)
    assert np.max(np.abs(source.imag)) < 1e-12 * max(np.max(np.abs(source.real)), 1e-300)


def test_line_shape_symmetry(center, rates, drive):
    # isolated ES line at zero field: symmetric response about its center
    gen = build_generator(center, rates, 0.0)
    s0 = steady_state(gen)
    w = drive_superoperator(center, drive)

    def dpl(f):
        return mw_response(center, rates, 0.0, replace(drive, freq=f),
                           gen=gen, drive_op=w, s0=s0)[0]

    # refine the center by parabolic fit on a local grid
    local = np.linspace(439.0, 441.0, 41)
    vals = np.array([dpl(f) for f in local])
    k = np.argmax(vals)
    y0, y1, y2 = vals[k - 1], vals[k], vals[k + 1]
    c = local[k] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * (local[1] - local[0])
    for delta in (0.5, 1.0, 2.0):
        hi, lo = dpl(c + delta), dpl(c - delta)
        assert abs(hi - lo) / max(abs(hi), abs(lo)) < 0.02


def test_spectrum_grid_validation(center, rates, drive):
    with pytest.raises(ValueError):
        odmr_spectrum(center, rates, 0.0, drive, [])
    with pytest.raises(ValueError):
        odmr_spectrum(center, rates, 0.0, drive, [100.0, 50.0])


def test_map_rows_match_individual_spectra(center, rates, drive, monkeypatch):
    # blocks of 3 over 8 fields: partial blocks in the serial sweep (3+3+2) and
    # inside each of the two workers (3+1); forked workers inherit the patch
    monkeypatch.setattr(kinetics, "SWEEP_BLOCK", 3)
    freqs = np.linspace(60.0, 80.0, 11)
    fields = np.linspace(0.0, 7.0, 8)
    res = odmr_map(center, rates, drive, freqs, fields)
    for ib, bx in enumerate(fields):
        row = odmr_spectrum(center, rates, float(bx), drive, freqs)
        assert np.array_equal(res.dpl[ib], row.dpl[0])
        assert res.baseline[ib] == row.baseline[0]
    par = odmr_map(center, rates, drive, freqs, fields, jobs=2)
    assert np.array_equal(par.dpl, res.dpl)
    assert np.array_equal(par.baseline, res.baseline)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_drive_superoperator_matches_column_loop(axis):
    rng = np.random.default_rng(ord(axis))
    for _ in range(10):
        center = CenterParams(d_g=float(rng.uniform(5, 100)), d_e=float(rng.uniform(50, 400)),
                              g_factor=float(rng.uniform(1.5, 2.5)),
                              g_factor_e=float(rng.uniform(1.5, 2.5)))
        drive = DriveParams(b1=0.002, axis=axis)
        w = drive_superoperator(center, drive)
        ref = loop_drive_superoperator(center, drive)
        assert np.array_equal(w, ref)
        assert np.array_equal(np.signbit(w), np.signbit(ref))
        assert w.flags.c_contiguous


def test_perturbative_warning(center, rates):
    with pytest.warns(UserWarning, match="second-order response"):
        mw_response(center, rates, 0.0, DriveParams(b1=0.01, freq=70.0))


def test_singular_response_without_relaxation(center):
    r0 = RateParams(pump=0, recomb=0, gamma_ms=0, eta_g=0, eta_e=0, gamma_g=0, gamma_e=0)
    gen = build_generator(center, r0, 0.0)
    s0 = SpinState(rho_g=np.eye(4, dtype=complex) / 8,
                   rho_e=np.eye(4, dtype=complex) / 8, n_m=0.0)
    with pytest.raises(SingularResponse):
        mw_response(center, r0, 0.0, DriveParams(b1=0.001, freq=70.0), gen=gen, s0=s0)


def test_secular_sign_agreement(center, drive):
    # full model vs rate model: signs of all mutually visible lines agree
    # once the rates are scaled deep into the secular regime; the drive is
    # shrunk along with the rates to stay inside the quadratic regime
    r = RateParams().scaled(0.01)
    drive = replace(drive, b1=5e-5)
    for bx in np.linspace(0.5, 10.0, 20):
        gen = build_generator(center, r, float(bx))
        s0 = steady_state(gen)
        w = drive_superoperator(center, drive)
        lines = rate_model_lines(center, r, float(bx), s0.n_e, m2_floor=1e-4)
        rate_scale = max(abs(v[1]) for v in lines.values())
        vals = {}
        for k, (f0, inten) in lines.items():
            if f0 < 1.0:
                continue
            dpl, _ = mw_response(center, r, float(bx), replace(drive, freq=f0),
                                 gen=gen, drive_op=w, s0=s0)
            vals[k] = (dpl, inten)
        full_scale = max(abs(v[0]) for v in vals.values())
        for k, (dpl, inten) in vals.items():
            if abs(inten) > 0.15 * rate_scale and abs(dpl) > 0.15 * full_scale:
                assert np.sign(dpl) == np.sign(inten), (bx, k, dpl, inten)


def test_secular_area_agreement_linear_regime(center, drive):
    # The closed-form rate equations are first order in the selectivities;
    # quantitative area equivalence therefore holds in the linear-response
    # regime (at the default eta_g = 0.5 the relative deviation reaches ~50%,
    # see the decisions ledger).
    r = RateParams(eta_g=0.01, eta_e=0.007).scaled(0.01)
    max_dev, signs_ok, used = compare_secular_lines(center, r, 3.0, replace(drive, b1=0.0005))
    assert signs_ok
    assert used, "no mutually visible lines found"
    assert max_dev < 0.05


def oracle_dpl(center, rates, bx, drive, freqs):
    """dPL/PL at each frequency from the direct single-frequency solve."""
    gen = build_generator(center, rates, bx)
    s0 = steady_state(gen)
    w = drive_superoperator(center, drive)
    return np.array([
        mw_response(center, rates, bx, replace(drive, freq=float(f)),
                    gen=gen, drive_op=w, s0=s0)[0]
        for f in freqs
    ])


def second_order_scale(center, rates, bx, drive, freqs):
    """Largest entry of the second-order state change ds over the grid, per n_e.

    dPL/PL = sum(ds[16:20]) / n_e is one readout of ds; the round-off of any
    solver for it is relative to |ds|, not to dPL/PL itself.
    """
    gen = build_generator(center, rates, bx)
    s0 = steady_state(gen)
    w = drive_superoperator(center, drive)
    b1 = complex(drive.b1)
    a = np.vstack([gen.matrix, trace_functional()])
    largest = 0.0
    for f in freqs:
        s_plus = np.linalg.solve(gen.matrix + 2j * np.pi * f * np.eye(33),
                                 -b1 * (w @ state_to_coords(s0)))
        source = -2.0 * (w @ np.real(np.conj(b1) * s_plus))
        ds = np.linalg.lstsq(a, np.append(source, 0.0), rcond=None)[0]
        largest = max(largest, np.max(np.abs(ds)))
    return largest / s0.n_e


@pytest.mark.parametrize("bx", [0.0, 1.0, 7.0, 15.0])
def test_spectrum_matches_mw_response(center, rates, drive, bx):
    freqs = np.linspace(20.0, 500.0, 481)
    res = odmr_spectrum(center, rates, bx, drive, freqs)
    ref = oracle_dpl(center, rates, bx, drive, freqs)
    assert res.baseline[0] == mw_response(center, rates, bx, drive)[1]
    floor = 1e-3 * np.max(np.abs(ref))
    assert np.all(np.abs(res.dpl[0] - ref) <= 1e-10 * np.maximum(np.abs(ref), floor))


@settings(max_examples=60, deadline=None)
@given(
    d_g=st.floats(5.0, 100.0), d_e=st.floats(50.0, 400.0),
    g_g=st.floats(1.5, 2.5), g_e=st.floats(1.5, 2.5),
    pump=st.floats(0.2, 5.0), recomb=st.floats(1.0, 30.0), gamma_ms=st.floats(0.05, 3.0),
    eta_g=st.floats(-0.9, 0.9), eta_e=st.floats(-0.9, 0.9),
    gamma_g=st.floats(1e-3, 0.5), gamma_e=st.floats(1e-3, 0.5),
    log_scale=st.floats(-3.0, 0.0),
    bx=st.floats(0.0, 30.0),
    axis=st.sampled_from(["x", "y", "z"]),
    b1_abs=st.floats(1e-4, 1e-2), b1_phase=st.floats(0.0, 2 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectrum_matches_mw_response_property(
    d_g, d_e, g_g, g_e, pump, recomb, gamma_ms, eta_g, eta_e, gamma_g, gamma_e,
    log_scale, bx, axis, b1_abs, b1_phase, seed,
):
    center = CenterParams(d_g=d_g, d_e=d_e, g_factor=g_g, g_factor_e=g_e)
    rates = RateParams(pump=pump, recomb=recomb, gamma_ms=gamma_ms, eta_g=eta_g,
                       eta_e=eta_e, gamma_g=gamma_g, gamma_e=gamma_e).scaled(10**log_scale)
    drive = DriveParams(b1=b1_abs * np.exp(1j * b1_phase), axis=axis)
    # random frequencies plus every line center, where the response peaks
    s_axis = getattr(make_spin_operators(), "s" + axis)
    lines = np.concatenate([transition_table(lv, center, bx, s_axis).freq for lv in "ge"])
    rng = np.random.default_rng(seed)
    freqs = np.sort(np.concatenate([rng.uniform(1.0, 700.0, 30), lines[lines >= 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = odmr_spectrum(center, rates, bx, drive, freqs)
        ref = oracle_dpl(center, rates, bx, drive, freqs)
    # Near a null response (a z-drive at or near 0 mT, eta_e = 0 at equal ES
    # rates) dPL/PL cancels far below |ds| and both sides are round-off of ds.
    scale = max(np.max(np.abs(ref)), second_order_scale(center, rates, bx, drive, freqs))
    assert np.max(np.abs(res.dpl[0] - ref)) <= 1e-8 * scale


def test_spectrum_fallback_matches_mw_response(center, rates, drive, monkeypatch):
    freqs = np.linspace(20.0, 500.0, 41)
    refs = {bx: oracle_dpl(center, rates, bx, drive, freqs) for bx in (0.0, 7.0)}
    calls = []
    direct = odmr._first_harmonic

    def counting(*args):
        calls.append(args[1])
        return direct(*args)

    monkeypatch.setattr(odmr, "POLE_BACKWARD_ERROR", 0.0)
    monkeypatch.setattr(odmr, "_first_harmonic", counting)
    for bx, ref in refs.items():
        calls.clear()
        res = odmr_spectrum(center, rates, bx, drive, freqs)
        assert len(calls) == freqs.size
        assert np.max(np.abs(res.dpl[0] - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_spectrum_warns_once_per_nonperturbative_frequency(center, rates):
    freqs = np.linspace(60.0, 80.0, 81)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = odmr_spectrum(center, rates, 0.0, DriveParams(b1=0.01), freqs)
    hits = [w for w in caught if "second-order response" in str(w.message)]
    expected = np.count_nonzero(np.abs(res.dpl[0]) > PERTURBATIVE_LIMIT)
    assert expected >= 1
    assert len(hits) == expected
    assert all(w.filename == __file__ for w in hits)


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_warnings_reach_the_caller(center, rates, jobs):
    freqs = np.linspace(60.0, 80.0, 21)
    fields = [0.0, 0.1, 0.2]
    drive = DriveParams(b1=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = sum(
            np.count_nonzero(np.abs(odmr_spectrum(center, rates, bx, drive, freqs).dpl)
                             > PERTURBATIVE_LIMIT)
            for bx in fields
        )
    assert expected >= len(fields)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        odmr_map(center, rates, drive, freqs, fields, jobs=jobs)
    hits = [w for w in caught if "second-order response" in str(w.message)]
    assert len(hits) == expected
    assert all(w.filename == __file__ for w in hits)


def test_map_workers_bounded_by_fields(center, rates, drive, monkeypatch):
    requested = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the size and the tasks, starts no process."""

        def __init__(self, max_workers, initializer):
            requested.append(max_workers)
            assert initializer is odmr._single_blas_thread

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            blocks = list(items)
            # one task per worker: contiguous blocks that cover the grid in order
            assert len(blocks) == requested[-1]
            assert all(block.size > 0 for block in blocks)
            assert np.array_equal(np.concatenate(blocks), fields)
            return map(fn, blocks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    freqs = np.linspace(60.0, 80.0, 5)
    fields = np.array([0.0, 2.0])
    res = odmr_map(center, rates, drive, freqs, fields, jobs=10**6)
    assert requested == [2]
    serial = odmr_map(center, rates, drive, freqs, fields)
    assert requested == [2]
    assert np.array_equal(res.dpl, serial.dpl)
    fields = np.linspace(0.0, 4.0, 5)
    res = odmr_map(center, rates, drive, freqs, fields, jobs=2)
    assert requested == [2, 2]
    assert np.array_equal(res.dpl, odmr_map(center, rates, drive, freqs, fields).dpl)


def _openblas_threads(_=None):
    get = odmr._bundled_openblas("scipy_openblas_get_num_threads64_")
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def test_map_workers_run_one_blas_thread():
    set_threads = odmr._bundled_openblas("scipy_openblas_set_num_threads64_")
    if set_threads is None or odmr._bundled_openblas("scipy_openblas_get_num_threads64_") is None:
        pytest.skip("numpy does not bundle scipy-openblas")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    before = _openblas_threads()
    set_threads(2)  # a worker that inherited this pool would report 2
    try:
        with ProcessPoolExecutor(max_workers=2) as pool:
            inherited = list(pool.map(_openblas_threads, range(2)))
        with ProcessPoolExecutor(max_workers=2, initializer=odmr._single_blas_thread) as pool:
            pinned = list(pool.map(_openblas_threads, range(2)))
    finally:
        set_threads(before)
    assert inherited == [2, 2]
    assert pinned == [1, 1]
