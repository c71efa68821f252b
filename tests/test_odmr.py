from dataclasses import replace

import numpy as np
import pytest

from helpers import compare_secular_lines, find_features, loop_drive_superoperator
from spinquad.hamiltonian import CenterParams, transition_table
from spinquad.kinetics import (
    RateParams,
    SpinState,
    build_generator,
    state_to_coords,
    steady_state,
)
from spinquad.odmr import (
    DriveParams,
    SingularResponse,
    drive_superoperator,
    mw_response,
    odmr_map,
    odmr_spectrum,
)
from spinquad.rate_model import rate_model_lines


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


def test_map_rows_match_individual_spectra(center, rates, drive):
    freqs = np.linspace(60.0, 80.0, 11)
    fields = np.array([0.0, 2.0])
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
