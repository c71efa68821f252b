"""The bordered LU solves against a 60-digit solve of the same float64 systems.

The reference is the exact least-squares solution of [G; t] y = [b; c] for
the float64 generator G and right-hand sides b, from the normal equations in
60-digit arithmetic: their condition number, cond([G; t])^2, stays below
1e10 here, so more than 40 digits survive.
"""

import numpy as np
import pytest

from conftest import random_valid_rates
from spinquad.kinetics import (
    NDIM,
    RateParams,
    build_generator,
    state_to_coords,
    steady_state,
    trace_functional,
)
from spinquad.odmr import DriveParams, _second_order_dc, drive_superoperator

mpmath = pytest.importorskip("mpmath")

FIELDS = (0.0, 1.0, 7.0, 15.0)
FREQS = np.linspace(20.0, 500.0, 9)
_RNG = np.random.default_rng(41)
RATE_SETS = [RateParams()] + [random_valid_rates(_RNG) for _ in range(3)]


def mp_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columns of the least-squares solution of a y = b, rounded from 60 digits."""
    with mpmath.workdps(60):
        cols = [[mpmath.mpf(v) for v in col] for col in a.T.tolist()]
        # [a^T a | a^T b], Gaussian elimination with partial pivoting
        rows = [[mpmath.fdot(ci, cj) for cj in cols] + [mpmath.fdot(ci, bj) for bj in b.T.tolist()]
                for ci in cols]
        n = len(rows)
        for k in range(n):
            p = max(range(k, n), key=lambda i: abs(rows[i][k]))
            rows[k], rows[p] = rows[p], rows[k]
            for r in rows[k + 1:]:
                f = r[k] / rows[k][k]
                for j in range(k, len(r)):
                    r[j] -= f * rows[k][j]
        y = [None] * n
        for k in reversed(range(n)):
            y[k] = [(rows[k][n + j] - mpmath.fsum(rows[k][i] * y[i][j] for i in range(k + 1, n)))
                    / rows[k][k] for j in range(b.shape[1])]
        return np.array([[float(v) for v in row] for row in y])


@pytest.mark.parametrize("rates", RATE_SETS, ids=["default", "random1", "random2", "random3"])
def test_bordered_solves_match_mp_reference(center, rates):
    drive = DriveParams(b1=0.002)
    w = drive_superoperator(center, drive)
    b1 = complex(drive.b1)
    t_row = trace_functional()
    for bx in FIELDS:
        gen = build_generator(center, rates, bx)
        x = state_to_coords(steady_state(gen))
        s_plus = np.linalg.solve(gen.matrix + 2j * np.pi * FREQS[:, None, None] * np.eye(NDIM),
                                 -b1 * (w @ x))
        source = -2.0 * (w @ np.real(np.conj(b1) * s_plus).T)
        ds = _second_order_dc(gen.matrix, source)
        # steady state: G x = 0, t.x = 1; DC stage: G ds = source, t.ds = 0
        rhs = np.zeros((NDIM + 1, 1 + FREQS.size))
        rhs[-1, 0] = 1.0
        rhs[:-1, 1:] = source
        ref = mp_lstsq(np.vstack([gen.matrix, t_row]), rhs)
        assert np.max(np.abs(x - ref[:, 0])) <= 1e-13 * np.max(np.abs(ref[:, 0]))
        n_e, n_e_ref = ds[16:20].sum(axis=0), ref[16:20, 1:].sum(axis=0)
        err = np.max(np.abs(n_e - n_e_ref))
        # n_e sums entries of ds that cancel by up to ~4e3 for some random
        # rates, so the round-off of any solver is relative to max|ds|; at
        # the default rates the readout itself is held to 1e-13
        assert err <= 1e-14 * np.max(np.abs(ref[:, 1:]))
        if rates == RateParams():
            assert err <= 1e-13 * np.max(np.abs(n_e_ref))
