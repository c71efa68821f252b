"""Correctness checks of one CLI call's outputs, run outside the timed region.

Every call must have exited 0 and written exactly its expected data files,
each with its ``# spinquad-v1 <subcommand>`` header (CSV) or schema tag
(JSON), the expected row count and only finite values.  On top of that:

- ``spectrum`` / ``map``: a seeded sample of (field, freq) rows is recomputed
  by a fresh ``odmr.mw_response`` call (the slow oracle: generator, steady
  state and drive rebuilt per point).  Relative error is taken against
  max(|oracle|, 1e-3 * max|dPL| of the file), tolerance ``ODMR_RTOL``.
- ``multipoles``: n_g + n_e + n_m = 1 and the GS quadrupole is negative at
  every field.
- ``husimi``: the normalization, recomputed from the CSV values and as
  written in the JSON, equals trace(rho) of a freshly computed steady state
  to ``HUSIMI_RTOL`` (the midpoint rule on the 91 x 181 grid is ~5e-5 off).
- ``extract``: the noise-free areas round-trip: calibrated GS variations
  equal the secular model's, both residuals vanish, and the extracted ES
  variations reproduce the input ES areas.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np

from spinquad.config import load_config
from spinquad.hamiltonian import transition_table
from spinquad.kinetics import build_generator, steady_state, steady_state_at
from spinquad.multipoles import ES_OBSERVED, peak_areas_from_json
from spinquad.odmr import mw_response
from spinquad.rate_model import (
    odmr_line_intensity,
    solve_population_variations,
    transfer_matrices,
)

SCHEMA_TAG = "spinquad-v1"
ODMR_RTOL = 1e-8
ODMR_SAMPLES = {"spectrum": 4, "map": 16}
HUSIMI_RTOL = 1e-3
EXTRACT_ATOL = 1e-9
SUM_ATOL = 1e-12


class CheckFailed(Exception):
    """An output violates its format or a physics invariant."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_csv(path: Path, subcommand: str, rows: int) -> tuple[list, np.ndarray]:
    """(numeric column names, their values as a rows x columns array)."""
    with path.open() as fh:
        head = [fh.readline().rstrip("\n")]
        while head[-1].startswith("#"):
            head.append(fh.readline().rstrip("\n"))
    _require(head[0] == f"# {SCHEMA_TAG} {subcommand}",
             f"{path.name}: missing '# {SCHEMA_TAG} {subcommand}' header")
    numeric = [k for k, c in enumerate(head[-1].split(",")) if c != "level"]
    values = np.loadtxt(path, delimiter=",", skiprows=len(head), usecols=numeric, ndmin=2)
    _require(values.shape[0] == rows, f"{path.name}: {values.shape[0]} rows, expected {rows}")
    _require(bool(np.isfinite(values).all()), f"{path.name}: non-finite value")
    return [head[-1].split(",")[k] for k in numeric], values


def _finite_leaves(obj, where: str) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _finite_leaves(v, f"{where}.{k}")
    elif isinstance(obj, list):
        if obj and all(type(v) is float for v in obj):
            _require(bool(np.isfinite(obj).all()), f"{where}: non-finite value")
            return
        for v in obj:
            _finite_leaves(v, where)
    elif isinstance(obj, (bool, str)):
        return
    else:
        _require(isinstance(obj, (int, float)) and math.isfinite(obj),
                 f"{where}: non-finite or missing value {obj!r}")


def _read_json(path: Path, subcommand: str):
    doc = json.loads(path.read_text())
    _require(doc.get("meta", {}).get("schema") == f"{SCHEMA_TAG} {subcommand}",
             f"{path.name}: schema tag is not '{SCHEMA_TAG} {subcommand}'")
    _finite_leaves(doc["data"], path.name)
    return doc["data"]


def _resolved_config(call):
    argv = list(call.argv)
    path = argv[argv.index("--config") + 1] if "--config" in argv else None
    return load_config(path)


def _check_odmr(call, table: np.ndarray, rng: random.Random) -> float:
    cfg = _resolved_config(call)
    scale = float(np.max(np.abs(table[:, 2])))
    worst = 0.0
    for k in rng.sample(range(len(table)), ODMR_SAMPLES[call.subcommand]):
        freq, bx, dpl, baseline = (float(v) for v in table[k])
        ref_dpl, ref_base = mw_response(cfg.center, cfg.rates, bx, replace(cfg.drive, freq=freq))
        err = abs(dpl - ref_dpl) / max(abs(ref_dpl), 1e-3 * scale)
        worst = max(worst, err, abs(baseline - ref_base) / ref_base)
    _require(worst <= ODMR_RTOL,
             f"{call.out}: dPL deviates from the mw_response oracle by {worst:.3e} (rel)")
    return worst


def _check_multipoles(columns: list, table: np.ndarray) -> None:
    col = {c: table[:, i] for i, c in enumerate(columns)}
    total_err = np.abs(col["n_g"] + col["n_e"] + col["n_m"] - 1.0)
    _require(bool((total_err <= SUM_ATOL).all()),
             f"populations miss 1 by {total_err.max():.3e} at {col['field_mT'][total_err.argmax()]} mT")
    _require(bool((col["quad_g"] < 0).all()),
             f"GS quadrupole >= 0 at {col['field_mT'][col['quad_g'].argmax()]} mT")


def _husimi_norm(table: np.ndarray) -> float:
    n_theta, n_phi = np.unique(table[:, 0]).size, np.unique(table[:, 1]).size
    total = float(np.sum(table[:, 2] * np.sin(table[:, 0])))
    return total * (math.pi / n_theta) * (2.0 * math.pi / n_phi) / math.pi


def _check_husimi(call, out: Path) -> None:
    cfg = _resolved_config(call)
    state = steady_state(build_generator(cfg.center, cfg.rates, call.field_mT))
    data = _read_json(out / "husimi.json", "husimi")
    for level, rho in (("g", state.rho_g), ("e", state.rho_e)):
        _, table = _read_csv(out / f"husimi_{level}.csv", "husimi", call.rows)
        trace = float(np.trace(rho).real)
        for label, norm in (("csv", _husimi_norm(table)),
                            ("json", data[level]["normalization"])):
            _require(abs(norm - trace) <= HUSIMI_RTOL * trace,
                     f"{call.out}: {level} normalization ({label}) {norm!r} != trace {trace!r}")


def _check_extract(call, workdir: Path, data: dict) -> None:
    cfg = _resolved_config(call)
    doc = json.loads((workdir / call.areas).read_text())
    _, es, bx = peak_areas_from_json(doc)
    center, rates = cfg.center, cfg.rates
    tm = transfer_matrices(center, bx)
    pv = solve_population_variations(rates, tm, steady_state_at(center, rates, bx).n_e)
    err_g = float(np.max(np.abs(np.asarray(data["df_g"]) - pv.df_g)))
    _require(err_g <= EXTRACT_ATOL, f"{call.out}: GS variations off by {err_g:.3e}")
    _require(data["residual_g"] <= EXTRACT_ATOL and data["residual_e"] <= EXTRACT_ATOL,
             f"{call.out}: nonzero residuals {data['residual_g']!r}, {data['residual_e']!r}")
    tt = transition_table("e", center, bx)
    df_e = data["df_e"]
    scale = max(abs(a) for a in es.areas.values())
    for i, j in ES_OBSERVED:
        _, m2 = tt.lookup(i, j)
        kick = np.zeros(4)
        amp = m2 * (df_e[j] - df_e[i])
        kick[i], kick[j] = amp, -amp
        got = odmr_line_intensity(rates, tm, kick, "e")
        _require(abs(got - es.areas[(i, j)]) <= EXTRACT_ATOL * scale,
                 f"{call.out}: ES area {i + 1}-{j + 1} does not round-trip")


def check_call(call, workdir: Path, rng: random.Random) -> float:
    """Check one call's outputs; return the worst dPL error against the oracle.

    Raises CheckFailed on any violation.
    """
    out = workdir / call.out
    manifest = json.loads((out / "manifest.json").read_text())
    _require(manifest.get("outputs") == sorted(call.outputs),
             f"{call.out}: wrote {manifest.get('outputs')}, expected {sorted(call.outputs)}")
    sub = call.subcommand
    odmr_err = 0.0
    if sub in ("spectrum", "map"):
        _, table = _read_csv(out / f"{sub}.csv", sub, call.rows)
        odmr_err = _check_odmr(call, table, rng)
    elif sub == "multipoles":
        columns, table = _read_csv(out / "multipoles.csv", sub, call.rows)
        _check_multipoles(columns, table)
    elif sub == "levels":
        _read_csv(out / "levels.csv", sub, call.rows)
    elif sub == "husimi":
        _check_husimi(call, out)
    elif sub == "ratecheck":
        _read_json(out / "ratecheck.json", sub)
    elif sub == "extract":
        _check_extract(call, workdir, _read_json(out / "extract.json", sub))
    return odmr_err
