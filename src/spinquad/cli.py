"""Command-line front end: run named computations and write CSV/JSON artifacts.

Every subcommand in ``COMMANDS`` (except ``validate``) resolves a RunConfig
(file + repeatable --set overrides) and computes its CSV tables and one JSON
document without touching the file system; ``_write_outputs`` alone applies
``--format``, creates the output directory and writes a manifest.json
recording the fully resolved parameters.  Identical resolved configs produce
byte-identical data files (CSV floats with 17 significant digits, JSON as
``json.dumps(indent=2, sort_keys=True)``, fixed row order); only the manifest
carries the wall time.  Each data file takes one formatting pass: a CSV
table's rows come from one printf template run over the whole table, and a
float array in a JSON document has each distinct value formatted once.

Exit codes: 0 success, 2 configuration error (an unwritable output
directory included), 3 numerical failure (running out of memory included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .config import MAP_MAX_POINTS, ConfigError, RunConfig, load_config, validate_config
from .hamiltonian import crossover_fields
from .kinetics import DegenerateKernel, level_report, steady_state_at, steady_states
from .multipoles import (
    SingularExtraction,
    dipole_x,
    extract_from_peak_areas,
    husimi,
    peak_areas_from_json,
    quadrupole,
)
from .odmr import OdmrResult, SingularResponse, odmr_map, odmr_spectrum
from .rate_model import (
    IllConditioned,
    gs_signal_sign_small_field,
    large_field_signals,
    small_field_crossover,
    small_field_x,
)
from .spin_algebra import NotHermitian

SCHEMA_TAG = "spinquad-v1"

NUMERICAL_ERRORS = (
    DegenerateKernel,
    IllConditioned,
    SingularResponse,
    SingularExtraction,
    NotHermitian,
    np.linalg.LinAlgError,
    MemoryError,
)


# printf conversion per column dtype kind: floats with 17 significant digits,
# integers and bools as integers, strings as they are
_CSV_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}


def _printf_each(conv: str, values: list) -> list[str]:
    """``[conv % v for v in values]`` in one C pass, for a conversion that writes no newline."""
    return (f"{conv}\n" * len(values) % tuple(values)).split("\n")[:-1]


def write_csv(path: Path, subcommand: str, names: list[str], columns, meta: dict) -> None:
    """Write equal-length 1-D ``columns`` under the header ``names``.

    The rows come from one printf template run once over the whole table.  A
    column with at most half as many distinct values as rows has each
    distinct value (floats by bit pattern, so -0.0 keeps its sign) formatted
    once and enters the template as strings; any other column enters as its
    values under its own conversion, as formatting it twice would cost more.
    """
    header = [f"# {SCHEMA_TAG} {subcommand}", *(f"# {k}={meta[k]}" for k in sorted(meta)),
              ",".join(names), ""]
    convs, cells = [], []
    for c in map(np.asarray, columns):
        conv = _CSV_FORMATS[c.dtype.kind]
        key = c.view(f"i{c.itemsize}") if c.dtype.kind == "f" else c
        distinct, inverse = np.unique(key, return_inverse=True)
        if 2 * distinct.size <= c.size:
            values = distinct.view(c.dtype).tolist()
            text = values if conv == "%s" else _printf_each(conv, values)
            c, conv = np.array(text, dtype=object)[inverse], "%s"
        convs.append(conv)
        cells.append(c)
    table = np.empty((len(cells[0]) if cells else 0, len(cells)), dtype=object)
    for j, c in enumerate(cells):
        table[:, j] = c
    with path.open("w") as f:
        f.write("\n".join(header))
        f.write((",".join(convs) + "\n") * len(table) % tuple(table.ravel().tolist()))


def _array_text(rows: list, indent: str) -> str:
    """The ``json_text`` layout of nested lists whose leaves are JSON number texts."""
    inner = indent + "  "
    items = rows if isinstance(rows[0], str) else [_array_text(r, inner) for r in rows]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def json_text(obj, indent: str = "") -> str:
    """``json.dumps(_jsonable(obj), indent=2, sort_keys=True)``, placed at ``indent``.

    Dict keys are strings.  A float array has each distinct bit pattern
    formatted once; lists of numbers, bools and None go through the C
    encoder, indented in one replace.
    """
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim and obj.size:
        flat = obj.ravel()  # the shape of np.unique's inverse differs across numpy versions
        distinct, inverse = np.unique(flat.view(f"i{flat.itemsize}"), return_inverse=True)
        text = json.dumps(distinct.view(flat.dtype).tolist())[1:-1].split(", ")
        return _array_text(np.array(text, dtype=object)[inverse].reshape(obj.shape).tolist(),
                           indent)
    if not isinstance(obj, (dict, list, tuple)):
        obj = _jsonable(obj)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = (f"{json.dumps(k)}: {json_text(v, inner)}" for k, v in sorted(obj.items()))
    elif all(map(isinstance, obj, repeat((int, float, type(None))))):
        items = [json.dumps(obj)[1:-1].replace(", ", ",\n" + inner)]
    else:
        items = (json_text(v, inner) for v in obj)
    ends = "{}" if isinstance(obj, dict) else "[]"
    return ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + ends[1]


def write_json(path: Path, subcommand: str, meta: dict, data) -> None:
    doc = {"meta": {"schema": f"{SCHEMA_TAG} {subcommand}", **meta}, "data": data}
    path.write_text(json_text(doc) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":
            return obj.tolist()
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, complex):
        return str(obj) if obj.imag != 0 else obj.real
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_outputs(subcommand: str, cfg: RunConfig, tables, data, t0: float) -> None:
    """Apply ``--format`` to a subcommand's tables and JSON document.

    Each table ``(suffix, names, columns, extra_meta)`` is the CSV file
    ``<subcommand><suffix>.csv``, written under ``csv``/``both``; the JSON
    document ``<subcommand>.json`` is written under ``json``/``both``, and
    always when there is no table.  The output directory is made here, after
    the computation, and the manifest last.
    """
    out_dir = Path(cfg.out_dir)
    meta = {"version": __version__, "subcommand": subcommand}
    config = _jsonable(cfg.to_dict())
    outputs = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if cfg.out_format in ("csv", "both"):
            for suffix, names, columns, extra_meta in tables:
                name = f"{subcommand}{suffix}.csv"
                write_csv(out_dir / name, subcommand, names, columns, {**meta, **extra_meta})
                outputs.append(name)
        if cfg.out_format in ("json", "both") or not tables:
            write_json(out_dir / f"{subcommand}.json", subcommand, {**meta, "config": config},
                       data)
            outputs.append(f"{subcommand}.json")
        manifest = {**meta, "wall_time_s": time.monotonic() - t0, "config": config,
                    "outputs": sorted(outputs)}
        (out_dir / "manifest.json").write_text(json_text(manifest) + "\n")
    except OSError as err:
        raise ConfigError(f"cannot write outputs to {out_dir}: {err}") from err


def _cmd_levels(cfg: RunConfig, args):
    fields = cfg.field_grid.values()
    rep = level_report(cfg.center, cfg.rates, fields, steady_states(cfg.center, cfg.rates, fields))
    names = ["field_mT", "level"]
    columns = [np.repeat(fields, 2), np.tile(["g", "e"], len(fields))]
    rows = {}
    for key, prefix, unit in (
        ("energies", "e", "_MHz"), ("populations", "pop", ""), ("brightness", "bright", "")
    ):
        # one row per field and level, g before e
        block = np.stack([rep[f"{key}_g"], rep[f"{key}_e"]], axis=1).reshape(-1, 4)
        names += [f"{prefix}{i}{unit}" for i in range(1, 5)]
        columns += list(block.T)
        rows[key + unit] = block.tolist()
    data = [
        {"field_mT": bx, "level": level, **{key: v[r] for key, v in rows.items()}}
        for r, (bx, level) in enumerate(zip(columns[0].tolist(), columns[1].tolist()))
    ]
    return [("", names, columns, {})], data


def _spectrum_table(result: OdmrResult) -> tuple:
    n_f = result.freqs.size
    columns = [
        np.tile(result.freqs, result.fields.size),
        np.repeat(result.fields, n_f),
        result.dpl.ravel(),
        np.repeat(result.baseline, n_f),
    ]
    return "", ["freq_MHz", "field_mT", "dpl", "baseline"], columns, {}


def _cmd_spectrum(cfg: RunConfig, args):
    bx = float(cfg.field_grid.values()[0])
    res = odmr_spectrum(cfg.center, cfg.rates, bx, cfg.drive, cfg.freq_grid.values())
    data = {
        "field_mT": bx,
        "freqs_MHz": res.freqs,
        "dpl": res.dpl[0],
        "baseline": res.baseline[0],
    }
    return [_spectrum_table(res)], data


def _cmd_map(cfg: RunConfig, args):
    points = cfg.field_grid.steps * cfg.freq_grid.steps
    if points > MAP_MAX_POINTS:
        raise ConfigError(f"sweep.field.steps * sweep.freq.steps = {points} "
                          f"exceeds {MAP_MAX_POINTS} grid points")
    res = odmr_map(
        cfg.center, cfg.rates, cfg.drive, cfg.freq_grid.values(), cfg.field_grid.values(),
        jobs=args.jobs,
    )
    data = {"fields_mT": res.fields, "freqs_MHz": res.freqs, "dpl": res.dpl,
            "baseline": res.baseline}
    return [_spectrum_table(res)], data


def _cmd_husimi(cfg: RunConfig, args):
    bx = float(cfg.field_grid.values()[0])
    state = steady_state_at(cfg.center, cfg.rates, bx)
    tables, data = [], {"field_mT": bx}
    for level, rho in (("g", state.rho_g), ("e", state.rho_e)):
        grid = husimi(rho, cfg.husimi_n_theta, cfg.husimi_n_phi)
        data[level] = {
            "thetas": grid.thetas,
            "phis": grid.phis,
            "values": grid.values,
            "normalization": grid.normalization(),
        }
        columns = [
            np.repeat(grid.thetas, grid.phis.size),
            np.tile(grid.phis, grid.thetas.size),
            grid.values.ravel(),
        ]
        tables.append((f"_{level}", ["theta", "phi", "value"], columns,
                       {"field_mT": bx, "level": level}))
    return tables, data


def _cmd_multipoles(cfg: RunConfig, args):
    fields = cfg.field_grid.values()
    s = steady_states(cfg.center, cfg.rates, fields)
    names = ["field_mT", "quad_g", "quad_e", "dip_g", "dip_e", "n_g", "n_e", "n_m", "pl"]
    columns = [fields, quadrupole(s.rho_g), quadrupole(s.rho_e), dipole_x(s.rho_g),
               dipole_x(s.rho_e), s.n_g, s.n_e, s.n_m, cfg.rates.recomb * s.n_e]
    data = [dict(zip(names, row)) for row in zip(*(c.tolist() for c in columns))]
    return [("", names, columns, {})], data


def _cmd_ratecheck(cfg: RunConfig, args):
    r = cfg.rates
    ratio = r.eta_e / r.eta_g if r.eta_g != 0 else None
    crossover_bg = (
        small_field_crossover(ratio) if ratio is not None and 0.25 < ratio <= 1.0 else None
    )
    b_g_star, b_e_star = crossover_fields(cfg.center)
    report = {
        "eta_ratio": ratio,
        "x_at_zero": small_field_x(0.0),
        "x_at_crossover_field": small_field_x(cfg.center.gyro * 1.0 / cfg.center.d_g),
        "crossover_bg": crossover_bg,
        "crossover_field_mT": (
            crossover_bg * cfg.center.d_g / cfg.center.gyro if crossover_bg is not None else None
        ),
        "zeeman_threshold_gs_mT": b_g_star,
        "zeeman_threshold_es_mT": b_e_star,
        "gs_small_field_signal": gs_signal_sign_small_field(r),
        "large_field_signals_at_be_1": large_field_signals(r, 1.0),
        "hierarchy_satisfied": r.in_hierarchy,
    }
    return [], report


def _cmd_extract(cfg: RunConfig, args):
    path = args.areas or cfg.extract_input
    if path is None:
        raise ConfigError("extract needs a peak-area JSON (positional arg or extract.input)")
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
        gs, es, field = peak_areas_from_json(doc)
    except (OSError, ValueError) as err:
        raise ConfigError(f"{p}: {err}") from err
    res = extract_from_peak_areas(
        gs, es, cfg.center, cfg.rates, field, calibrated=cfg.extract_calibrated
    )
    return [], {"field_mT": field, **asdict(res)}


def _cmd_validate(cfg: RunConfig, args) -> int:
    # load_config has already raised on every hard error; the warnings remain
    _, warns = validate_config(cfg)
    print("resolved configuration:")
    print(json_text(_jsonable(cfg.to_dict())))
    for w in warns:
        print(f"warning: {w}")
    print(f"OK ({len(warns)} warning(s))")
    return 0


COMMANDS = {
    "levels": _cmd_levels,
    "spectrum": _cmd_spectrum,
    "map": _cmd_map,
    "husimi": _cmd_husimi,
    "multipoles": _cmd_multipoles,
    "ratecheck": _cmd_ratecheck,
    "extract": _cmd_extract,
    "validate": _cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinquad",
        description="Spin-3/2 color-center kinetics: spectra, maps, multipoles.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override a config key (repeatable, dotted path)",
    )
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--format", default=None, choices=["csv", "json", "both"])
    common.add_argument("--jobs", type=int, default=1, help="sweep workers (at least 1)")

    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        if cmd is _cmd_extract:
            p.add_argument("areas", nargs="?", default=None, help="peak-area JSON document")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.subcommand]
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = load_config(args.config, args.overrides)
        cfg = replace(cfg, out_dir=args.out or os.environ.get("SPINQUAD_OUT") or cfg.out_dir,
                      out_format=args.format or cfg.out_format)
        if cmd is _cmd_validate:
            return _cmd_validate(cfg, args)
        t0 = time.monotonic()
        tables, data = cmd(cfg, args)
        _write_outputs(args.subcommand, cfg, tables, data, t0)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as err:
        print(
            f"numerical failure in {type(err).__module__}.{type(err).__name__}: {err} "
            f"(subcommand {args.subcommand})",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
