"""Command-line front end: run named computations and write CSV/JSON artifacts.

Every subcommand resolves a RunConfig (file + repeatable --set overrides),
computes with the library, and writes deterministic data files plus a
manifest.json recording the fully resolved parameters.  Identical resolved
configs produce byte-identical data files (floats printed with 17 significant
digits, fixed row order); only the manifest carries the wall time.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config, validate_config
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
)


# printf conversion per column dtype kind: floats with 17 significant digits,
# integers and bools as integers, strings as they are
_CSV_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}


def write_csv(path: Path, subcommand: str, names: list[str], columns, meta: dict) -> None:
    """Write equal-length 1-D ``columns`` under the header ``names``.

    One row template, built from the column dtypes, formats every row.
    """
    columns = [np.asarray(c) for c in columns]
    template = ",".join(_CSV_FORMATS[c.dtype.kind] for c in columns)
    lines = [f"# {SCHEMA_TAG} {subcommand}"]
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    lines.append(",".join(names))
    lines.extend(template % row for row in zip(*(c.tolist() for c in columns)))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, subcommand: str, meta: dict, data) -> None:
    doc = {"meta": {"schema": f"{SCHEMA_TAG} {subcommand}", **meta}, "data": data}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


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


class Runner:
    """Collects output files for one subcommand run and writes the manifest."""

    def __init__(self, subcommand: str, cfg: RunConfig, out_dir: Path):
        self.subcommand = subcommand
        self.cfg = cfg
        self.out_dir = out_dir
        self.outputs: list[str] = []
        self.t0 = time.monotonic()
        out_dir.mkdir(parents=True, exist_ok=True)

    def meta(self) -> dict:
        return {"version": __version__, "subcommand": self.subcommand}

    def emit(self, stem: str, names, columns, data_json) -> None:
        fmt = self.cfg.out_format
        if fmt in ("csv", "both") and names is not None:
            p = self.out_dir / f"{stem}.csv"
            write_csv(p, self.subcommand, names, columns, self.meta())
            self.outputs.append(p.name)
        if fmt in ("json", "both") or names is None:
            p = self.out_dir / f"{stem}.json"
            meta = {**self.meta(), "config": _jsonable(self.cfg.to_dict())}
            write_json(p, self.subcommand, meta, _jsonable(data_json))
            self.outputs.append(p.name)

    def finish(self) -> None:
        manifest = {
            "subcommand": self.subcommand,
            "version": __version__,
            "wall_time_s": time.monotonic() - self.t0,
            "config": _jsonable(self.cfg.to_dict()),
            "outputs": sorted(self.outputs),
        }
        (self.out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )


def _cmd_levels(cfg: RunConfig, runner: Runner) -> None:
    fields = cfg.field_grid.values()
    states = steady_states(cfg.center, cfg.rates, fields)
    data = []
    for k, bx in enumerate(fields):
        rep = level_report(cfg.center, cfg.rates, float(bx), states[k])
        for level in ("g", "e"):
            data.append(
                {"field_mT": float(bx), "level": level,
                 "energies_MHz": rep[f"energies_{level}"],
                 "populations": rep[f"populations_{level}"],
                 "brightness": rep[f"brightness_{level}"]}
            )
    names = ["field_mT", "level"]
    columns = [np.repeat(fields, 2), np.tile(["g", "e"], len(fields))]
    for key, prefix, unit in (
        ("energies_MHz", "e", "_MHz"), ("populations", "pop", ""), ("brightness", "bright", "")
    ):
        names += [f"{prefix}{i}{unit}" for i in range(1, 5)]
        columns += list(np.array([d[key] for d in data]).T)
    runner.emit("levels", names, columns, data)


def _spectrum_columns(result: OdmrResult) -> list:
    n_f = result.freqs.size
    return [
        np.tile(result.freqs, result.fields.size),
        np.repeat(result.fields, n_f),
        result.dpl.ravel(),
        np.repeat(result.baseline, n_f),
    ]


def _cmd_spectrum(cfg: RunConfig, runner: Runner) -> None:
    bx = float(cfg.field_grid.values()[0])
    res = odmr_spectrum(cfg.center, cfg.rates, bx, cfg.drive, cfg.freq_grid.values())
    data = {
        "field_mT": bx,
        "freqs_MHz": res.freqs,
        "dpl": res.dpl[0],
        "baseline": res.baseline[0],
    }
    runner.emit("spectrum", ["freq_MHz", "field_mT", "dpl", "baseline"],
                _spectrum_columns(res), data)


def _cmd_map(cfg: RunConfig, runner: Runner, jobs: int = 1) -> None:
    res = odmr_map(
        cfg.center, cfg.rates, cfg.drive, cfg.freq_grid.values(), cfg.field_grid.values(),
        jobs=jobs,
    )
    data = {"fields_mT": res.fields, "freqs_MHz": res.freqs, "dpl": res.dpl,
            "baseline": res.baseline}
    runner.emit("map", ["freq_MHz", "field_mT", "dpl", "baseline"], _spectrum_columns(res), data)


def _cmd_husimi(cfg: RunConfig, runner: Runner) -> None:
    bx = float(cfg.field_grid.values()[0])
    state = steady_state_at(cfg.center, cfg.rates, bx)
    data = {"field_mT": bx}
    for level, rho in (("g", state.rho_g), ("e", state.rho_e)):
        grid = husimi(rho, cfg.husimi_n_theta, cfg.husimi_n_phi)
        data[level] = {
            "thetas": grid.thetas,
            "phis": grid.phis,
            "values": grid.values,
            "normalization": grid.normalization(),
        }
        if cfg.out_format in ("csv", "both"):
            path = runner.out_dir / f"husimi_{level}.csv"
            columns = [
                np.repeat(grid.thetas, grid.phis.size),
                np.tile(grid.phis, grid.thetas.size),
                grid.values.ravel(),
            ]
            write_csv(path, "husimi", ["theta", "phi", "value"],
                      columns, {**runner.meta(), "field_mT": bx, "level": level})
            runner.outputs.append(path.name)
    if cfg.out_format in ("json", "both"):
        runner.emit("husimi", None, None, data)


def _cmd_multipoles(cfg: RunConfig, runner: Runner) -> None:
    fields = cfg.field_grid.values()
    states = steady_states(cfg.center, cfg.rates, fields)
    data = []
    for k, bx in enumerate(fields):
        state = states[k]
        record = {
            "field_mT": float(bx),
            "quad_g": quadrupole(state.rho_g),
            "quad_e": quadrupole(state.rho_e),
            "dip_g": dipole_x(state.rho_g),
            "dip_e": dipole_x(state.rho_e),
            "n_g": state.n_g,
            "n_e": state.n_e,
            "n_m": state.n_m,
            "pl": cfg.rates.recomb * state.n_e,
        }
        data.append(record)
    names = ["field_mT", "quad_g", "quad_e", "dip_g", "dip_e", "n_g", "n_e", "n_m", "pl"]
    runner.emit("multipoles", names, [[d[name] for d in data] for name in names], data)


def _cmd_ratecheck(cfg: RunConfig, runner: Runner) -> None:
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
            crossover_bg * cfg.center.d_g / cfg.center.gyro if crossover_bg else None
        ),
        "zeeman_threshold_gs_mT": b_g_star,
        "zeeman_threshold_es_mT": b_e_star,
        "gs_small_field_signal": gs_signal_sign_small_field(r),
        "large_field_signals_at_be_1": large_field_signals(r, 1.0),
        "hierarchy_satisfied": r.in_hierarchy,
    }
    runner.emit("ratecheck", None, None, report)


def _cmd_extract(cfg: RunConfig, runner: Runner, areas_path: str | None) -> None:
    path = areas_path or cfg.extract_input
    if path is None:
        raise ConfigError("extract needs a peak-area JSON (positional arg or extract.input)")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"peak-area file not found: {p}")
    try:
        doc = json.loads(p.read_text())
        gs, es, field = peak_areas_from_json(doc)
    except (json.JSONDecodeError, ValueError) as err:
        raise ConfigError(f"{p}: {err}") from err
    res = extract_from_peak_areas(
        gs, es, cfg.center, cfg.rates, field, calibrated=cfg.extract_calibrated
    )
    report = {
        "field_mT": field,
        "calibrated": res.calibrated,
        "df_g": res.df_g,
        "df_e": res.df_e,
        "quad_g": res.quad_g,
        "quad_e": res.quad_e,
        "dip_g": res.dip_g,
        "dip_e": res.dip_e,
        "residual_g": res.residual_g,
        "residual_e": res.residual_e,
    }
    runner.emit("extract", None, None, report)


def _cmd_validate(cfg: RunConfig) -> int:
    errors, warns = validate_config(cfg)
    print("resolved configuration:")
    print(json.dumps(_jsonable(cfg.to_dict()), indent=2, sort_keys=True))
    for w in warns:
        print(f"warning: {w}")
    for e in errors:
        print(f"error: {e}")
    if errors:
        return 2
    print(f"OK ({len(warns)} warning(s))")
    return 0


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
    for name in ("levels", "spectrum", "map", "husimi", "multipoles", "ratecheck", "validate"):
        sub.add_parser(name, parents=[common])
    p_ext = sub.add_parser("extract", parents=[common])
    p_ext.add_argument("areas", nargs="?", default=None, help="peak-area JSON document")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = load_config(args.config, args.overrides)
        if args.out:
            cfg = _with_output(cfg, out_dir=args.out)
        elif os.environ.get("SPINQUAD_OUT"):
            cfg = _with_output(cfg, out_dir=os.environ["SPINQUAD_OUT"])
        if args.format:
            cfg = _with_output(cfg, out_format=args.format)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    if args.subcommand == "validate":
        return _cmd_validate(cfg)

    runner = Runner(args.subcommand, cfg, Path(cfg.out_dir))
    try:
        if args.subcommand == "levels":
            _cmd_levels(cfg, runner)
        elif args.subcommand == "spectrum":
            _cmd_spectrum(cfg, runner)
        elif args.subcommand == "map":
            _cmd_map(cfg, runner, jobs=args.jobs)
        elif args.subcommand == "husimi":
            _cmd_husimi(cfg, runner)
        elif args.subcommand == "multipoles":
            _cmd_multipoles(cfg, runner)
        elif args.subcommand == "ratecheck":
            _cmd_ratecheck(cfg, runner)
        elif args.subcommand == "extract":
            _cmd_extract(cfg, runner, args.areas)
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
    runner.finish()
    return 0


def _with_output(cfg: RunConfig, out_dir: str | None = None, out_format: str | None = None):
    from dataclasses import replace

    kwargs = {}
    if out_dir is not None:
        kwargs["out_dir"] = out_dir
    if out_format is not None:
        kwargs["out_format"] = out_format
    return replace(cfg, **kwargs)


if __name__ == "__main__":
    sys.exit(main())
