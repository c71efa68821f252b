"""Run configuration: strict JSON loading, overrides, and validation.

The configuration is a JSON tree with the fixed sections below; unknown keys
are rejected so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .hamiltonian import CenterParams
from .kinetics import InvalidRates, RateParams
from .odmr import DriveParams


class ConfigError(ValueError):
    """Configuration file or override is invalid."""


@dataclass(frozen=True)
class SweepGrid:
    min: float
    max: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"grid needs steps >= 1, got {self.steps}")
        if self.min > self.max:
            raise ConfigError(f"grid needs min <= max, got [{self.min}, {self.max}]")

    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.min])
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True)
class RunConfig:
    center: CenterParams = field(default_factory=CenterParams)
    rates: RateParams = field(default_factory=RateParams)
    drive: DriveParams = field(default_factory=DriveParams)
    field_grid: SweepGrid = field(default_factory=lambda: SweepGrid(0.0, 15.0, 61))
    freq_grid: SweepGrid = field(default_factory=lambda: SweepGrid(10.0, 500.0, 491))
    husimi_n_theta: int = 91
    husimi_n_phi: int = 181
    extract_input: str | None = None
    extract_calibrated: bool = False
    out_dir: str = "out"
    out_format: str = "csv"

    def to_dict(self) -> dict:
        drive_b1 = self.drive.b1
        if isinstance(drive_b1, complex) and drive_b1.imag == 0:
            drive_b1 = drive_b1.real
        return {
            "center": {
                "d_g": self.center.d_g,
                "d_e": self.center.d_e,
                "g_factor": self.center.g_factor,
                "g_factor_e": self.center.g_factor_e,
                "gyro": self.center.gyro,
                "gyro_e": self.center.gyro_of("e"),
            },
            "rates": {
                "pump": self.rates.pump,
                "recomb": self.rates.recomb,
                "gamma_ms": self.rates.gamma_ms,
                "eta_g": self.rates.eta_g,
                "eta_e": self.rates.eta_e,
                "gamma_g": self.rates.gamma_g,
                "gamma_e": self.rates.gamma_e,
            },
            "drive": {"b1": drive_b1, "axis": self.drive.axis, "freq": self.drive.freq},
            "sweep": {
                "field": {"min": self.field_grid.min, "max": self.field_grid.max,
                          "steps": self.field_grid.steps},
                "freq": {"min": self.freq_grid.min, "max": self.freq_grid.max,
                         "steps": self.freq_grid.steps},
            },
            "husimi": {"n_theta": self.husimi_n_theta, "n_phi": self.husimi_n_phi},
            "extract": {"input": self.extract_input, "calibrated": self.extract_calibrated},
            "output": {"dir": self.out_dir, "format": self.out_format},
        }


_SCHEMA = {
    "center": {"d_g", "d_e", "g_factor", "g_factor_e"},
    "rates": {"pump", "recomb", "gamma_ms", "eta_g", "eta_e", "gamma_g", "gamma_e"},
    "drive": {"b1", "axis", "freq"},
    "sweep": {"field", "freq"},
    "husimi": {"n_theta", "n_phi"},
    "extract": {"input", "calibrated"},
    "output": {"dir", "format"},
}
_GRID_KEYS = {"min", "max", "steps"}


def _check_keys(section: str, block: dict, allowed: set) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section '{section}'")


def _build(tree: dict) -> RunConfig:
    _check_keys("<top>", tree, set(_SCHEMA))
    for section, allowed in _SCHEMA.items():
        block = tree.get(section, {})
        if not isinstance(block, dict):
            raise ConfigError(f"section '{section}' must be an object")
        _check_keys(section, block, allowed)
    sweep = tree.get("sweep", {})
    for gname, gblock in sweep.items():
        if not isinstance(gblock, dict):
            raise ConfigError(f"sweep.{gname} must be an object")
        _check_keys(f"sweep.{gname}", gblock, _GRID_KEYS)

    try:
        center = CenterParams(**tree.get("center", {}))
        rates = RateParams(**tree.get("rates", {}))
        drv = dict(tree.get("drive", {}))
        if "b1" in drv and isinstance(drv["b1"], str):
            drv["b1"] = complex(drv["b1"])
        drive = DriveParams(**drv)
        defaults = RunConfig()
        f_def, q_def = defaults.field_grid, defaults.freq_grid
        fg = sweep.get("field", {})
        qg = sweep.get("freq", {})
        field_grid = SweepGrid(
            float(fg.get("min", f_def.min)), float(fg.get("max", f_def.max)),
            int(fg.get("steps", f_def.steps)),
        )
        freq_grid = SweepGrid(
            float(qg.get("min", q_def.min)), float(qg.get("max", q_def.max)),
            int(qg.get("steps", q_def.steps)),
        )
        hus = tree.get("husimi", {})
        ext = tree.get("extract", {})
        out = tree.get("output", {})
        return RunConfig(
            center=center,
            rates=rates,
            drive=drive,
            field_grid=field_grid,
            freq_grid=freq_grid,
            husimi_n_theta=int(hus.get("n_theta", 91)),
            husimi_n_phi=int(hus.get("n_phi", 181)),
            extract_input=ext.get("input"),
            extract_calibrated=bool(ext.get("calibrated", False)),
            out_dir=str(out.get("dir", "out")),
            out_format=str(out.get("format", "csv")),
        )
    except (TypeError, ValueError, InvalidRates) as err:
        raise ConfigError(str(err)) from err


def _set_path(tree: dict, dotted: str, raw: str) -> None:
    keys = dotted.split(".")
    node = tree
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into '{k}' in override '{dotted}'")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings like axis=y or format=csv
    node[keys[-1]] = value


def load_config(path: str | Path | None, overrides: list[str] | None = None) -> RunConfig:
    """Load a config file (or pure defaults when path is None) plus overrides."""
    tree: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            tree = json.loads(p.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{p}: line {err.lineno} col {err.colno}: {err.msg}") from err
        if not isinstance(tree, dict):
            raise ConfigError(f"{p}: top level must be an object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        dotted, raw = item.split("=", 1)
        _set_path(tree, dotted.strip(), raw.strip())
    cfg = _build(tree)
    hard = validate_config(cfg)[0]
    if hard:
        raise ConfigError("; ".join(hard))
    return cfg


def _leaves(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def validate_config(cfg: RunConfig) -> tuple[list[str], list[str]]:
    """(hard errors, warnings) for a resolved configuration.

    Non-finite numbers and grid sanity are hard (rate bounds are enforced by
    RateParams itself); the rate hierarchy gamma_g, gamma_e, gamma_ms << pump,
    recomb (which the closed-form small-field expressions assume) is only
    advisory.
    """
    errors: list[str] = []
    warnings_: list[str] = []
    r = cfg.rates
    non_finite = [
        key for key, value in _leaves(cfg.to_dict())
        if isinstance(value, (int, float, complex)) and not np.isfinite(value)
    ]
    if non_finite:
        errors.append(f"non-finite value(s) for {', '.join(non_finite)}")
    if cfg.husimi_n_theta < 2 or cfg.husimi_n_phi < 2:
        errors.append("husimi grids need at least 2 points per axis")
    if cfg.out_format not in ("csv", "json", "both"):
        errors.append(f"unknown output format '{cfg.out_format}'")

    if not r.in_hierarchy:
        warnings_.append(
            "rate hierarchy gamma_g, gamma_e, gamma_ms << pump, recomb not satisfied; "
            "small-field closed forms are outside their stated hierarchy"
        )
    rabi = 2.0 * np.pi * cfg.center.gyro * abs(cfg.drive.b1)
    if rabi > 0.5 * (r.pump + r.recomb):
        warnings_.append(
            "MW amplitude b1 is large against the kinetic linewidth; the "
            "quadratic response may exceed its validity range"
        )
    return errors, warnings_
