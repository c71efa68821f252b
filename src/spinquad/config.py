"""Run configuration: strict JSON loading, overrides, and validation.

``RunConfig`` is the one definition of the configuration tree: ``to_dict``
builds each section from the parameter dataclasses, and its defaults,
without the derived ``center.gyro`` and ``center.gyro_e``, are the settable
schema.  A config file and ``--set`` overrides are laid over that defaults
tree; a key it lacks, or a non-object where it holds an object, is rejected
so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .hamiltonian import CenterParams
from .kinetics import RateParams
from .odmr import DriveParams


# Largest Husimi grid, n_theta * n_phi points (the default has 16471).
# ``husimi`` holds a few (n_theta, 4, n_phi) complex arrays, 64 B a point
# each; at the cap a `husimi` run peaks near 320 MB, its CSV writes included.
HUSIMI_MAX_POINTS = 1_000_000

# Largest sweep grids, sized like the Husimi cap.  ``validate_config`` caps
# each axis; `map` caps the product where it builds its field x freq table.
# At the caps `levels` peaks near 300 MB and `map` near 320-350 MB.
FIELD_MAX_STEPS = 60_000
FREQ_MAX_STEPS = 100_000
MAP_MAX_POINTS = 900_000


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
        drive = asdict(self.drive)
        if isinstance(drive["b1"], complex) and drive["b1"].imag == 0:
            drive["b1"] = drive["b1"].real
        return {
            "center": {**asdict(self.center), "gyro": self.center.gyro,
                       "gyro_e": self.center.gyro_of("e")},
            "rates": asdict(self.rates),
            "drive": drive,
            "sweep": {"field": asdict(self.field_grid), "freq": asdict(self.freq_grid)},
            "husimi": {"n_theta": self.husimi_n_theta, "n_phi": self.husimi_n_phi},
            "extract": {"input": self.extract_input, "calibrated": self.extract_calibrated},
            "output": {"dir": self.out_dir, "format": self.out_format},
        }


def default_tree() -> dict:
    """The settable schema: the default ``to_dict()`` without the derived gyros."""
    tree = RunConfig().to_dict()
    del tree["center"]["gyro"], tree["center"]["gyro_e"]
    return tree


def _overlay(defaults: dict, given: dict, section: str = "") -> dict:
    """``given`` laid over ``defaults``, which fix the keys and the objects."""
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section '{section or '<top>'}'")
    merged = {**defaults, **given}
    for key, default in defaults.items():
        if key in given and isinstance(default, dict):
            name = f"{section}.{key}" if section else key
            if not isinstance(given[key], dict):
                raise ConfigError(f"{name} must be an object" if section
                                  else f"section '{key}' must be an object")
            merged[key] = _overlay(default, given[key], name)
    return merged


def _grid(block: dict) -> SweepGrid:
    return SweepGrid(float(block["min"]), float(block["max"]), int(block["steps"]))


def _build(tree: dict) -> RunConfig:
    defaults = default_tree()
    t = _overlay(defaults, tree)
    b1, hus, ext, out = t["drive"]["b1"], t["husimi"], t["extract"], t["output"]
    g_e = t["center"]["g_factor_e"]
    for key, default in _leaves(defaults):
        # JSON true/false would pass as the numbers 1/0, int() would truncate
        # a count of 2.5, and bool() would read "false" or 0.5 as true; a
        # complex drive.b1 is a string, checked below
        value = t
        for part in key.split("."):
            value = value[part]
        if type(default) in (int, float) and (
            isinstance(value, bool)
            or not (isinstance(value, (int, float)) or key == "drive.b1")
        ):
            raise ConfigError(f"{key} must be a number, got {json.dumps(value)}")
        if type(default) is int and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key} must be an integer, got {json.dumps(value)}")
        if type(default) is bool and not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {json.dumps(value)}")
    for key, ok, kind, value in (
        ("center.g_factor_e", g_e is None or type(g_e) in (int, float), "a number or null", g_e),
        ("drive.b1", isinstance(b1, (int, float, str)), "a number or a complex string", b1),
        ("output.dir", isinstance(out["dir"], str), "a directory name", out["dir"]),
    ):
        if not ok:
            raise ConfigError(f"{key} must be {kind}, got {json.dumps(value)}")
    try:
        return RunConfig(
            center=CenterParams(**t["center"]),
            rates=RateParams(**t["rates"]),
            drive=DriveParams(**{**t["drive"], "b1": complex(b1) if isinstance(b1, str) else b1}),
            field_grid=_grid(t["sweep"]["field"]),
            freq_grid=_grid(t["sweep"]["freq"]),
            husimi_n_theta=int(hus["n_theta"]),
            husimi_n_phi=int(hus["n_phi"]),
            extract_input=None if ext["input"] is None else str(ext["input"]),
            extract_calibrated=bool(ext["calibrated"]),
            out_dir=out["dir"],
            out_format=str(out["format"]),
        )
    except (TypeError, ValueError, OverflowError) as err:
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
    elif cfg.husimi_n_theta * cfg.husimi_n_phi > HUSIMI_MAX_POINTS:
        errors.append(
            f"husimi.n_theta * husimi.n_phi = {cfg.husimi_n_theta * cfg.husimi_n_phi} "
            f"exceeds {HUSIMI_MAX_POINTS} grid points"
        )
    for key, grid, cap in (("sweep.field.steps", cfg.field_grid, FIELD_MAX_STEPS),
                           ("sweep.freq.steps", cfg.freq_grid, FREQ_MAX_STEPS)):
        if grid.steps > cap:
            errors.append(f"{key} = {grid.steps} exceeds {cap} grid points")
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
