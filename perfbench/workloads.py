"""The three benchmark workloads: the spinquad CLI calls of one pass.

Each workload is a fixed list of ``spinquad.cli.main(argv)`` calls.  Grid
sizes and drive never depend on the seed, so the work per pass is constant;
the seed moves only the static-field values of ``spectrum`` (one per band)
and of ``extract`` (within [2, 15] mT, where the extractor does not warn).
The program receives only the generated config and peak-area files; all
paths are relative to the pass's work directory, so the JSON outputs (which
embed the resolved config, output directory included) are byte-stable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1

SPECTRUM_BANDS_MT = ((0.0, 0.5), (0.5, 2.0), (5.0, 9.0), (12.0, 15.0))
EXTRACT_BANDS_MT = ((2.0, 6.0), (6.0, 10.0), (10.0, 15.0))
HUSIMI_FIELDS_MT = (0.0, 7.0, 15.0)

SPECTRUM_FREQS = (20.0, 500.0, 961)
SPECTRUM_B1 = 0.002
MAP_JOBS = 2
MAP_SHAPE = (61, 491)  # the shipped default field x freq grid
SWEEP_FIELDS = (0.0, 15.0, 241)
HUSIMI_SHAPE = (91, 181)  # the shipped default sphere grid

WORKLOADS = ("spectra", "map", "field-sweep")


@dataclass(frozen=True)
class Call:
    """One CLI call and what its outputs must look like."""

    argv: tuple
    out: str                  # output directory, relative to the work directory
    outputs: tuple            # data files the call must write into ``out``
    rows: int = 0             # expected CSV data rows (0: no CSV)
    field_mT: float | None = None
    areas: str | None = None  # peak-area input file (extract only)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Pass:
    """The calls of one pass plus the input files they read."""

    calls: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)  # relative path -> text

    def add_config(self, name: str, tree: dict) -> str:
        path = f"cfg/{name}.json"
        self.inputs[path] = json.dumps(tree, indent=2, sort_keys=True) + "\n"
        return path


def _draw(rng: random.Random, bands) -> list:
    return [round(rng.uniform(lo, hi), 4) for lo, hi in bands]


def build_pass(workload: str, seed: int, model_areas) -> Pass:
    """Generate the calls and inputs of ``workload`` for ``seed``.

    ``model_areas(bx)`` returns the noise-free peak-area document at ``bx``
    in the ``extract`` wire format; it is evaluated here, outside any timed
    region.
    """
    rng = random.Random(seed)
    p = Pass()
    if workload == "spectra":
        f_min, f_max, f_steps = SPECTRUM_FREQS
        for bx in _draw(rng, SPECTRUM_BANDS_MT):
            cfg = p.add_config(f"spectrum_B{bx}", {
                "sweep": {"field": {"min": bx, "max": bx, "steps": 1},
                          "freq": {"min": f_min, "max": f_max, "steps": f_steps}},
                "drive": {"b1": SPECTRUM_B1},
            })
            out = f"spectrum_B{bx}"
            p.calls.append(Call(("spectrum", "--config", cfg, "--out", out), out,
                                ("spectrum.csv",), rows=f_steps, field_mT=bx))
    elif workload == "map":
        p.calls.append(Call(("map", "--jobs", str(MAP_JOBS), "--out", "map"), "map",
                            ("map.csv",), rows=MAP_SHAPE[0] * MAP_SHAPE[1]))
    elif workload == "field-sweep":
        b_min, b_max, b_steps = SWEEP_FIELDS
        sweep = p.add_config("sweep", {
            "sweep": {"field": {"min": b_min, "max": b_max, "steps": b_steps}}})
        p.calls.append(Call(("multipoles", "--config", sweep, "--out", "multipoles"),
                            "multipoles", ("multipoles.csv",), rows=b_steps))
        p.calls.append(Call(("levels", "--config", sweep, "--out", "levels"),
                            "levels", ("levels.csv",), rows=2 * b_steps))
        for bx in HUSIMI_FIELDS_MT:
            cfg = p.add_config(f"husimi_B{bx}", {
                "sweep": {"field": {"min": bx, "max": bx, "steps": 1}}})
            out = f"husimi_B{bx}"
            p.calls.append(Call(("husimi", "--format", "both", "--config", cfg, "--out", out),
                                out, ("husimi_e.csv", "husimi_g.csv", "husimi.json"),
                                rows=HUSIMI_SHAPE[0] * HUSIMI_SHAPE[1], field_mT=bx))
        p.calls.append(Call(("ratecheck", "--out", "ratecheck"), "ratecheck",
                            ("ratecheck.json",)))
        calibrated = p.add_config("extract", {"extract": {"calibrated": True}})
        for bx in _draw(rng, EXTRACT_BANDS_MT):
            areas = f"areas/areas_B{bx}.json"
            p.inputs[areas] = json.dumps(model_areas(bx), indent=2, sort_keys=True) + "\n"
            out = f"extract_B{bx}"
            p.calls.append(Call(("extract", areas, "--config", calibrated, "--out", out),
                                out, ("extract.json",), field_mT=bx, areas=areas))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return p
