import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_csv_text, loop_generator
from spinquad import cli, kinetics
from spinquad.cli import _jsonable, json_text, main, write_csv
from spinquad.config import (
    FIELD_MAX_STEPS,
    FREQ_MAX_STEPS,
    HUSIMI_MAX_POINTS,
    MAP_MAX_POINTS,
    ConfigError,
    default_tree,
    load_config,
    validate_config,
)
from spinquad.multipoles import model_peak_areas


def write_config(tmp_path, tree):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(tree))
    return str(p)


def test_load_defaults_and_overrides(tmp_path):
    cfg = load_config(None, ["rates.eta_e=0.4", "sweep.field.steps=5", "drive.axis=y"])
    assert cfg.rates.eta_e == 0.4
    assert cfg.field_grid.steps == 5
    assert cfg.center.d_g == 35.0


def test_strict_unknown_keys(tmp_path):
    path = write_config(tmp_path, {"center": {"d_g": 35.0, "dg_typo": 1.0}})
    with pytest.raises(ConfigError, match="dg_typo"):
        load_config(path)
    path2 = write_config(tmp_path, {"centre": {}})
    with pytest.raises(ConfigError, match="centre"):
        load_config(path2)


def test_config_error_cases(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(None, ["rates.eta_e=1.5"])  # branch rate negative
    with pytest.raises(ConfigError):
        load_config(None, ["sweep.field.min=5", "sweep.field.max=1"])
    with pytest.raises(ConfigError):
        load_config(None, ["noequalsign"])
    with pytest.raises(ConfigError, match="extract.calibrated must be true or false"):
        load_config(write_config(tmp_path, {"extract": {"calibrated": "false"}}))
    # an integral number is a count
    assert load_config(None, ["sweep.freq.steps=1e3"]).freq_grid.steps == 1000


@pytest.mark.parametrize("overrides", [
    [],
    ["center.d_g=35", "rates.pump=2", "sweep.field.steps=5", "husimi.n_theta=7"],
    ['drive.b1="0.01+0.002j"', "drive.axis=x", "drive.freq=70"],
    ["center.g_factor_e=2.1", "rates.eta_e=0.4"],
    ["sweep.field.min=2", "sweep.field.max=9", "sweep.field.steps=8"],
    ["sweep.freq.min=60", "sweep.freq.max=80.5", "sweep.freq.steps=1"],
    ["extract.input=areas.json", "extract.calibrated=true", "output.dir=o",
     "output.format=both", "husimi.n_phi=9"],
])
def test_config_round_trip(overrides, tmp_path):
    # the written resolved tree, less the derived gyros, loads back to cfg
    cfg = load_config(None, overrides)
    tree = cfg.to_dict()
    del tree["center"]["gyro"], tree["center"]["gyro_e"]
    path = tmp_path / "resolved.json"
    path.write_text(json.dumps(tree, default=str))  # complex b1 as "(re+imj)"
    assert load_config(path) == cfg


@pytest.mark.parametrize("override, message", [
    ("sweep.field.stepz=3", "unknown key(s) ['stepz'] in section 'sweep.field'"),
    ("sweep.field=3", "sweep.field must be an object"),
    ("husimi=3", "section 'husimi' must be an object"),
    ("center.gyro=1", "unknown key(s) ['gyro'] in section 'center'"),
    ("center.gyro_e=1", "unknown key(s) ['gyro_e'] in section 'center'"),
    ("center.g_factor_e=abc", 'center.g_factor_e must be a number or null, got "abc"'),
    ("drive.b1=[1]", "drive.b1 must be a number or a complex string, got [1]"),
    ("output.dir=null", "output.dir must be a directory name, got null"),
    ("output.dir=true", "output.dir must be a directory name, got true"),
    ("output.dir=[1]", "output.dir must be a directory name, got [1]"),
    ("center.d_g=true", "center.d_g must be a number, got true"),
    ("center.g_factor_e=true", "center.g_factor_e must be a number or null, got true"),
    ("rates.pump=false", "rates.pump must be a number, got false"),
    ("drive.b1=true", "drive.b1 must be a number, got true"),
    ("sweep.freq.steps=true", "sweep.freq.steps must be a number, got true"),
    ("husimi.n_theta=true", "husimi.n_theta must be a number, got true"),
    ("sweep.field.steps=2.5", "sweep.field.steps must be an integer, got 2.5"),
    ("sweep.freq.steps=NaN", "sweep.freq.steps must be an integer, got NaN"),
    ("husimi.n_theta=2.7", "husimi.n_theta must be an integer, got 2.7"),
    ("husimi.n_phi=1e-3", "husimi.n_phi must be an integer, got 0.001"),
    ('extract.calibrated="false"', 'extract.calibrated must be true or false, got "false"'),
    ("extract.calibrated=0.5", "extract.calibrated must be true or false, got 0.5"),
    ("extract.calibrated=1", "extract.calibrated must be true or false, got 1"),
    ("extract.calibrated=null", "extract.calibrated must be true or false, got null"),
    ('drive.freq={"a":1}', 'drive.freq must be a number, got {"a": 1}'),
    ('center.d_g="abc"', 'center.d_g must be a number, got "abc"'),
    ("center.d_g=null", "center.d_g must be a number, got null"),
    ("rates.pump=[1]", "rates.pump must be a number, got [1]"),
    ('sweep.field.steps="abc"', 'sweep.field.steps must be a number, got "abc"'),
    ('husimi.n_phi="9"', 'husimi.n_phi must be a number, got "9"'),
    ("drive.b1={}", "drive.b1 must be a number or a complex string, got {}"),
    # the grid is rejected from its size, never allocated
    ("husimi.n_theta=1000000000",
     "husimi.n_theta * husimi.n_phi = 181000000000 exceeds 1000000 grid points"),
    ("husimi.n_theta=5525", "husimi.n_theta * husimi.n_phi = 1000025 exceeds 1000000 grid points"),
    ("sweep.freq.steps=1000000000", "sweep.freq.steps = 1000000000 exceeds 100000 grid points"),
    ("sweep.freq.steps=100001", "sweep.freq.steps = 100001 exceeds 100000 grid points"),
    ("sweep.field.steps=1000000000", "sweep.field.steps = 1000000000 exceeds 60000 grid points"),
    ("sweep.field.steps=60001", "sweep.field.steps = 60001 exceeds 60000 grid points"),
    ("output.format=xml", "unknown output format 'xml'"),
    ("husimi.n_theta=1", "husimi grids need at least 2 points per axis"),
    ("sweep.field.steps=0", "grid needs steps >= 1, got 0"),
])
def test_schema_errors_exit2(override, message, capsys):
    assert main(["validate", "--set", override]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_husimi_grid_cap_is_inclusive():
    cfg = load_config(None, [f"husimi.n_theta={HUSIMI_MAX_POINTS // 1000}", "husimi.n_phi=1000"])
    assert cfg.husimi_n_theta * cfg.husimi_n_phi == HUSIMI_MAX_POINTS


def test_sweep_grid_caps_are_inclusive():
    cfg = load_config(None, [f"sweep.field.steps={FIELD_MAX_STEPS}",
                             f"sweep.freq.steps={FREQ_MAX_STEPS}"])
    assert (cfg.field_grid.steps, cfg.freq_grid.steps) == (FIELD_MAX_STEPS, FREQ_MAX_STEPS)


def test_map_rejects_its_table_size_before_computing(tmp_path, monkeypatch, capsys):
    # a stand-in for odmr_map shows where the check sits: at the cap the map
    # reaches it (its MemoryError exits 3), one row above the cap it does not
    def stand_in(*args, **kwargs):
        raise MemoryError("stand-in for the map computation")

    monkeypatch.setattr(cli, "odmr_map", stand_in)
    n_freq = 1000
    for n_field, code in ((MAP_MAX_POINTS // n_freq, 3), (MAP_MAX_POINTS // n_freq + 1, 2)):
        argv = ["map", "--out", str(tmp_path / "o"), "--set", f"sweep.field.steps={n_field}",
                "--set", f"sweep.freq.steps={n_freq}"]
        assert main(argv) == code
    points = (MAP_MAX_POINTS // n_freq + 1) * n_freq
    assert capsys.readouterr().err.endswith(
        f"config error: sweep.field.steps * sweep.freq.steps = {points} "
        f"exceeds {MAP_MAX_POINTS} grid points\n")
    assert not (tmp_path / "o").exists()


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == default_tree()


def test_validate_defaults_clean():
    errors, warns = validate_config(load_config(None))
    assert errors == [] and warns == []


def test_validate_hierarchy_warning():
    _, warns = validate_config(load_config(None, ["rates.gamma_g=1.0"]))  # gamma_g = pump
    assert any("hierarchy" in w for w in warns)


def test_validate_cli_exit_codes(tmp_path, capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "OK (0 warning(s))" in out
    # a complex b1 with no imaginary part resolves to a real number
    assert main(["validate", "--set", 'drive.b1="0.01+0j"']) == 0
    assert '"b1": 0.01,' in capsys.readouterr().out
    # eta out of range is a hard config error -> exit 2 before validate runs
    assert main(["validate", "--set", "rates.eta_e=1.5"]) == 2


@pytest.mark.parametrize(
    "override", ["center.d_g=NaN", "rates.pump=Infinity", "drive.b1=NaN"]
)
def test_validate_cli_rejects_non_finite(override, tmp_path, capsys):
    assert main(["validate", "--set", override]) == 2
    assert override.split("=")[0] in capsys.readouterr().err
    assert main(["multipoles", "--out", str(tmp_path), "--set", override]) == 2


def test_cli_linalg_error_exit3(tmp_path, monkeypatch):
    import spinquad.cli as cli

    def no_convergence(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "steady_states", no_convergence)
    assert main(["multipoles", "--out", str(tmp_path), "--set", "sweep.field.steps=1"]) == 3


def test_hierarchy_rule_shared(tmp_path):
    # one predicate behind the ratecheck flag and the validate warning, with
    # the boundary gamma_g = 0.2*min(pump, recomb) inside the hierarchy
    for gamma_g, inside in ((0.2, True), (0.2001, False)):
        out = tmp_path / str(gamma_g)
        assert main(["ratecheck", "--out", str(out), "--set", f"rates.gamma_g={gamma_g}"]) == 0
        doc = json.loads((out / "ratecheck.json").read_text())
        assert doc["data"]["hierarchy_satisfied"] is inside
        _, warns = validate_config(load_config(None, [f"rates.gamma_g={gamma_g}"]))
        assert any("hierarchy" in w for w in warns) is not inside


def test_cli_unknown_config_exit2(tmp_path):
    assert main(["levels", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_numerical_failure_exit3(tmp_path):
    code = main([
        "spectrum", "--out", str(tmp_path / "o"),
        "--set", "rates.pump=0", "--set", "rates.recomb=0",
        "--set", "rates.gamma_ms=0", "--set", "rates.gamma_g=0",
        "--set", "rates.gamma_e=0",
        "--set", "sweep.freq.steps=2", "--set", "sweep.field.steps=1",
    ])
    assert code == 3
    assert not (tmp_path / "o").exists()


def _small_spectrum_args(out):
    return [
        "spectrum", "--out", out,
        "--set", "sweep.field.steps=1", "--set", "sweep.field.min=0",
        "--set", "sweep.freq.min=60", "--set", "sweep.freq.max=80",
        "--set", "sweep.freq.steps=9", "--set", "drive.b1=0.002",
    ]


def test_spectrum_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(_small_spectrum_args(str(out1))) == 0
    assert main(_small_spectrum_args(str(out2))) == 0
    csv1 = (out1 / "spectrum.csv").read_bytes()
    csv2 = (out2 / "spectrum.csv").read_bytes()
    assert csv1 == csv2
    head = csv1.decode().splitlines()[0]
    assert head == "# spinquad-v1 spectrum"
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["subcommand"] == "spectrum"
    assert manifest["config"]["rates"]["eta_e"] == 0.35
    assert "spectrum.csv" in manifest["outputs"]


def test_spectrum_format_both(tmp_path):
    out = tmp_path / "o"
    assert main(_small_spectrum_args(str(out)) + ["--format", "both"]) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["meta"]["schema"] == "spinquad-v1 spectrum"
    assert len(doc["data"]["freqs_MHz"]) == 9
    assert (out / "spectrum.csv").exists()


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINQUAD_OUT", str(tmp_path / "envout"))
    args = _small_spectrum_args("ignored")
    args = [a for a in args if a not in ("--out", "ignored")]
    assert main(args) == 0
    assert (tmp_path / "envout" / "spectrum.csv").exists()


def test_map_jobs_deterministic(tmp_path):
    base = [
        "map",
        "--set", "sweep.field.min=0", "--set", "sweep.field.max=2",
        "--set", "sweep.field.steps=3",
        "--set", "sweep.freq.min=60", "--set", "sweep.freq.max=80",
        "--set", "sweep.freq.steps=5", "--set", "drive.b1=0.002",
    ]
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "map.csv").read_bytes() == (out2 / "map.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_map_rejects_jobs_below_one(tmp_path, jobs, capsys):
    out = tmp_path / "map"
    assert main(["map", "--jobs", jobs, "--out", str(out)]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_levels_output(tmp_path, center):
    out = tmp_path / "lv"
    code = main([
        "levels", "--out", str(out),
        "--set", "sweep.field.min=0", "--set", "sweep.field.max=10",
        "--set", "sweep.field.steps=3",
    ])
    assert code == 0
    lines = (out / "levels.csv").read_text().splitlines()
    assert lines[0] == "# spinquad-v1 levels"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 6  # 3 fields x 2 levels
    first = rows[0].split(",")
    assert first[1] == "g"
    energies = np.array([float(v) for v in first[2:6]])
    assert np.allclose(energies, [35.0, 35.0, -35.0, -35.0])
    # 10 mT GS row against the closed-form sector eigenvalues
    row10 = rows[4].split(",")
    assert float(row10[0]) == 10.0 and row10[1] == "g"
    b = center.gyro * 10.0 / center.d_g
    sm, sp = np.sqrt(1 - b + b * b), np.sqrt(1 + b + b * b)
    oracle = center.d_g * np.sort([b / 2 + sm, -b / 2 + sp, b / 2 - sm, -b / 2 - sp])[::-1]
    assert np.allclose([float(v) for v in row10[2:6]], oracle, atol=1e-9)


def test_husimi_output(tmp_path):
    out = tmp_path / "hu"
    code = main([
        "husimi", "--out", str(out), "--format", "json",
        "--set", "sweep.field.steps=1", "--set", "husimi.n_theta=7",
        "--set", "husimi.n_phi=9",
    ])
    assert code == 0
    doc = json.loads((out / "husimi.json").read_text())
    vals = np.array(doc["data"]["g"]["values"])
    assert vals.shape == (7, 9)
    assert np.all(vals >= -1e-12)


def test_multipoles_output(tmp_path):
    out = tmp_path / "mp"
    code = main([
        "multipoles", "--out", str(out),
        "--set", "sweep.field.min=0", "--set", "sweep.field.max=4",
        "--set", "sweep.field.steps=3",
    ])
    assert code == 0
    rows = [
        l for l in (out / "multipoles.csv").read_text().splitlines()
        if not l.startswith("#")
    ][1:]
    b0 = [float(v) for v in rows[0].split(",")]
    assert b0[1] < 0 and b0[2] < 0          # quadrupoles negative at B=0
    assert abs(b0[3]) < 1e-10               # no dipole at B=0
    b4 = [float(v) for v in rows[2].split(",")]
    assert b4[2] > 0                        # ES quadrupole flipped by 4 mT


def test_ratecheck_output(tmp_path, capsys):
    out = tmp_path / "rc"
    assert main(["ratecheck", "--out", str(out)]) == 0
    doc = json.loads((out / "ratecheck.json").read_text())
    data = doc["data"]
    assert data["x_at_zero"] == 1.0
    assert data["eta_ratio"] == pytest.approx(0.7)
    assert data["crossover_bg"] == pytest.approx(0.676, abs=1e-3)
    assert data["hierarchy_satisfied"] is True
    # eta_e == eta_g: the crossover sits at zero field, reported as 0, not null
    assert main(["ratecheck", "--out", str(out), "--set", "rates.eta_e=0.5"]) == 0
    data = json.loads((out / "ratecheck.json").read_text())["data"]
    assert data["crossover_bg"] == 0.0 and data["crossover_field_mT"] == 0.0
    # an output directory that cannot be made is a config error
    (tmp_path / "afile").write_text("x")
    assert main(["ratecheck", "--out", str(tmp_path / "afile")]) == 2
    assert "cannot write outputs to" in capsys.readouterr().err


def test_manifest_lists_every_parameter(tmp_path):
    # manifest completeness: every config section and every leaf parameter
    # any module consumes shows up in the resolved-config block
    out = tmp_path / "o"
    assert main(_small_spectrum_args(str(out))) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = manifest["config"]
    assert set(cfg) == {"center", "rates", "drive", "sweep", "husimi", "extract", "output"}
    assert set(cfg["rates"]) == {
        "pump", "recomb", "gamma_ms", "eta_g", "eta_e", "gamma_g", "gamma_e"
    }
    assert set(cfg["center"]) >= {"d_g", "d_e", "g_factor", "gyro"}
    assert set(cfg["drive"]) == {"b1", "axis", "freq"}
    assert set(cfg["sweep"]["field"]) == {"min", "max", "steps"}
    # the JSON artifacts carry the same resolved parameters in their meta
    assert main(_small_spectrum_args(str(out)) + ["--format", "json"]) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["meta"]["config"]["rates"]["pump"] == 1.0


def test_validate_from_config_file(tmp_path, capsys):
    path = write_config(tmp_path, {"rates": {"gamma_g": 1.0}})
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "warning" in out and "hierarchy" in out


def _model_areas_doc(center, rates, bx):
    gs, es = model_peak_areas(center, rates, bx)
    return {
        "field_mT": bx,
        "gs": {f"{i+1}-{j+1}": a for (i, j), a in gs.areas.items()},
        "es": {f"{i+1}-{j+1}": a for (i, j), a in es.areas.items()},
    }


def test_extract_cli_roundtrip(tmp_path, center, rates):
    doc = _model_areas_doc(center, rates, 10.0)
    areas_path = tmp_path / "areas.json"
    areas_path.write_text(json.dumps(doc))
    out = tmp_path / "ex"
    assert main(["extract", str(areas_path), "--out", str(out)]) == 0
    result = json.loads((out / "extract.json").read_text())["data"]
    assert result["residual_g"] < 1e-9
    assert len(result["df_g"]) == 4
    # extract without any input path is a config error, and so is a malformed
    # file, a transition named twice ("1-2" and "2-1") included
    assert main(["extract", "--out", str(out)]) == 2
    for bad_gs in ({**doc["gs"], "1-2": None}, {**doc["gs"], "2-1": 2.0}):
        areas_path.write_text(json.dumps({**doc, "gs": bad_gs}))
        assert main(["extract", str(areas_path), "--out", str(tmp_path / "bad")]) == 2
        assert not (tmp_path / "bad").exists()


def test_extract_input_is_coerced_to_string(tmp_path, center, rates, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "7").write_text(json.dumps(_model_areas_doc(center, rates, 7.0)))
    assert main(["extract", "--out", "a", "--set", "extract.input=7"]) == 0
    assert load_config(None, ["extract.input=7"]).extract_input == "7"
    assert main(["extract", "--out", "b", "--set", "extract.input=[1,2]"]) == 2
    assert not (tmp_path / "b").exists()


def test_cli_memory_error_exit3(tmp_path, monkeypatch, capsys):
    import spinquad.cli as cli

    def out_of_memory(*args):
        raise MemoryError("cannot allocate the Husimi grid")

    monkeypatch.setattr(cli, "husimi", out_of_memory)
    out = tmp_path / "o"
    assert main(["husimi", "--out", str(out), "--set", "sweep.field.steps=1"]) == 3
    assert "MemoryError: cannot allocate the Husimi grid" in capsys.readouterr().err
    assert not out.exists()


FORMAT_OUTPUTS = {
    # subcommand: (CSV files, JSON file); the JSON is written under csv only
    # when the subcommand has no CSV table
    "levels": (("levels.csv",), "levels.json"),
    "spectrum": (("spectrum.csv",), "spectrum.json"),
    "map": (("map.csv",), "map.json"),
    "husimi": (("husimi_g.csv", "husimi_e.csv"), "husimi.json"),
    "multipoles": (("multipoles.csv",), "multipoles.json"),
    "ratecheck": ((), "ratecheck.json"),
    "extract": ((), "extract.json"),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
@pytest.mark.parametrize("subcommand", sorted(FORMAT_OUTPUTS))
def test_format_writes_the_promised_files(subcommand, fmt, tmp_path, center, rates):
    areas = tmp_path / "areas.json"
    areas.write_text(json.dumps(_model_areas_doc(center, rates, 7.0)))
    out = tmp_path / "o"
    argv = [subcommand, "--out", str(out), "--format", fmt,
            "--set", "sweep.field.min=1", "--set", "sweep.field.max=3",
            "--set", "sweep.field.steps=2", "--set", "sweep.freq.min=60",
            "--set", "sweep.freq.max=80", "--set", "sweep.freq.steps=3",
            "--set", "husimi.n_theta=3", "--set", "husimi.n_phi=4"]
    assert main(argv + ([str(areas)] if subcommand == "extract" else [])) == 0
    csvs, json_name = FORMAT_OUTPUTS[subcommand]
    promised = set(csvs) if fmt != "json" else set()
    if fmt != "csv" or not csvs:
        promised.add(json_name)
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs == sorted(promised)
    assert {p.name for p in out.iterdir()} == promised | {"manifest.json"}


def test_write_csv_matches_value_loop(tmp_path):
    rng = np.random.default_rng(31)
    floats = np.concatenate([
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e22],
        rng.normal(size=20) * 10.0 ** rng.integers(-30, 30, 20),
    ])
    n = floats.size
    columns = [
        floats,
        rng.integers(-(2**62), 2**62, n),
        rng.integers(0, 2, n).astype(bool),
        np.array(["g", "e", "xyz"] * (n // 3) + ["g"] * (n % 3)),
        np.arange(n, dtype=np.uint8),
    ]
    names = ["f", "i", "b", "s", "u"]
    meta = {"version": "0", "field_mT": 0.5, "level": "g"}
    path = tmp_path / "t.csv"
    write_csv(path, "test", names, columns, meta)
    rows = list(zip(*columns))
    assert path.read_text() == loop_csv_text("test", names, rows, meta)
    # Python lists are columns too, typed by their values
    write_csv(path, "test", names[:1], [floats.tolist()], meta)
    assert path.read_text() == loop_csv_text("test", names[:1], [(v,) for v in floats], meta)
    # repeated values, among them -0.0 next to 0.0 and repeated non-finite ones
    grid = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, -0.0])
    columns = [np.repeat(grid, 3), np.tile(grid, 3), np.full(3 * grid.size, 2.5)]
    write_csv(path, "test", ["r", "t", "c"], columns, meta)
    assert path.read_text() == loop_csv_text("test", ["r", "t", "c"], list(zip(*columns)), meta)
    # strings that look like printf conversions, alone and repeated
    text = np.array(["%", "%s", "%%", "100%d", "a%%s"])
    columns = [text, np.tile(text[:2], 3)[:5], floats[:5]]
    write_csv(path, "test", ["s", "r", "f"], columns, meta)
    assert path.read_text() == loop_csv_text("test", ["s", "r", "f"], list(zip(*columns)), meta)
    # every column repeats, of every kind
    columns = [np.repeat(grid, 2), np.tile([7, -7], grid.size),
               np.repeat([True, False], grid.size), np.tile(text[:2], grid.size),
               np.zeros(2 * grid.size, dtype=np.uint8)]
    write_csv(path, "test", names, columns, meta)
    assert path.read_text() == loop_csv_text("test", names, list(zip(*columns)), meta)
    # one row
    columns = [c[:1] for c in columns]
    write_csv(path, "test", names, columns, meta)
    assert path.read_text() == loop_csv_text("test", names, list(zip(*columns)), meta)
    # a mostly distinct column (one repeat in 1000 rows, -0.0 next to 0.0)
    # beside a repeating one and one with exactly half its values distinct
    mostly = rng.normal(size=1000) * 10.0 ** rng.integers(-30, 30, 1000)
    mostly[[1, 7, 8]] = mostly[0], -0.0, 0.0
    columns = [mostly, np.repeat(np.arange(10.0), 100), np.repeat(rng.normal(size=500), 2)]
    write_csv(path, "test", ["m", "r", "h"], columns, meta)
    assert path.read_text() == loop_csv_text("test", ["m", "r", "h"], list(zip(*columns)), meta)


_JSON_TEXT = st.text() | st.sampled_from([", ", "a, b", "é, ✓"])
_JSON_NUMBERS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e-310]) | st.integers()
_JSON_SCALARS = _JSON_NUMBERS | st.booleans() | st.none() | _JSON_TEXT


@settings(max_examples=100, deadline=None)
@given(st.recursive(_JSON_SCALARS | st.lists(_JSON_NUMBERS),
                    lambda inner: st.lists(inner) | st.dictionaries(_JSON_TEXT, inner),
                    max_leaves=20))
def test_json_text_matches_json_dumps(obj):
    # the pure-Python indent path of the json module is the reference
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


_ARRAY_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1e300])


@st.composite
def _float_arrays(draw):
    # 1-D and 2-D, with repeats drawn from a small pool of values
    pool = draw(st.lists(_ARRAY_FLOATS, min_size=1, max_size=6))
    shape = draw(st.sampled_from([(1,), (5,), (1, 1), (3, 4), (2, 1), (1, 3)]))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    return np.array([pool[i] for i in picks]).reshape(shape)


@settings(max_examples=100, deadline=None)
@given(st.recursive(_JSON_SCALARS | _float_arrays() | st.lists(_JSON_NUMBERS),
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
                    max_leaves=10))
def test_json_text_of_float_arrays_matches_json_dumps(obj):
    # float arrays are left in the document; _jsonable's lists are the reference
    assert json_text(obj) == json.dumps(_jsonable(obj), indent=2, sort_keys=True)


def test_json_text_of_float_array_edges():
    arr = np.array([[-0.0, 0.0, np.nan, np.inf], [-np.inf, 5e-324, 1e300, -0.0]])
    for obj in (arr, arr[0], arr.T, arr[:, ::2], {"a": [arr, arr[1]]}, np.empty((2, 0)),
                np.float64(-0.0), np.array(2.5)):
        assert json_text(obj) == json.dumps(_jsonable(obj), indent=2, sort_keys=True)


@pytest.mark.parametrize("arr", [
    np.array([[0.1, -0.0, 1e300], [np.pi, -2.5, 7.0]]),
    np.arange(-3, 3).reshape(2, 3),
    np.array([True, False, True]),
    np.array([1 + 2j, 3.0 + 0j, -0.5j]),
])
def test_jsonable_arrays_match_element_path(arr):
    # the element-by-element conversion of the same values is the reference
    assert json.dumps(_jsonable(arr)) == json.dumps(_jsonable(arr.tolist()))
    assert json.dumps(_jsonable({"a": arr})) == json.dumps({"a": _jsonable(arr.tolist())})


def test_husimi_zero_field_writes_the_reference_bytes(tmp_path):
    # the default 91 x 181 sphere at 0 mT, where every column repeats values
    out = tmp_path / "hu"
    argv = ["husimi", "--out", str(out), "--format", "both", "--set", "sweep.field.steps=1"]
    assert main(argv) == 0
    tables, data = cli.COMMANDS["husimi"](load_config(None, argv[-1:]), None)
    meta = {"version": cli.__version__, "subcommand": "husimi"}
    for suffix, names, columns, extra in tables:
        rows = list(zip(*columns))
        assert len(rows) == 91 * 181
        expected = loop_csv_text("husimi", names, rows, {**meta, **extra})
        assert (out / f"husimi{suffix}.csv").read_text() == expected
    text = (out / "husimi.json").read_text()
    doc = {"meta": json.loads(text)["meta"], "data": _jsonable(data)}
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_sweep_tables_keep_their_bytes_on_probed_generators(tmp_path, monkeypatch):
    # multipoles and levels written from the affine generator stack equal
    # those written from kinetic_rhs probed column by column at every field
    argv = ["--set", "sweep.field.min=-1", "--set", "sweep.field.max=15",
            "--set", "sweep.field.steps=13", "--set", "center.g_factor_e=2.3"]
    tables = {}
    for side in ("affine", "probed"):
        if side == "probed":
            monkeypatch.setattr(kinetics, "generator_stack", lambda center, rates, fields: np.array(
                [loop_generator(center, rates, float(bx)) for bx in np.ravel(fields)]))
        for subcommand in ("multipoles", "levels"):
            out = tmp_path / side / subcommand
            assert main([subcommand, "--out", str(out), *argv]) == 0
            tables[side, subcommand] = (out / f"{subcommand}.csv").read_bytes()
    for subcommand in ("multipoles", "levels"):
        assert tables["affine", subcommand] == tables["probed", subcommand]


def _loaded_by_cli_import(prefix):
    """The modules named ``prefix*`` that a fresh ``import spinquad.cli`` loads."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, spinquad.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    return out.strip()


def test_import_cli_leaves_scipy_out():
    assert _loaded_by_cli_import("scipy") == "[]"


def test_every_subcommand_runs_without_scipy(tmp_path, center, rates):
    # the runtime is numpy-only: the declared dependencies name numpy alone,
    # and with scipy unimportable every subcommand on a tiny grid exits 0
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    repo = Path(__file__).resolve().parent.parent
    deps = tomllib.loads((repo / "pyproject.toml").read_text())["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]
    areas = tmp_path / "areas.json"
    areas.write_text(json.dumps(_model_areas_doc(center, rates, 5.0)))
    tiny = ["--set", "sweep.field.steps=2", "--set", "sweep.freq.steps=3",
            "--set", "husimi.n_theta=3", "--set", "husimi.n_phi=4"]
    extra = {"map": ["--jobs", "2"], "extract": [str(areas), "--set", "extract.calibrated=true"]}
    runs = [[name, "--out", str(tmp_path / name), *tiny, *extra.get(name, [])]
            for name in cli.COMMANDS]
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from spinquad.cli import main\n"
            f"print([main(argv) for argv in {runs!r}])")
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([0] * len(cli.COMMANDS)), proc.stderr


def test_import_cli_leaves_process_pool_out():
    # the --jobs process pool is imported only when a map fans out
    assert _loaded_by_cli_import("concurrent.futures.process") == "[]"


SCRIPT_OUTPUTS = {
    "spectrum": ("spectrum.csv",),
    "map": ("map.csv",),
    "multipoles": ("multipoles.csv",),
    "husimi": ("husimi_g.csv", "husimi_e.csv", "husimi.json"),
}


@pytest.mark.parametrize("script", ["reproduce_spectra.py", "multipole_sweep.py"])
def test_scripts_write_their_artifacts(script, tmp_path):
    # the shipped scripts end to end, among them the 41 x 256 map --jobs 2
    repo = Path(__file__).resolve().parent.parent
    path = repo / "scripts" / script
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    for argv in runpy.run_path(str(path))["RUNS"]:
        out = tmp_path / argv[argv.index("--out") + 1]
        for name in SCRIPT_OUTPUTS[argv[0]] + ("manifest.json",):
            assert (out / name).is_file(), out / name
