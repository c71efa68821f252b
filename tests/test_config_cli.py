import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import loop_csv_text
from spinquad.cli import _jsonable, main, write_csv
from spinquad.config import ConfigError, load_config, validate_config
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


def test_ratecheck_output(tmp_path):
    out = tmp_path / "rc"
    assert main(["ratecheck", "--out", str(out)]) == 0
    doc = json.loads((out / "ratecheck.json").read_text())
    data = doc["data"]
    assert data["x_at_zero"] == 1.0
    assert data["eta_ratio"] == pytest.approx(0.7)
    assert data["crossover_bg"] == pytest.approx(0.676, abs=1e-3)
    assert data["hierarchy_satisfied"] is True


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


def test_extract_cli_roundtrip(tmp_path, center, rates):
    bx = 10.0
    gs, es = model_peak_areas(center, rates, bx)
    doc = {
        "field_mT": bx,
        "gs": {f"{i+1}-{j+1}": gs.areas[(i, j)] for i, j in gs.areas},
        "es": {f"{i+1}-{j+1}": es.areas[(i, j)] for i, j in es.areas},
    }
    areas_path = tmp_path / "areas.json"
    areas_path.write_text(json.dumps(doc))
    out = tmp_path / "ex"
    assert main(["extract", str(areas_path), "--out", str(out)]) == 0
    result = json.loads((out / "extract.json").read_text())["data"]
    assert result["residual_g"] < 1e-9
    assert len(result["df_g"]) == 4
    # extract without any input path is a config error
    assert main(["extract", "--out", str(out)]) == 2


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


def test_import_cli_leaves_scipy_out():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, spinquad.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"
