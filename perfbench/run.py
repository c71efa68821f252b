#!/usr/bin/env python3
"""spinquad benchmark: three CLI workloads through ``spinquad.cli.main``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one report

A run imports ``spinquad`` from ``src/`` of the checkout it sits in and calls
``spinquad.cli.main(argv)`` in-process, as ``scripts/`` do, from this single
load-generating process (closed loop: one call at a time).  It

1. times fresh interpreters up to ``spinquad.cli`` imported and the default
   config resolved (``setup_s``, median of samples spread over the run);
2. runs one untimed warm-up pass at ``DEFAULT_SEED``, whose data files are
   compared with the seed commit's SHA-256 digests (``cli.outputs_identical``);
3. with ``--trace 0``, repeats timed passes at ``--seed`` until their summed
   wall time reaches ``--seconds`` and reports medians over passes of the
   call times normalized to a reference host speed (``calibrate``), next to
   the raw medians;
   with ``--trace 1``, runs one untraced and one traced pass and reports the
   per-layer numbers (``map`` runs its traced rows with ``--jobs 1``, since
   spans in worker processes are lost).

Every call's outputs are checked (``checks.py``) outside the timed region;
a call that exits non-zero, raises, or fails a check counts as failed.  BLAS
is pinned to one thread per process, so ``map --jobs 2`` puts no more busy
threads than cores on a 2-core machine.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` (calls) and ``metrics``.
"""

import os

# Before numpy is imported, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS, build_pass  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench-runs"
REFERENCE = BENCH_DIR / "reference_digests.json"
SETUP_SAMPLES = 5
MACHINE_LIMITS = (
    "2 shared cores; no control of CPU frequency or page cache; no CPU pinning; "
    "BLAS fixed at 1 thread per process"
)
PERTURBATIVE_MARK = "quadratic truncation"
CAL_SOLVES, CAL_LOOP = 300, 15000
PROBE_PERIOD_S = 0.25
CAL_REF_S = 0.010  # typical calibrate() CPU time on the reference host (Xeon, 2.1 GHz)

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import spinquad.cli
t1 = time.perf_counter()
spinquad.cli.load_config(None)
print(t1 - t0, flush=True)
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _require_sources() -> None:
    if not (SRC / "spinquad" / "cli.py").is_file():
        _die(f"no spinquad sources under {SRC}; run from a spinquad checkout")


def _import_program():
    sys.path.insert(0, str(SRC))
    import spinquad.cli

    if Path(spinquad.cli.__file__).resolve().parent != SRC / "spinquad":
        _die(f"imported spinquad from {spinquad.cli.__file__}, not from {SRC}")
    return spinquad.cli


# --------------------------------------------------------------------------
# set-up time


def setup_sample() -> tuple[float, float]:
    """(wall time of a fresh interpreter to a resolved config, its import of spinquad.cli)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                          env=env, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.communicate(timeout=120)
    if proc.returncode != 0 or not line.strip():
        _die(f"set-up interpreter failed (exit {proc.returncode})")
    return t1 - t0, float(line)


# --------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    wall_s: float = 0.0       # raw, summed over calls
    cpu_s: float = 0.0
    norm_wall_s: float = 0.0  # at the reference host speed, see calibrate()
    norm_cpu_s: float = 0.0
    errors: list = field(default_factory=list)  # per call: None or a message
    warnings: int = 0         # perturbative-limit warnings caught
    digests: dict = field(default_factory=dict)
    odmr_err: float = 0.0
    output_bytes: int = 0


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def calibrate() -> float:
    """CPU seconds of a fixed kernel shaped like the workloads' inner loops.

    On a shared host the speed of a core switches between states up to ~1.6x
    apart within seconds, and wall and CPU time of a call both follow it.
    The kernel, timed before and after each call and every PROBE_PERIOD_S
    during it, gives the speed the call ran at; a call's normalized time is
    its raw time * CAL_REF_S / (mean kernel time).
    """
    import numpy as np

    a = np.eye(33) * (33.0 + 1.0j) + np.arange(33.0 * 33.0).reshape(33, 33) % 7.0
    b = np.ones(33)
    t0 = time.thread_time()
    for _ in range(CAL_SOLVES):
        np.linalg.solve(a, b)
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    return time.thread_time() - t0


class SpeedProbe:
    """calibrate() samples every PROBE_PERIOD_S of wall time (SIGALRM), if enabled.

    Interval timers are not inherited across fork, so ``--jobs`` workers
    are never interrupted.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples = []
        self.wall_s = 0.0  # spent in the probe, to be taken off the call's time

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.wall_s += time.perf_counter() - t0

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(cli, p, workdir: Path, probe: bool = True) -> PassResult:
    """Run the calls of one pass; only the calls are timed.

    Without ``probe`` (traced passes, whose spans must not contain probe
    samples) the normalized times rest on the between-call samples alone.
    """
    for call in p.calls:
        shutil.rmtree(workdir / call.out, ignore_errors=True)
    res = PassResult()
    errors = res.errors
    cal_before = calibrate()
    for call in p.calls:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        with warnings.catch_warnings(record=True) as caught, SpeedProbe(probe) as sampler:
            warnings.simplefilter("always")
            try:
                code = cli.main(list(call.argv))
                errors.append(None if code == 0 else f"{call.out}: exit code {code}")
            except (Exception, SystemExit):  # a traceback is a failed call
                errors.append(f"{call.out}: {traceback.format_exc(limit=-3)}")
        wall = time.perf_counter() - t0 - sampler.wall_s
        cpu = _cpu_s() - cpu0 - sum(sampler.samples)
        cal_after = calibrate()
        speed = CAL_REF_S / statistics.mean([cal_before, cal_after, *sampler.samples])
        res.wall_s += wall
        res.cpu_s += cpu
        res.norm_wall_s += wall * speed
        res.norm_cpu_s += cpu * speed
        res.warnings += sum(PERTURBATIVE_MARK in str(w.message) for w in caught)
        cal_before = cal_after
    return res


def check_pass(p, res: PassResult, workdir: Path, rng: random.Random) -> None:
    """Check every call's outputs; a failed check marks the call failed.

    Digests and sizes are taken of every data file written, checked or not.
    """
    from checks import check_call

    for k, call in enumerate(p.calls):
        for name in call.outputs:
            path = workdir / call.out / name
            if path.is_file():
                with path.open("rb") as fh:  # streamed, so peak_rss_mb stays the program's
                    digest = hashlib.file_digest(fh, "sha256").hexdigest()
                res.digests[f"{call.out}/{name}"] = digest
                res.output_bytes += path.stat().st_size
        if res.errors[k] is not None:
            continue
        try:
            res.odmr_err = max(res.odmr_err, check_call(call, workdir, rng))
        except Exception as err:  # any check that cannot complete is a failure
            res.errors[k] = f"{call.out}: check failed: {type(err).__name__}: {err}"


def serial(p):
    """The same pass with every ``--jobs N`` set to 1."""
    calls = []
    for call in p.calls:
        argv = list(call.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        calls.append(replace(call, argv=tuple(argv)))
    return replace(p, calls=calls)


def _model_areas(bx: float) -> dict:
    from spinquad.hamiltonian import CenterParams
    from spinquad.kinetics import RateParams
    from spinquad.multipoles import model_peak_areas

    gs, es = model_peak_areas(CenterParams(), RateParams(), bx)
    wire = {"field_mT": bx}
    for key, level in (("gs", gs), ("es", es)):
        wire[key] = {f"{i + 1}-{j + 1}": a for (i, j), a in sorted(level.areas.items())}
    return wire


def _write_inputs(p, workdir: Path) -> None:
    for rel, text in p.inputs.items():
        path = workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


# --------------------------------------------------------------------------
# provenance and reporting


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"vendor": info.get("name"), "version": info.get("version"), "threads": threads,
            "env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _sha256_of(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def provenance(p) -> dict:
    import numpy as np
    import scipy

    src_files = sorted((SRC / "spinquad").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _sha256_of(f.name + f.read_text() for f in src_files),
        "config_sha256": _sha256_of([json.dumps([c.argv for c in p.calls])]
                                    + [k + v for k, v in sorted(p.inputs.items())]),
        "machine_limits": MACHINE_LIMITS,
    }


def _tail(values: list):
    """(p, value) for the highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def _line(name: str, unit: str, values: list, stat: str = "median") -> str:
    value = statistics.median(values) if stat == "median" else max(values)
    text = f"  {name:<28} {stat} {value:.6g} {unit}  (n={len(values)})"
    tail = _tail(values)
    if tail:
        text += f"  p{tail[0]} {tail[1]:.6g} {unit}"
    return text


def _outputs_identical(workload: str, digests: dict) -> tuple[float, int]:
    ref = json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.exists() else {}
    matched = sum(ref.get(k) == v for k, v in digests.items())
    return (matched / len(digests) if digests else 0.0), len(digests)


# --------------------------------------------------------------------------
# one workload


def run_workload(args) -> dict:
    _require_sources()
    # Set-up samples are spread over the run (two first, then about
    # SETUP_SAMPLES more between the timed passes) so that their median sees
    # the same host states as the passes.
    setups = [setup_sample() for _ in range(2)]
    cli = _import_program()
    from tracing import LAYERS, Tracer

    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    reference = build_pass(args.workload, DEFAULT_SEED, _model_areas)
    measured = build_pass(args.workload, args.seed, _model_areas)
    _write_inputs(reference, workdir)
    _write_inputs(measured, workdir)
    rng = random.Random(args.seed)
    home = os.getcwd()
    os.chdir(workdir)
    passes = []

    def run_checked(p, tracer=None):
        if tracer is None:
            res = run_pass(cli, p, workdir)
        else:
            with tracer.installed():
                res = run_pass(cli, p, workdir, probe=False)
        check_pass(p, res, workdir, rng)
        passes.append(res)
        return res

    try:
        warm = run_checked(reference)
        identical, compared = _outputs_identical(args.workload, warm.digests)
        if args.write_reference:
            ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            ref[args.workload] = dict(sorted(warm.digests.items()))
            REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
        timed = []
        if not args.trace:
            while not timed or sum(r.wall_s for r in timed) < args.seconds:
                timed.append(run_checked(measured))
                if len(setups) - 2 < SETUP_SAMPLES * sum(r.wall_s for r in timed) / args.seconds:
                    setups.append(setup_sample())
        else:
            untraced = run_checked(measured)
            serial_pass = serial(measured)
            plain = untraced if serial_pass == measured else run_checked(serial_pass)
            tracer = Tracer()
            traced = run_checked(serial_pass, tracer)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    setup_s, import_s = [t for t, _ in setups], [t for _, t in setups]
    attempted = sum(len(r.errors) for r in passes)
    failures = [e for r in passes for e in r.errors if e is not None]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = max(own, kids) / 1024.0
    prov = provenance(measured)

    report = [f"perfbench {args.workload}  seed={args.seed}  trace={args.trace}  "
              f"default_seed={DEFAULT_SEED}",
              f"  provenance {json.dumps(prov, sort_keys=True)}"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": prov, "failures": failures}
    if not args.trace:
        walls, cpus = [r.norm_wall_s for r in timed], [r.norm_cpu_s for r in timed]
        raw_walls, raw_cpus = [r.wall_s for r in timed], [r.cpu_s for r in timed]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
        }
        report += [
            _line("setup_s", "s", setup_s),
            _line("wall_s", "s", walls),
            _line("cpu_s", "s", cpus),
            _line("wall_s, raw", "s", raw_walls),
            _line("cpu_s, raw", "s", raw_cpus),
            _line("peak_rss_mb", "MB", [peak_rss_mb], stat="max"),
            f"  {'error_rate':<28} ratio {len(failures) / attempted:.6g}  "
            f"(n={attempted} calls, {len(failures)} failed)",
            f"  {'cli.outputs_identical':<28} ratio {identical:.6g}  "
            f"(n={compared} files, seed {DEFAULT_SEED})",
        ]
        record["samples"] = {"setup_s": setup_s, "wall_s": walls, "cpu_s": cpus,
                             "raw_wall_s": raw_walls, "raw_cpu_s": raw_cpus}
        units = END_TO_END_UNITS
    else:
        metrics, units = {}, {}
        summary = tracer.summary()
        for name, s in summary.items():
            metrics[f"{name}.calls"], units[f"{name}.calls"] = s["calls"], "count"
            metrics[f"{name}.self_s"], units[f"{name}.self_s"] = s["self_s"], "s"
            if "distinct_frac" in s:
                metrics[f"{name}.distinct_frac"] = s["distinct_frac"]
                units[f"{name}.distinct_frac"] = "ratio"
        map_eff = 0.0
        if args.workload == "map":
            # Raw: normalizing a --jobs 2 pass also divides out the contention
            # between its own workers, which this ratio is meant to show.
            map_eff = traced.wall_s / (2.0 * untraced.wall_s)
        extra = {
            "odmr.max_rel_err": (max(r.odmr_err for r in passes), "ratio"),
            "odmr.perturbative_warnings": (traced.warnings, "count"),
            "cli.import_s": (statistics.median(import_s), "s"),
            "cli.output_bytes": (traced.output_bytes, "bytes"),
            "cli.outputs_identical": (identical, "ratio"),
            "cli.map.parallel_eff": (map_eff, "ratio"),
            "trace.wall_s": (traced.norm_wall_s, "s"),
            "trace.untraced_wall_s": (plain.norm_wall_s, "s"),
            "trace.overhead_s": (traced.norm_wall_s - plain.norm_wall_s, "s"),
        }
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, s in summary.items():
            layer_self[name.split(".")[0]] += s["self_s"]
        for layer, t in layer_self.items():
            extra[f"share.{layer}"] = (t / traced.wall_s, "ratio")
        extra["share.uncovered"] = (1.0 - sum(layer_self.values()) / traced.wall_s, "ratio")
        for name, (value, unit) in extra.items():
            metrics[name], units[name] = value, unit
        report.append(f"  traced pass: {traced.wall_s:.4f} s raw, {traced.norm_wall_s:.4f} s "
                      f"normalized; untraced, same argv: {plain.norm_wall_s:.4f} s normalized"
                      + ("  (map traced with --jobs 1)" if serial_pass != measured else ""))
        report.append("  self time by layer, share of the traced pass's raw wall time:")
        for layer in (*LAYERS, "uncovered"):
            report.append(f"    {layer:<14} {metrics[f'share.{layer}']:7.2%}")
        report += [f"  {name:<40} {metrics[name]:.6g} {units[name]}" for name in metrics
                   if not name.startswith("share.")]
        spans = [list(s) for s in tracer.spans]
        record["spans"] = {"fields": ["name", "start", "end", "parent"], "spans": spans}
    record["metrics"] = metrics
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS_DIR / f"{stem}.json").write_text(json.dumps(record) + "\n")
    for msg in failures[:5]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print("\n".join(report))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own interpreter; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            _die(f"workload {workload} exited {out.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the warm-up pass digests as the reference "
                             "(only at the commit the reference belongs to)")
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
