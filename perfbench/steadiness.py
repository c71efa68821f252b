#!/usr/bin/env python3
"""Repeat the benchmark and record medians, quartiles and spreads.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/baseline.json

Runs ``run.py`` once per (seed, workload), interleaving the workloads within
each seed rather than taking consecutive blocks, so slow host drift spreads
over all of them.  Then one traced run per workload at the default seed.
The spread of a metric is (Q3 - Q1) / median over its runs, with quartiles
from ``statistics.quantiles(values, n=4)``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    values = {w: {} for w in WORKLOADS}
    failed = {w: 0 for w in WORKLOADS}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in WORKLOADS:
            res = run_once(w, seed, args.seconds, 0)
            failed[w] += res["failed"]
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)

    doc = {"date": time.strftime("%Y-%m-%d"), "runs": args.runs, "seconds": args.seconds,
           "seeds": [args.first_seed, args.first_seed + args.runs - 1],
           "end_to_end": {}, "per_layer": {}}
    for w in WORKLOADS:
        doc["end_to_end"][w] = {"failed_calls": failed[w]}
        for name, vals in values[w].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            doc["end_to_end"][w][name] = {
                "median": statistics.median(vals), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals), "values": vals,
            }
        traced = run_once(w, DEFAULT_SEED, args.seconds, 1)
        doc["per_layer"][w] = {k: m["value"] for k, m in traced["metrics"].items()}
    record = RUN.parent.parent / ".perfbench-runs" / f"{WORKLOADS[0]}-seed{DEFAULT_SEED}-trace1.json"
    doc["provenance"] = json.loads(record.read_text())["provenance"]
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for w in WORKLOADS:
        print(w, {k: round(v["spread"], 4) for k, v in doc["end_to_end"][w].items()
                  if isinstance(v, dict)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
