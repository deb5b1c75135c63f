"""Run one or more workloads on several seeds and report each end-to-end
metric's spread: the interquartile range over the runs as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives it.  Each run lasts
``run_seconds`` from ``BENCHMARK.json``.

    python3 perfbench/spread.py --workloads catalog-sweep,bt-search,cli \\
        --seeds 201-210 --out perfbench/results/tenseed.jsonl

Every run's ``detail`` and result objects go to ``--out``, one JSON line per
run.  Next to the scaled ``setup_s``, ``wall_s`` and ``op_p50_ms`` the
report gives the spread of the same figures unscaled (from ``detail``), so
the effect of the machine-speed scaling can be read off the same runs.  ``--report FILE`` prints the report
of an existing file without running anything.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNSCALED = ("measured_wall_s", "measured_op_p50_ms")


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(rows: list):
    by_workload = {}
    for row in rows:
        by_workload.setdefault(row["detail"]["workload"], []).append(row)
    for name, runs in by_workload.items():
        seeds = [r["detail"]["seed"] for r in runs]
        print(f"{name}: {len(runs)} runs, seeds {seeds}, "
              f"{sum(r['result']['failed'] for r in runs)} failed ops, "
              f"all correct: {all(r['result']['correct'] for r in runs)}")
        series = {k: [r["result"]["metrics"][k]["value"] for r in runs] for k in runs[0]["result"]["metrics"]}
        series.update({k: [r["detail"][k] for r in runs] for k in UNSCALED})
        series["measured_setup_s"] = [statistics.median(m for _, m in r["detail"]["setup_s_probes"]) for r in runs]
        for key, values in series.items():
            print(f"   {key:20s} median {statistics.median(values):12.6g}  spread {spread(values):.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="catalog-sweep,bt-search,cli")
    parser.add_argument("--seeds", default="201-210", help="first-last, inclusive")
    parser.add_argument("--out", help="append one JSON line per run here")
    parser.add_argument("--report", help="only report the runs in this file")
    args = parser.parse_args(argv)
    if args.report:
        with open(args.report) as handle:
            report([json.loads(line) for line in handle])
        return 0
    first, last = (int(s) for s in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = str(json.load(handle)["run_seconds"])
    rows = []
    for name in args.workloads.split(","):
        for seed in range(first, last + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            row = {"detail": json.loads(lines[-2][len("detail "):]), "result": json.loads(lines[-1]),
                   "run_s": time.perf_counter() - t0}
            rows.append(row)
            values = {k: round(m["value"], 4) for k, m in row["result"]["metrics"].items()}
            print(f"{name} {seed} {row['run_s']:.1f}s {values}", flush=True)
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps(row, sort_keys=True) + "\n")
    report(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
