"""Steadiness self-test: two sets of runs of the same code must agree.

    python3 perfbench/steadiness.py [--runs 10] [--workloads search,cli]

Runs the benchmark command of BENCHMARK.json --runs times per workload and
set, each run with another seed (the second set uses fresh seeds), untraced
and for run_seconds.  For every end-to-end metric it prints each set's
median and its spread, the distance between the quartiles as a share of
the median.  It fails when any spread, setup_s's included, exceeds the
metric's bound, or when the two sets' medians differ by more than the
bound in either direction.  Every run must also report correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(bench, workload, seeds):
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
        if out.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"  {workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads.split(","):
        sets = [
            run_set(bench, workload, range(1 + s * args.runs, 1 + (s + 1) * args.runs))
            for s in range(2)
        ]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = [f"{workload:13s} {name:12s} bound {bound:.2f}"]
            for values in (runs[name] for runs in sets):
                s = spread(values)
                flag = "" if s <= bound else " SPREAD>BOUND"
                ok &= not flag
                row.append(f"median {statistics.median(values):.5g} spread {s:.3f}{flag}")
            ratio = statistics.median(sets[1][name]) / statistics.median(sets[0][name])
            flag = " DIFFER>BOUND" if abs(ratio - 1) > bound else ""
            ok &= not flag
            row.append(f"second/first {ratio:.3f}{flag}")
            print(" | ".join(row), flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
