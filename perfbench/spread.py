"""Run-to-run spread of the end-to-end metrics over several seeds.

  python3 perfbench/spread.py --workload search-sat --seeds 1-10 --seconds 35

Runs run.py once per seed, one run at a time, and prints for every
metric the median of the runs and the distance between their first and
third quartiles as a share of the median, the figure that BENCHMARK.json
bounds, and the same for the times as measured, before scaling.
Appends every run's summary to perfbench/runs/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="35")
    args = ap.parse_args()
    os.makedirs(os.path.join(HERE, "runs"), exist_ok=True)
    log = os.path.join(HERE, "runs", f"spread-{args.workload}.jsonl")
    values: dict = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            check=True, capture_output=True, text=True,
        ).stdout.strip().splitlines()[-1]
        summary = json.loads(out)
        with open(os.path.join(HERE, "runs", f"{args.workload}-seed{seed}",
                               "summary.json")) as fh:
            measured = json.load(fh)["as_measured"]
        with open(log, "a") as fh:
            fh.write(json.dumps(dict(summary, seed=seed, as_measured=measured)) + "\n")
        for name, m in summary["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in measured.items():
            values.setdefault(f"{name} (as measured)", []).append(v)
        print(f"seed {seed}: attempted {summary['attempted']} failed "
              f"{summary['failed']} correct {summary['correct']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in summary["metrics"].items()),
              flush=True)
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{name:40s} median {med:12.5g}  spread {(q3 - q1) / med:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
