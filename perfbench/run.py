"""Benchmark of rp3color.solve on one workload; see perfbench/README.md.

  python3 perfbench/run.py --workload search-unsat --seed 1 --seconds 35 --trace 0

Writes the run corpus with its expected verdicts, times several fresh
set-ups, then starts one worker process that solves the corpus in whole
passes with jobs=1, one solve at a time.  Every verdict is compared with
the expected one and every coloring is checked against the instance
file, both with reference.py, which does not import rp3color.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import corpus
import reference as R
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 7  # fresh set-ups per run; setup_s is their median
WORKER_TIMEOUT = 150

# layer metrics: every span name and counter that spans.WRAPPED lists
LAYER_TIMES = list(dict.fromkeys(span for _, _, span, _, _ in spans.WRAPPED if span))
LAYER_COUNTS = list(dict.fromkeys(key for *_, counters in spans.WRAPPED for key in counters))
VERDICT_STATS = ["elements", "nodes", "leaves", "pruned"]


def worker(mode: str, corpus_dir: str, out: str, seconds: float = 0.0) -> dict:
    cmd = [sys.executable, WORKER, "--mode", mode, "--corpus", corpus_dir,
           "--out", out, "--seconds", str(seconds)]
    subprocess.run(cmd, check=True, timeout=WORKER_TIMEOUT, stdout=sys.stderr)
    with open(out) as fh:
        return json.load(fh)


def check(entries, files, outcomes):
    """(failed, correct); prints the first few problems to stderr.

    failed counts the solves that raised or gave no decision (aborted).
    No solve of these workloads is expected to fail, and a failed solve's
    time would still count in the metrics, so a run is correct only if
    none failed and every decided solve agrees with the reference.
    """
    failed = wrong = 0
    for i, status, coloring, _ in outcomes:
        if status.startswith("error") or status == "aborted":
            failed += 1
            problem = status
        else:
            problem = R.outcome_defect(files[i], entries[i]["verdict"], status, coloring)
            wrong += problem is not None
        if problem and failed + wrong <= 5:
            print(f"instance {entries[i]['file']}: {problem}", file=sys.stderr)
    return failed, failed == 0 and wrong == 0


def end_to_end(times, setups, peak_rss_mb) -> dict:
    """Each instance's solve time is the median over the run's passes,
    which drops a pass that hit a slow spell of the machine.  Throughput
    is the corpus size over the sum of these medians; the tail is the
    slowest time that still has ten slower ones beyond it."""
    per_instance = sorted(statistics.median(t) for t in times)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ips": (len(per_instance) / sum(per_instance), "1/s"),
        "solve_ms.p50": (1000 * statistics.median(per_instance), "ms"),
        "solve_ms.tail": (1000 * per_instance[-11], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(res: dict, corpus_size: int) -> dict:
    """Self times and counts per traced pass, Verdict.stats summed over
    the first pass, and the traced against the untraced pass time."""
    k = len(res["traced_pass_s"])
    self_s = res["self_s"]
    out = {f"{name}_s": (self_s.get(name, 0.0) / k, "s") for name in LAYER_TIMES}
    out["instances.parse_s"] = (res["parse_s"], "s")  # from the traced parse
    out["pipeline.self_s"] = (self_s.get("pipeline.solve", 0.0) / k, "s")
    for name in LAYER_COUNTS:
        out[name] = (res["counts"].get(name, 0) // k, "count")
    first = res["outcomes"][:corpus_size]
    stats = {s: sum(o[3].get(s, 0) for o in first) for s in VERDICT_STATS}
    for s in VERDICT_STATS:
        out[f"pipeline.{s}"] = (stats[s], "count")
    out["pipeline.leaf_ratio"] = (stats["leaves"] / max(stats["nodes"], 1), "ratio")
    overhead = statistics.median(res["traced_pass_s"]) / statistics.median(
        res["plain_pass_s"]
    )
    out["trace.overhead_pct"] = (100 * (overhead - 1), "%")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "rp3color", "__init__.py")):
        print(f"error: no rp3color sources under {ROOT}/src", file=sys.stderr)
        return 2
    run_dir = os.path.join(HERE, "runs", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    corpus_dir = os.path.join(run_dir, "corpus")
    started = time.perf_counter()
    entries = corpus.write(corpus.build(args.workload, args.seed), corpus_dir)
    files = []
    for entry in entries:
        with open(os.path.join(corpus_dir, entry["file"])) as fh:
            files.append(R.read_text(fh.read()))
    print(f"corpus: {len(entries)} instances in "
          f"{time.perf_counter() - started:.1f}s", file=sys.stderr)

    # the first set-up compiles bytecode and fills the file cache: not counted
    worker("setup", corpus_dir, os.path.join(run_dir, "setup-0.json"))
    setups = [
        worker("setup", corpus_dir, os.path.join(run_dir, f"setup-{i}.json"))
        for i in range(1, SETUPS)
    ]
    mode = "trace" if args.trace else "run"
    res = worker(mode, corpus_dir, os.path.join(run_dir, f"{mode}.json"), args.seconds)
    setups.append(res)

    failed, correct = check(entries, files, res["outcomes"])
    if args.trace:
        metrics = per_layer(res, len(entries))
        for name in res["missing"]:
            print(f"missing: {name} (its layer reads 0)", file=sys.stderr)
        print(f"spans: {res['spans']} over {len(res['traced_pass_s'])} traced passes",
              file=sys.stderr)
        raw = {}
    else:
        metrics = end_to_end(res["times"], [s["setup_s"] for s in setups],
                             res["peak_rss_mb"])
        raw = end_to_end(res["raw_times"], [s["setup_raw_s"] for s in setups],
                         res["peak_rss_mb"])
    print(f"workload {args.workload} seed {args.seed}: {len(entries)} instances, "
          f"{res['passes']} passes")
    for name, (value, unit) in metrics.items():
        wall = f"  (as measured {raw[name][0]:.6f})" if name in raw else ""
        print(f"  {name:26s} {value:14.6f} {unit}{wall}")
    print(f"  peak RSS after the last pass: {res['peak_rss_last_mb']:.1f} MB")
    summary = {
        "correct": correct,
        "attempted": len(res["outcomes"]),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    measured = {name: value for name, (value, _) in raw.items()}
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(dict(summary, as_measured=measured,
                       peak_rss_last_mb=res["peak_rss_last_mb"]), fh, indent=1)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
