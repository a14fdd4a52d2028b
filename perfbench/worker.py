"""One closed-loop caller of rp3color.solve on one run corpus.

Started by run.py in a fresh interpreter, so that import, parsing and
the warm-up solve are paid again:
  --mode setup   only the set-up, timed
  --mode run     set-up, then whole passes over the corpus, at least
                 one, as many as fit in --seconds
  --mode trace   set-up, one traced parse of the corpus, then rounds of
                 one untraced and one traced pass, as many as fit
Every solve uses jobs=1 and waits for the previous one.  Results go to
--out as JSON; run.py checks them.  The solver is imported from the
checkout's src/, never from an installed copy.

Every time is recorded twice: as measured, and scaled to a reference
speed of the machine.  The speed is read from a fixed kernel of the
benchmark's own code, timed between chunks of solves; see calibrate().
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import reference as R

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# the kernel: all 1,026 list colorings of a 10-cycle with lists {1,2,3}
KERNEL = R.make(10, [(v, (v + 1) % 10) for v in range(10)], [(1, 2, 3)] * 10)
REF_S = 0.0075  # kernel time that scaled times refer to
CHUNK_S = 1.0  # solve time between two kernel readings


def calibrate() -> float:
    """Median of three timings of the kernel, in seconds.

    The kernel is pure Python like the solver and does not touch
    rp3color, so a change to the program cannot move it; a busier or
    slower machine moves both.
    """
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in R.list_colorings(KERNEL):
            pass
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def setup(corpus: str):
    """Import the solver, parse the corpus, run the warm-up solve."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import rp3color
    from rp3color import SolveOptions, instances, pipeline

    if not os.path.abspath(rp3color.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"rp3color imported from {rp3color.__file__}, not {SRC}")
    names = sorted(f for f in os.listdir(corpus) if f[:3].isdigit())
    texts = []
    for name in names:
        with open(os.path.join(corpus, name)) as fh:
            texts.append(fh.read())
    insts = [instances.parse_instance(text) for text in texts]
    with open(os.path.join(corpus, "warmup.txt")) as fh:
        warm = instances.parse_instance(fh.read())
    opts = SolveOptions(r=2, jobs=1)
    pipeline.solve(warm, opts)
    return time.perf_counter() - start, rp3color, texts, insts, opts


def solve_pass(pipeline, insts, opts, outcomes, root=None):
    """Solve every instance once, in order.

    Returns each solve's wall time, and the same times scaled by REF_S
    over the mean of the kernel readings before and after their chunk.
    """
    raw, scaled, chunk = [], [], []
    before = calibrate()
    for i, inst in enumerate(insts):
        idx = root.open("pipeline.solve") if root else None
        t0 = time.perf_counter()
        try:
            v = pipeline.solve(inst, opts)
            outcome = [v.status, list(v.coloring) if v.coloring else None, v.stats]
        except Exception as exc:  # a crash is a failed solve, not a lost run
            outcome = [f"error: {type(exc).__name__}: {exc}", None, {}]
        chunk.append(time.perf_counter() - t0)
        if root:
            root.close(idx)
        outcomes.append([i] + outcome)
        if sum(chunk) >= CHUNK_S or i == len(insts) - 1:
            after = calibrate()
            raw += chunk
            scaled += [t * 2 * REF_S / (before + after) for t in chunk]
            before, chunk = after, []
    return raw, scaled


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    setup_s, rp3color, texts, insts, opts = setup(args.corpus)
    result = {"setup_raw_s": setup_s, "setup_s": setup_s * REF_S / calibrate()}
    if args.mode != "setup":
        pipeline = rp3color.pipeline
        raw_times = [[] for _ in insts]
        times = [[] for _ in insts]
        outcomes = []
        plain, traced = [], []
        tracer = None
        if args.mode == "trace":
            from spans import Tracer

            parse = Tracer(rp3color)
            parse.install()
            for text in texts:
                rp3color.instances.parse_instance(text)
            parse.uninstall()
            result["parse_s"] = parse.self_times().get("instances.parse", 0.0)
            tracer = Tracer(rp3color)
        start = time.perf_counter()
        while True:
            raw, scaled = solve_pass(pipeline, insts, opts, outcomes)
            for i, (r, s) in enumerate(zip(raw, scaled)):
                raw_times[i].append(r)
                times[i].append(s)
            plain.append(sum(scaled))
            if len(plain) == 1:
                # the peak keeps rising over later passes, so a faster
                # program, with more passes, would read as using more memory
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer:
                tracer.install()
                traced.append(sum(solve_pass(pipeline, insts, opts, outcomes, tracer)[1]))
                tracer.uninstall()
            # stop before a round that would end after --seconds
            elapsed = time.perf_counter() - start
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
        result.update(
            passes=len(plain),
            times=times,
            raw_times=raw_times,
            outcomes=outcomes,
            plain_pass_s=plain,
            peak_rss_mb=peak_kb / 1024,
            peak_rss_last_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer:
            result.update(
                traced_pass_s=traced,
                self_s=tracer.self_times(),
                counts=dict(tracer.counts),
                missing=tracer.missing,
                spans=len(tracer.spans),
            )
            with open(os.path.splitext(args.out)[0] + "-spans.json", "w") as fh:
                json.dump({"columns": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
