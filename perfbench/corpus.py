"""Seeded corpora for the three workloads, with their expected verdicts.

The two search workloads start from a committed base set
(``base/<workload>.json``) that ``regenerate`` draws from BASE_SEED and
decides with the exact solver in reference.py.  A run's seed renames the
vertices and colors of every base instance, which keeps each instance's
verdict and graph class but changes the order in which the solver meets
vertices, paths and colors.  Solve times of fresh random instances at
these sizes differ by up to 400x between instances, so drawing a fresh
set per seed would make the figures of two seeds disagree by more than
any change worth measuring.  ``large-easy`` is drawn fresh from the seed:
its instances are colorable by construction and their cost is set by
their size, which is fixed per slot.

Commands:
  python3 perfbench/corpus.py regenerate
      rewrite base/*.json from BASE_SEED
  python3 perfbench/corpus.py make --workload W --seed N --out DIR
      write the instance files of one run and expected.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from typing import Dict, List, Tuple

import reference as R

HERE = os.path.dirname(os.path.abspath(__file__))
BASE_DIR = os.path.join(HERE, "base")
BASE_SEED = 2105_01787
WORKLOADS = ("search-unsat", "search-sat", "large-easy")

# (family, count) per search workload; random families are drawn below
SEARCH_MIX = {
    "search-unsat": [("k2222", 1), ("rand-unsat-5", 36), ("rand-unsat-6", 3)],
    "search-sat": [("k222", 2), ("rand-sat-8", 120)],
}
# seeded labellings of each base instance in one run corpus
LABELLINGS = {"search-unsat": 1, "search-sat": 2}

# large-easy slots: (n, star leaves or 0); the pass solves them in order
LARGE_SLOTS = (
    [(100, 0)] * 11 + [(100, 12)] * 2
    + [(150, 0)] * 8 + [(150, 20)] * 2
    + [(200, 0)] * 6 + [(200, 30)] * 2
    + [(300, 0)] * 3 + [(300, 40)] * 2
    + [(450, 0)] * 1 + [(450, 40)] * 1
    + [(600, 0)] * 1 + [(600, 40)] * 1
)

Entry = Dict[str, object]


def multipartite(parts: Tuple[int, ...], colors) -> R.Ref:
    """Complete multipartite graph, every list equal to ``colors``."""
    groups, off = [], 0
    for size in parts:
        groups.append(range(off, off + size))
        off += size
    edges = [
        (u, v) for a, b in itertools.combinations(groups, 2) for u in a for v in b
    ]
    return R.make(off, edges, [colors] * off)


def _random_member(rng: random.Random, family: str) -> R.Ref:
    """Draw until the family's defining test passes (reference code only).

    rand-unsat-N: G(N, 0.5), lists of 2 or 3 colors, no 2 anticomplete
    induced P3s, no list coloring.  rand-sat-N: the same graphs and lists
    but with a list coloring and no frugal one, so the search cannot stop
    at the first profile element, which is the input itself.
    """
    _, kind, n = family.split("-")
    n = int(n)
    while True:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        lists = [rng.sample(range(1, 6), rng.choice((2, 3))) for _ in range(n)]
        inst = R.make(n, edges, lists)
        if R.has_2p3(inst):
            continue
        colorings = R.list_colorings(inst)
        if kind == "unsat":
            if next(colorings, None) is None:
                return inst
            continue
        first = next(colorings, None)
        if first is None:
            continue
        if not any(R.is_frugal(inst, phi) for phi in itertools.chain([first], colorings)):
            return inst


def regenerate() -> None:
    """Rewrite base/<workload>.json for both search workloads."""
    rng = random.Random(BASE_SEED)
    fixed = {
        "k2222": (multipartite((2, 2, 2, 2), (1, 2, 3)), "not-colorable"),
        "k222": (multipartite((2, 2, 2), (1, 2, 3)), "colorable"),
    }
    os.makedirs(BASE_DIR, exist_ok=True)
    for workload, mix in SEARCH_MIX.items():
        entries: List[Entry] = []
        for family, count in mix:
            for _ in range(count):
                if family in fixed:
                    inst, verdict = fixed[family]
                else:
                    inst = _random_member(rng, family)
                    verdict = "colorable" if "-sat-" in family else "not-colorable"
                entries.append(
                    {"family": family, "verdict": verdict, "text": R.write_text(inst)}
                )
        path = os.path.join(BASE_DIR, f"{workload}.json")
        with open(path, "w") as fh:
            json.dump({"base_seed": BASE_SEED, "instances": entries}, fh, indent=1)
            fh.write("\n")


def relabel(inst: R.Ref, rng: random.Random) -> R.Ref:
    """Rename vertices and colors by random permutations."""
    perm = list(range(inst.n))
    rng.shuffle(perm)
    colors = list(range(1, R.K + 1))
    rng.shuffle(colors)
    lists: List[object] = [None] * inst.n
    for v in range(inst.n):
        lists[perm[v]] = [colors[c - 1] for c in inst.lists[v]]
    return R.make(inst.n, [(perm[u], perm[v]) for u, v in inst.edges], lists)


def _large_member(rng: random.Random, n: int, star: int) -> R.Ref:
    """Disjoint cliques K1..K4, each list at least as long as its clique,
    after an optional star K_{1,star} with centre {3,4} and leaves {1,2}.
    Colorable by construction and free of 2 anticomplete induced P3s:
    cliques hold no induced P3 and every P3 of the star uses its centre."""
    edges: List[Tuple[int, int]] = []
    lists: List[object] = []
    if star:
        edges += [(0, leaf) for leaf in range(1, star + 1)]
        lists += [(3, 4)] + [(1, 2)] * star
    v = len(lists)
    while v < n:
        size = min(rng.randint(1, 4), n - v)
        edges += itertools.combinations(range(v, v + size), 2)
        for _ in range(size):
            lists.append(rng.sample(range(1, R.K + 1), rng.randint(size, R.K)))
        v += size
    return R.make(n, edges, lists)


def build(workload: str, seed: int) -> List[Entry]:
    """The run corpus: one entry per instance, in solve order.

    Each entry holds family, n, verdict, how the verdict is known, and
    the instance text.  Verdicts of relabelled random instances are
    decided again here with the exact solver.
    """
    if workload == "large-easy":
        rng = random.Random(f"large-easy/{seed}")
        out = []
        for n, star in LARGE_SLOTS:
            inst = _large_member(rng, n, star)
            family = f"cliques+star{star}" if star else "cliques"
            out.append(_entry(family, inst, "colorable", "construction"))
        return out
    with open(os.path.join(BASE_DIR, f"{workload}.json")) as fh:
        base = json.load(fh)["instances"]
    out = []
    for copy in range(LABELLINGS[workload]):
        for i, item in enumerate(base):
            rng = random.Random(f"{workload}/{seed}/{i}/{copy}")
            inst = relabel(R.read_text(item["text"]), rng)
            if item["family"].startswith("rand-"):
                verdict = "colorable" if R.exact_coloring(inst) else "not-colorable"
                if verdict != item["verdict"]:
                    raise RuntimeError(f"base instance {i}: exact solver says {verdict}")
                out.append(_entry(item["family"], inst, verdict, "exact solver"))
            else:
                out.append(_entry(item["family"], inst, item["verdict"], "construction"))
    return out


def _entry(family: str, inst: R.Ref, verdict: str, source: str) -> Entry:
    return {
        "family": family,
        "n": inst.n,
        "verdict": verdict,
        "decided_by": source,
        "text": R.write_text(inst),
    }


# a triangle with lists {1,2,3}: the untimed warm-up solve of every set-up
WARMUP = R.write_text(multipartite((1, 1, 1), (1, 2, 3)))


def write(entries: List[Entry], out_dir: str) -> List[Entry]:
    """Instance files NNN.txt, warmup.txt and expected.json into out_dir;
    returns what expected.json holds."""
    os.makedirs(out_dir, exist_ok=True)
    expected = []
    for i, entry in enumerate(entries):
        name = f"{i:03d}.txt"
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(entry["text"])
        meta = {k: v for k, v in entry.items() if k != "text"}
        expected.append(dict(meta, file=name))
    with open(os.path.join(out_dir, "warmup.txt"), "w") as fh:
        fh.write(WARMUP)
    with open(os.path.join(out_dir, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return expected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("regenerate")
    mk = sub.add_parser("make")
    mk.add_argument("--workload", choices=WORKLOADS, required=True)
    mk.add_argument("--seed", type=int, required=True)
    mk.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.cmd == "regenerate":
        regenerate()
    else:
        write(build(args.workload, args.seed), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
