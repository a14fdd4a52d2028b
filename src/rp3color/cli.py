"""Command line front end.

Subcommands: solve (full pipeline with certificates), oracle (exhaustive
reference solver), check-free (packing search), gen-hard (formula to
gadget graph), bench (seeded timing sweep over colorable rP3-free
instances).  Exit codes: 0 colorable / free, 1 not colorable, 2 not
rP3-free, 3 aborted, 4 usage or parse errors, 5 internal error (an
unexpected exception, which covers every exception raised inside
solve's search; the traceback and an "error: internal:" line go to
stderr and no verdict is printed).
"""

from __future__ import annotations

import argparse
import logging
import random
import sys
import time
import traceback
from itertools import combinations
from typing import Callable, List, Optional, Tuple

from .graphs import Graph, anticomplete_packing
from .instances import (
    Instance,
    InstanceError,
    ParseError,
    mask_from_colors,
    parse_instance,
    serialize_instance,
)
from .oracle import solve_exact, solve_exact_frugal
from .pipeline import SolveOptions, Verdict, solve

_EXIT = {"colorable": 0, "not-colorable": 1, "not-rp3-free": 2, "aborted": 3}
_STATUS = {
    "colorable": "s COLORABLE",
    "not-colorable": "s NOT_COLORABLE",
    "not-rp3-free": "s NOT_RP3FREE",
    "aborted": "s ABORTED",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(4)


def format_certificate(verdict: Verdict) -> str:
    """Line-oriented certificate: status, then v/w detail lines (1-based)."""
    lines = [_STATUS[verdict.status]]
    if verdict.status == "colorable":
        for v, c in enumerate(verdict.coloring):
            lines.append(f"v {v + 1} {c}")
    elif verdict.status == "not-rp3-free":
        for path in verdict.witness:
            lines.append("w " + " ".join(str(v + 1) for v in path))
    return "\n".join(lines) + "\n"


def _load(path: str, parse: Callable[[str], object]):
    """``parse`` applied to the text of the file at ``path``.  A file
    that cannot be read or parsed raises ValueError("PATH: MSG"), which
    main() prints as ``error: PATH: MSG`` and answers with 4."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ParseError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _internal(exc: Exception) -> int:
    traceback.print_exc()
    print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 5


def _cmd_solve(args) -> int:
    inst = _load(args.file, parse_instance)
    if args.trace:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(message)s"
        )
    opts = SolveOptions(r=args.r, force=args.force, budget=args.budget)
    if inst.k != 5:
        raise InstanceError(f"k={inst.k}, need 5")
    # past the usage checks, any exception is a bug in the search
    try:
        verdict = solve(inst, opts)
    except Exception as exc:
        return _internal(exc)
    if args.force:
        print(
            "note: --force skipped the packing check; a NOT_COLORABLE "
            "verdict is only meaningful for rP3-free inputs",
            file=sys.stderr,
        )
    sys.stdout.write(format_certificate(verdict))
    return _EXIT[verdict.status]


def _cmd_oracle(args) -> int:
    inst = _load(args.file, parse_instance)
    phi = solve_exact_frugal(inst) if args.frugal else solve_exact(inst)
    verdict = Verdict("not-colorable" if phi is None else "colorable", coloring=phi)
    sys.stdout.write(format_certificate(verdict))
    return _EXIT[verdict.status]


def _cmd_check_free(args) -> int:
    inst = _load(args.file, parse_instance)
    packing = anticomplete_packing(inst.graph, args.r, args.t)
    if packing is None:
        sys.stdout.write("s FREE\n")
        return 0
    sys.stdout.write(format_certificate(Verdict("not-rp3-free", witness=packing)))
    return _EXIT["not-rp3-free"]


def _cmd_gen_hard(args) -> int:
    from .hardness import build_hardness_graph, parse_nae

    inst = build_hardness_graph(_load(args.file, parse_nae))
    sys.stdout.write(serialize_instance(inst))
    return 0


def random_instance(rng: random.Random, n: int, k: int = 5) -> Instance:
    """Disjoint cliques of one to four vertices, each list at least as
    long as its clique, after an optional star whose center has list
    {3, 4} and whose leaves have {1, 2}.

    Every induced P3 uses the star's center, so the graph is rP3-free
    for every r >= 2, and the instance is colorable.  Needs k >= 4;
    deterministic per rng state.
    """
    edges: List[Tuple[int, int]] = []
    lists: List[int] = []
    star = rng.randint(0, (n - 1) // 3) if n else 0
    if star:
        edges += [(0, leaf) for leaf in range(1, star + 1)]
        lists += [mask_from_colors((3, 4))] + [mask_from_colors((1, 2))] * star
    v = len(lists)
    while v < n:
        size = min(rng.randint(1, 4), n - v)
        edges += combinations(range(v, v + size), 2)
        for _ in range(size):
            colors = rng.sample(range(1, k + 1), rng.randint(size, k))
            lists.append(mask_from_colors(colors))
        v += size
    return Instance(Graph(n, edges), k, tuple(lists))


def _cmd_bench(args) -> int:
    for flag, value in (("--count", args.count), ("--size", args.size)):
        if value < 0:
            raise ValueError(f"{flag} {value} is negative")
    rng = random.Random(args.seed)
    opts = SolveOptions(r=2)
    tally = {"colorable": 0, "not-colorable": 0, "not-rp3-free": 0, "aborted": 0}
    started = time.perf_counter()
    for i in range(args.count):
        inst = random_instance(rng, args.size)
        t0 = time.perf_counter()
        try:
            verdict = solve(inst, opts)
        except Exception as exc:
            return _internal(exc)
        dt = time.perf_counter() - t0
        tally[verdict.status] += 1
        print(
            f"bench {i} {verdict.status} "
            f"nodes={verdict.stats.get('nodes', 0)}"
        )
        print(f"bench {i} took {dt:.3f}s", file=sys.stderr)
    total = time.perf_counter() - started
    print(
        "bench total "
        + " ".join(f"{key}={tally[key]}" for key in sorted(tally))
    )
    print(f"bench total took {total:.3f}s", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rp3color")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the reduction pipeline")
    p.add_argument("--r", type=int, default=2, help="packing parameter")
    p.add_argument("--force", action="store_true", help="skip the packing check")
    p.add_argument("--budget", type=int, default=None, help="search node cap")
    p.add_argument("--trace", action="store_true", help="progress on stderr")
    p.add_argument("file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive reference solver")
    p.add_argument("--frugal", action="store_true", help="frugal colorings only")
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check-free", help="search an anticomplete path packing")
    p.add_argument("--r", type=int, required=True, help="number of paths")
    p.add_argument("--t", type=int, required=True, help="path length (vertices)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_free)

    p = sub.add_parser("gen-hard", help="formula to gadget instance")
    p.add_argument("file", help="not-all-equal formula file")
    p.set_defaults(func=_cmd_gen_hard)

    p = sub.add_parser("bench", help="seeded random solve sweep")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        return _internal(exc)


if __name__ == "__main__":
    sys.exit(main())
