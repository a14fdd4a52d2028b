"""Solver orchestration: branch search, certificate lifting, verdicts.

solve() runs the full decision procedure.  An optional packing check
rejects inputs outside the supported graph class, then a depth-first
search over candidate_stream reduces each candidate to a binary-list
instance and hands it to 2-SAT.  The first feasible candidate is lifted
back through its reduction trace and verified against the original
instance, so a colorable verdict is trustworthy no matter what internal
shortcuts the search took.
"""

from __future__ import annotations

import logging
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .goodp3 import (
    _earliest_good,
    good_triple_index,
    good_triples,
    pivot_refinements,
)
from .graphs import anticomplete_packing, bits
from .instances import Coloring, Instance, InstanceError, coloring_defect
from .profiles import (
    ReductionTrace,
    eliminate_singletons,
    frugal_profile,
    lift_identity,
    lift_singleton,
)
from .reducer import lift_step4, lift_step5c, lift_step11, reduce_to_binary
from .twosat import binary_list_color

log = logging.getLogger("rp3color")


@dataclass(frozen=True)
class SolveOptions:
    r: int = 2
    force: bool = False
    jobs: int = 1
    budget: Optional[int] = None
    trace: bool = False

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r={self.r}, need at least 1")
        if self.jobs < 1:
            raise ValueError(f"jobs={self.jobs}, need at least 1")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget={self.budget}, need at least 1")


@dataclass(frozen=True)
class Verdict:
    """Solver outcome.

    status is one of "colorable", "not-colorable", "not-rp3-free",
    "aborted".  A colorable verdict carries a coloring verified against
    the original instance; not-rp3-free carries the witness packing.
    """

    status: str
    coloring: Optional[Coloring] = None
    witness: Optional[Tuple[Tuple[int, ...], ...]] = None
    stats: Dict[str, int] = field(default_factory=dict)


_LIFTS = {
    "singleton-removal": lift_singleton,
    "spanning": lift_identity,
    "step4-removal": lift_step4,
    "step5c-removal": lift_step5c,
    "step11-contraction": lift_step11,
}


def lift(trace: ReductionTrace, phi: Coloring) -> Coloring:
    """Pull a coloring of the trace's final instance back to its first.

    ``trace`` is one trace or several traces joined end to end, each
    closed by its last record.  Records are undone newest-first; the
    vertices each one (re)colors are checked against their lists before
    the step and their neighbors, and the coloring that ends a trace is
    verified in full against the trace's input.  A defect is an internal
    bug and raises RuntimeError.
    """
    source = None
    out: List[int] = []
    for step in reversed(trace):
        if step.closing is not None:
            if source is not None:
                phi = _verified(source, out)
            source, keep = step.closing
            out = [0] * source.graph.n
            for child, v in enumerate(keep):
                out[v] = phi[child]
        elif source is None:
            raise ValueError("trace does not end with a closing record")
        g = source.graph
        _LIFTS[step.kind](step, out, g)
        for v, mask in step.lists.items():
            c = out[v]
            if not (c >= 1 and (mask >> (c - 1)) & 1):
                raise RuntimeError(
                    f"lift failed after {step.kind}: vertex {v} colored {c} "
                    "outside its list"
                )
            w = next((w for w in bits(g.adj_mask[v]) if out[w] == c), None)
            if w is not None:
                raise RuntimeError(
                    f"lift failed after {step.kind}: edge ({v}, {w}) is "
                    f"monochromatic in color {c}"
                )
    return phi if source is None else _verified(source, out)


def _verified(inst: Instance, out: List[int]) -> Coloring:
    phi = tuple(out)
    defect = coloring_defect(inst, phi)
    if defect is not None:
        raise RuntimeError(f"lift failed: {defect}")
    return phi


class _BudgetExceeded(Exception):
    pass


class _Budget:
    """Search counters with an optional hard cap on visited nodes."""

    __slots__ = ("limit", "elements", "nodes", "leaves", "pruned")

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self.elements = 0
        self.nodes = 0
        self.leaves = 0
        self.pruned = 0

    def node(self):
        self.nodes += 1
        self.check()

    def check(self):
        if self.limit is not None and self.nodes > self.limit:
            raise _BudgetExceeded

    def absorb(self, stats: Dict[str, int]):
        """Add a worker's walk counters (its elements were counted here)."""
        self.nodes += stats["nodes"]
        self.leaves += stats["leaves"]
        self.pruned += stats["pruned"]

    def as_dict(self) -> Dict[str, int]:
        return {
            "elements": self.elements,
            "nodes": self.nodes,
            "leaves": self.leaves,
            "pruned": self.pruned,
        }


def _elements(
    inst: Instance, r: int, budget: _Budget, trace: bool
) -> Iterator[Instance]:
    """Profile elements, each list tuple once, counted in the budget."""
    seen: Set[Tuple[int, ...]] = set()
    for element in frugal_profile(inst, r):
        if element.lists in seen:
            budget.pruned += 1
            continue
        seen.add(element.lists)
        budget.elements += 1
        if trace:
            log.info(
                "element %d (nodes=%d leaves=%d pruned=%d)",
                budget.elements,
                budget.nodes,
                budget.leaves,
                budget.pruned,
            )
        yield element


def _candidates(
    element: Instance, budget: _Budget
) -> Iterator[Tuple[Instance, ReductionTrace]]:
    """Singleton-free refinements of one element with no good P3.

    Depth-first over pivot_refinements of the earliest good triple, with
    an explicit stack of child streams.  A node with an empty list is
    skipped (every refinement keeps it empty), and so is a node whose
    list tuple was already visited (its subtree depends only on the
    instance, and was explored in full).  Each leaf is handed through
    eliminate_singletons; finals with an empty list or seen before are
    dropped.  No skip can hide a feasible candidate.
    """
    gammas = good_triples(element.k)
    index = good_triple_index(element.k)
    seen: Set[Tuple[int, ...]] = set()
    seen_final: Set[Instance] = set()
    stack = [iter((element,))]
    while stack:
        cur = next(stack[-1], None)
        if cur is None:
            stack.pop()
            continue
        budget.node()
        if any(m == 0 for m in cur.lists) or cur.lists in seen:
            budget.pruned += 1
            continue
        seen.add(cur.lists)
        best, first = _earliest_good(cur, index)
        if best is not None:
            stack.append(pivot_refinements(cur, gammas[best], first[best]))
            continue
        final, steps = eliminate_singletons(cur)
        if any(m == 0 for m in final.lists) or final in seen_final:
            budget.pruned += 1
            continue
        seen_final.add(final)
        yield final, steps


def candidate_stream(
    inst: Instance, r: int, budget: Optional[_Budget] = None, trace: bool = False
) -> Iterator[Tuple[Instance, ReductionTrace]]:
    """All branch candidates: singleton-free refinements with no good P3.

    Runs the good-P3 search under every distinct stable-class profile
    element in turn and yields each candidate together with the
    singleton-removal steps that lead to it from the element.  The input
    is feasible exactly when some candidate is, and a candidate coloring
    lifts to an input coloring through the returned trace.  ``budget``
    collects the search counters and enforces its node cap.
    """
    if budget is None:
        budget = _Budget()
    for element in _elements(inst, r, budget, trace):
        yield from _candidates(element, budget)


def _first_coloring(
    candidates: Iterator[Tuple[Instance, ReductionTrace]], budget: _Budget
) -> Optional[Coloring]:
    """Reduce and 2-SAT each candidate until one is colorable.

    The coloring is lifted through the candidate's trace, so it colors
    the element the candidate came from; every element has the graph
    and vertex set of the original instance.
    """
    for final, steps in candidates:
        budget.leaves += 1
        reduced, rounds = reduce_to_binary(final)
        phi = binary_list_color(reduced)
        if phi is not None:
            return lift(list(steps) + rounds, phi)
    return None


def _element_task(payload):
    element, limit = payload
    budget = _Budget(limit)
    try:
        phi = _first_coloring(_candidates(element, budget), budget)
    except _BudgetExceeded:
        phi = None
    return phi, budget.as_dict()


def _first_coloring_in_pool(
    elements: Iterator[Instance], budget: _Budget, jobs: int
) -> Optional[Coloring]:
    """Explore elements in worker processes, at most 2 * jobs in flight.

    Each worker caps its own element at the node limit; the total is
    checked between completions, and exceeding it raises
    _BudgetExceeded here.
    """
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        pending = set()
        while True:
            for element in islice(elements, 2 * jobs - len(pending)):
                pending.add(pool.submit(_element_task, (element, budget.limit)))
            if not pending:
                return None
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                phi, stats = fut.result()
                budget.absorb(stats)
                if phi is not None:
                    return phi
            budget.check()
    finally:
        pool.shutdown(cancel_futures=True)


def _certify(inst: Instance, phi: Coloring, stats: Dict[str, int]) -> Verdict:
    defect = coloring_defect(inst, phi)
    if defect is not None:
        raise RuntimeError(f"certificate failed verification: {defect}")
    return Verdict("colorable", coloring=tuple(phi), stats=stats)


def solve(inst: Instance, opts: Optional[SolveOptions] = None) -> Verdict:
    """Decide list-5-colorability and certify the answer.

    Unless opts.force is set, the input graph is first checked for a
    packing of opts.r anticomplete induced three-vertex paths; finding
    one returns not-rp3-free with the packing as witness.  The search
    then walks the candidate stream depth-first, identity element first.
    A colorable verdict always carries a verified coloring of the
    original instance.  Not-colorable is only reported after the whole
    stream was exhausted; exceeding opts.budget visited nodes aborts
    instead.  When opts.jobs > 1 the profile elements of the same stream
    are explored in worker processes: the verdict is unchanged but the
    certificate may come from a different candidate, and the budget is
    enforced per element inside a worker and on the total between
    element completions.
    """
    if opts is None:
        opts = SolveOptions()
    if inst.k != 5:
        raise InstanceError(f"k={inst.k}, need 5")
    if not opts.force:
        packing = anticomplete_packing(inst.graph, opts.r, 3)
        if packing is not None:
            if opts.trace:
                log.info("packing found: %s", packing)
            return Verdict("not-rp3-free", witness=packing, stats={})

    budget = _Budget(opts.budget)
    try:
        if opts.jobs == 1:
            candidates = candidate_stream(inst, opts.r, budget, opts.trace)
            phi = _first_coloring(candidates, budget)
        else:
            elements = _elements(inst, opts.r, budget, opts.trace)
            phi = _first_coloring_in_pool(elements, budget, opts.jobs)
    except _BudgetExceeded:
        if opts.trace:
            log.info("budget of %d nodes exceeded", opts.budget)
        return Verdict("aborted", stats=budget.as_dict())
    if phi is None:
        return Verdict("not-colorable", stats=budget.as_dict())
    return _certify(inst, phi, budget.as_dict())
