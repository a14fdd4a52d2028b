"""Solver orchestration: branch search, certificate lifting, verdicts.

solve() runs the full decision procedure.  An optional packing check
rejects inputs outside the supported graph class.  candidate_stream
then walks the profile elements and their good-P3 branching
depth-first, once per solve, deduplicating nodes and leaves across the
whole walk; each leaf is reduced to a binary-list instance and handed
to 2-SAT.  The first feasible leaf is lifted back through its reduction
trace and verified against the original instance, so a colorable
verdict is trustworthy no matter what internal shortcuts the search
took.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Set, Tuple

from .goodp3 import _earliest_good, good_triple_index, pivot_refinements
from .graphs import anticomplete_packing
from .instances import Coloring, Instance, InstanceError, coloring_defect
from .profiles import frugal_profile
from .reducer import lift_step4, lift_step5c, lift_step11, reduce_to_binary
from .twosat import binary_list_color
from .working import ReductionTrace, lift_identity, lift_singleton

log = logging.getLogger("rp3color")


@dataclass(frozen=True)
class SolveOptions:
    r: int = 2
    force: bool = False
    # kept only while perfbench/worker.py still passes jobs=1
    jobs: int = 1
    budget: Optional[int] = None

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r={self.r}, need at least 1")
        if self.jobs != 1:
            raise ValueError(
                f"jobs={self.jobs}, need 1: the worker-process pool was removed"
            )
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
    """Pull a coloring of the trace's output back to its input.

    ``trace`` is one trace, closed by its last record; an empty trace
    lifts to ``phi`` itself.  Records are undone newest-first; the
    vertices each one (re)colors are checked against their lists before
    the step and, walking the adjacency bitmask, against their
    neighbors, and the lifted coloring is verified in full against the
    trace's input.  A defect is an internal bug and raises RuntimeError.
    """
    if not trace:
        return phi
    if trace[-1].closing is None:
        raise ValueError("trace does not end with a closing record")
    source, keep = trace[-1].closing
    g = source.graph
    out = [0] * g.n
    for child, v in enumerate(keep):
        out[v] = phi[child]
    for step in reversed(trace):
        _LIFTS[step.kind](step, out)
        for v, mask in step.lists.items():
            c = out[v]
            if not (c >= 1 and (mask >> (c - 1)) & 1):
                raise RuntimeError(
                    f"lift failed after {step.kind}: vertex {v} colored {c} "
                    "outside its list"
                )
            rest = g.adj_mask[v]
            while rest:
                w = (rest & -rest).bit_length() - 1
                if out[w] == c:
                    raise RuntimeError(
                        f"lift failed after {step.kind}: edge ({v}, {w}) is "
                        f"monochromatic in color {c}"
                    )
                rest &= rest - 1
    lifted = tuple(out)
    defect = coloring_defect(source, lifted)
    if defect is not None:
        raise RuntimeError(f"lift failed: {defect}")
    return lifted


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
        if self.limit is not None and self.nodes > self.limit:
            raise _BudgetExceeded

    def as_dict(self) -> Dict[str, int]:
        return {
            "elements": self.elements,
            "nodes": self.nodes,
            "leaves": self.leaves,
            "pruned": self.pruned,
        }


def candidate_stream(
    inst: Instance, r: int, budget: Optional[_Budget] = None
) -> Iterator[Instance]:
    """All branch candidates: propagated refinements with no good P3.

    One depth-first walk per solve over a stack of streams: the bottom
    one is frugal_profile (each propagated list tuple once, nothing when
    propagating the input empties a list), each one above it the
    pivot_refinements of a node's earliest good triple.  Every node is a
    unit-propagation fixpoint with no empty list on the input graph.  A
    node whose lists were visited before, under any element, is skipped
    but counts toward the budget: its subtree was explored in full.  A
    leaf is dropped when its lists with every one-color list set to 0
    were seen before: at a fixpoint those lists constrain no neighbor,
    so it reduces to the earlier leaf's instance.  No skip can hide a
    feasible leaf.  Each leaf is a spanning refinement of the input that
    may keep one-color lists; the input is feasible exactly when some
    leaf is, and a leaf coloring is an input coloring.  ``budget``
    collects the search counters and enforces its node cap; with INFO
    logging on, they are logged as each element starts.
    """
    if budget is None:
        budget = _Budget()
    info = log.isEnabledFor(logging.INFO)
    index = good_triple_index(inst.k)
    seen: Set[Tuple[int, ...]] = set()
    seen_final: Set[Tuple[int, ...]] = set()
    stack = [frugal_profile(inst, r)]
    while stack:
        cur = next(stack[-1], None)
        if cur is None:
            stack.pop()
            continue
        if len(stack) == 1:
            budget.elements += 1
            if info:
                log.info(
                    "element %d (nodes=%d leaves=%d pruned=%d)",
                    budget.elements,
                    budget.nodes,
                    budget.leaves,
                    budget.pruned,
                )
        budget.node()
        if cur.lists in seen:
            budget.pruned += 1
            continue
        seen.add(cur.lists)
        _, pivot = _earliest_good(cur, index)
        if pivot is not None:
            stack.append(pivot_refinements(cur, pivot))
            continue
        key = tuple(m if m & (m - 1) else 0 for m in cur.lists)
        if key in seen_final:
            budget.pruned += 1
            continue
        seen_final.add(key)
        yield cur


def _first_coloring(
    candidates: Iterator[Instance], budget: _Budget
) -> Optional[Coloring]:
    """Reduce and 2-SAT each leaf until one is colorable.

    The leaf's one trace (singleton removal, then reduction rounds)
    lifts the 2-SAT coloring to the leaf, which has the graph and vertex
    set of the original instance.
    """
    for leaf in candidates:
        budget.leaves += 1
        reduced, trace = reduce_to_binary(leaf)
        phi = binary_list_color(reduced)
        if phi is not None:
            return lift(trace, phi)
    return None


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
    instead.
    """
    if opts is None:
        opts = SolveOptions()
    if inst.k != 5:
        raise InstanceError(f"k={inst.k}, need 5")
    if not opts.force:
        packing = anticomplete_packing(inst.graph, opts.r, 3)
        if packing is not None:
            log.info("packing found: %s", packing)
            return Verdict("not-rp3-free", witness=packing, stats={})

    budget = _Budget(opts.budget)
    try:
        candidates = candidate_stream(inst, opts.r, budget)
        phi = _first_coloring(candidates, budget)
    except _BudgetExceeded:
        log.info("budget of %d nodes exceeded", opts.budget)
        return Verdict("aborted", stats=budget.as_dict())
    if phi is None:
        return Verdict("not-colorable", stats=budget.as_dict())
    return _certify(inst, phi, budget.as_dict())
