"""Refinement streams and lift bookkeeping.

Two refinement mechanisms live here: elimination of forced (singleton
list) vertices, and the stable-class profile stream that prepares an
instance for frugal coloring, together with the unit propagation
(unit_propagate) that the profile and goodp3.pivot_refinements share.
Elimination runs on a WorkingInstance and each deletion leaves a local
undo record (LiftStep), so certificates can be pulled back to the
original instance.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Set, Tuple

from .graphs import Graph
from .instances import Instance, colors_from_mask
from .working import LiftStep, ReductionTrace, WorkingInstance


def lift_singleton(step: LiftStep, out: List[int], g: Graph) -> None:
    out[step.info["vertex"]] = step.info["color"]


def lift_identity(step: LiftStep, out: List[int], g: Graph) -> None:
    pass


def eliminate_singletons(inst: Instance) -> Tuple[Instance, ReductionTrace]:
    """Repeatedly delete the lowest-id vertex with a one-color list.

    Deleting vertex v with list {c} removes c from every neighbor list;
    the scan restarts after each deletion.  Empty lists are kept.
    Returns the fixpoint and the singleton-removal steps in order; their
    vertex ids are those of ``inst``.
    """
    work = WorkingInstance(inst)
    work.eliminate_singletons()
    return work.finish()


def cover_cap(r: int) -> int:
    """Class-size cap used by the refinement profile for parameter r.

    Equals 11 (r+1)^2 (2r+3) C(2r, r-1); large enough that the greedy
    cover argument behind the profile goes through.
    """
    if r < 1:
        raise ValueError(f"packing parameter {r} below 1")
    return 11 * (r + 1) ** 2 * (2 * r + 3) * math.comb(2 * r, r - 1)


def unit_propagate(
    adj: List[int],
    lists: List[int],
    work: Optional[List[int]] = None,
    trail: Optional[List[Tuple[int, int]]] = None,
) -> bool:
    """Unit propagation in place: each vertex in ``work`` has a list of
    at most one color and removes that color from every neighbor's list
    (``adj`` holds neighbor bitmasks); a neighbor left with one color
    joins the worklist.  With ``work`` None the worklist starts as
    every vertex whose list has at most one color, so the result is the
    fixpoint of the whole instance.

    Every change is recorded as ``(vertex, old mask)`` on ``trail`` when
    one is given, so the caller can undo it.  Returns False at the first
    empty list, True at the fixpoint.  The proper list colorings stay
    the same, and a frugal one stays frugal, since lists only shrink.
    """
    if work is None:
        work = [v for v, m in enumerate(lists) if m & (m - 1) == 0]
    while work:
        v = work.pop()
        bit = lists[v]
        if bit == 0:
            return False
        nbrs = adj[v]
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            w = low.bit_length() - 1
            m = lists[w]
            if m & bit:
                if trail is not None:
                    trail.append((w, m))
                m = lists[w] = m & ~bit
                if m & (m - 1) == 0:
                    work.append(w)
    return True


def frugal_profile(inst: Instance, r: int) -> Iterator[Instance]:
    """Stream of unit-propagated spanning refinements obtained by
    pinning stable classes.

    Each element comes from a tuple (S_1..S_k) of pairwise disjoint
    stable sets with S_i inside the holders of color i and |S_i| capped
    at min((k-1) * cover_cap(r), n): pinned vertices keep exactly their
    class color, and then every one-color list's color is removed from
    its neighbors' lists up to the fixpoint (unit_propagate).  Tuples
    are taken by ascending total size of the union, ties in ascending
    lexicographic order of the vertex to class vector (unassigned sorts
    first).  A tuple whose propagation empties a list gives no element,
    and a list tuple seen before is not yielded again, so the first
    element is the propagated instance, and the stream is empty when
    that has an empty list.

    The current lists are propagated as each vertex is pinned and
    restored from an undo trail on backtrack.  Propagation is monotone,
    so an empty list cuts every completion of the prefix; a vertex whose
    list is already one color is never pinned, since that repeats the
    element with it unpinned, which comes earlier.

    Whenever the graph is r-P3-packing-free and the instance has a
    proper list coloring, some element of this stream has a frugal one.

    The cap does not prune in practice: cover_cap(2) = 2,772, so for
    k = 5 and r = 2 it equals n for every n < 11,088, and the stream
    covers every tuple of disjoint stable classes.
    """
    g, k = inst.graph, inst.k
    n = g.n
    cap = min((k - 1) * cover_cap(r), n)
    adjm = g.adj_mask
    cur = list(inst.lists)
    if not unit_propagate(adjm, cur):
        return
    class_size = [0] * (k + 1)
    trail: List[Tuple[int, int]] = []
    seen: Set[Tuple[int, ...]] = set()

    def choices(v: int, left: int) -> Iterator[int]:
        """Apply each choice for v in turn, unassigned first, yielding
        the classes still to fill; undo it before trying the next."""
        yield left
        mask = cur[v]
        if left and mask & (mask - 1):
            for c in colors_from_mask(mask):
                if class_size[c] >= cap:
                    continue
                mark = len(trail)
                trail.append((v, mask))
                cur[v] = 1 << (c - 1)
                class_size[c] += 1
                if unit_propagate(adjm, cur, [v], trail):
                    yield left - 1
                class_size[c] -= 1
                for w, m in reversed(trail[mark:]):
                    cur[w] = m
                del trail[mark:]

    # depth-first over the choices, one stack frame per decided vertex
    for support in range(0, min(n, k * cap) + 1):
        stack: List[Iterator[int]] = []
        v, left = 0, support
        while True:
            if left <= n - v:
                if v == n:
                    lists = tuple(cur)
                    if lists not in seen:
                        seen.add(lists)
                        yield Instance(g, k, lists)
                else:
                    stack.append(choices(v, left))
            while stack:
                left = next(stack[-1], None)
                if left is not None:
                    v = len(stack)
                    break
                stack.pop()
            else:
                break
