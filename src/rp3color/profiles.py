"""Refinement streams and lift bookkeeping.

Two refinement mechanisms live here: elimination of forced (singleton
list) vertices, and the stable-class profile stream that prepares an
instance for frugal coloring.  Elimination runs on a WorkingInstance
and each deletion leaves a local undo record (LiftStep), so
certificates can be pulled back to the original instance.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

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


def frugal_profile(inst: Instance, r: int) -> Iterator[Instance]:
    """Stream of spanning refinements obtained by pinning stable classes.

    Each element comes from a tuple (S_1..S_k) of pairwise disjoint
    stable sets with S_i inside the holders of color i and |S_i| capped
    at min((k-1) * cover_cap(r), n).  Pinned vertices keep exactly their
    class color; every other vertex drops each color i held by a
    neighbor in S_i.  Elements are streamed by ascending total size of
    the union, ties in ascending lexicographic order of the vertex to
    class vector (unassigned sorts first); the first element is the
    instance itself.

    Whenever the graph is r-P3-packing-free and the instance has a
    proper list coloring, some element of this stream has a frugal one.

    The cap does not prune in practice: cover_cap(2) = 2,772, so for
    k = 5 and r = 2 it equals n for every n < 11,088, and the stream
    enumerates every tuple of disjoint stable classes.
    """
    g, k = inst.graph, inst.k
    n = g.n
    cap = min((k - 1) * cover_cap(r), n)
    adjm = g.adj_mask
    lists = inst.lists

    vec = [0] * n
    class_mask = [0] * (k + 1)
    class_size = [0] * (k + 1)

    def build() -> Instance:
        out = []
        for v in range(n):
            i = vec[v]
            if i:
                out.append(1 << (i - 1))
            else:
                mask = lists[v]
                am = adjm[v]
                for c in range(1, k + 1):
                    if class_mask[c] & am:
                        mask &= ~(1 << (c - 1))
                out.append(mask)
        return Instance(g, k, tuple(out))

    def choices(v: int, left: int) -> Iterator[int]:
        """Apply each choice for v in turn, unassigned first, yielding
        the classes still to fill; undo it before trying the next."""
        yield left
        if left:
            vbit = 1 << v
            for c in colors_from_mask(lists[v]):
                if class_size[c] >= cap or class_mask[c] & adjm[v]:
                    continue
                vec[v] = c
                class_mask[c] |= vbit
                class_size[c] += 1
                yield left - 1
                vec[v] = 0
                class_mask[c] &= ~vbit
                class_size[c] -= 1

    # depth-first over the choices, one stack frame per decided vertex
    for support in range(0, min(n, k * cap) + 1):
        stack: List[Iterator[int]] = []
        v, left = 0, support
        while True:
            if left <= n - v:
                if v == n:
                    yield build()
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
