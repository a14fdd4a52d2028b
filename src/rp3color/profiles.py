"""Refinement streams and lift bookkeeping.

Two refinement mechanisms live here: elimination of forced (singleton
list) vertices, and the stable-class profile stream that prepares an
instance for frugal coloring.  Elimination runs on a WorkingInstance
and each deletion leaves a local undo record (LiftStep), so
certificates can be pulled back to the original instance.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from .graphs import Graph
from .instances import Instance, colors_from_mask
from .oracle import cover_cap
from .working import LiftStep, ReductionTrace, WorkingInstance


def lift_singleton(step: LiftStep, out: List[int], g: Graph) -> None:
    out[step.info["vertex"]] = step.info["color"]


def lift_identity(step: LiftStep, out: List[int], g: Graph) -> None:
    pass


def invert_perm(perm: Sequence[int]) -> Tuple[int, ...]:
    out = [0] * len(perm)
    for old, new in enumerate(perm, start=1):
        out[new - 1] = old
    return tuple(out)


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


def neighborhood_hypergraph(g: Graph, a_side: Sequence[int], b_side: Sequence[int]):
    """Hypergraph on ``a_side`` whose edges are the a-neighborhoods of ``b_side``.

    Requires the two sides to be disjoint stable sets and every b-vertex
    to have at least two neighbors in ``a_side``.  Vertices of the
    hypergraph are ``a_side`` relabelled ascending; duplicate edges stay.
    """
    from .graphs import is_stable_set
    from .oracle import Hypergraph

    a_sorted = sorted(set(a_side))
    b_sorted = sorted(set(b_side))
    if set(a_sorted) & set(b_sorted):
        clash = min(set(a_sorted) & set(b_sorted))
        raise ValueError(f"sides share vertex {clash}")
    if not is_stable_set(g, a_sorted):
        raise ValueError("a side is not stable")
    if not is_stable_set(g, b_sorted):
        raise ValueError("b side is not stable")
    remap = {v: i for i, v in enumerate(a_sorted)}
    edges = []
    for b in b_sorted:
        nbrs = frozenset(remap[w] for w in g.adj[b] if w in remap)
        if len(nbrs) < 2:
            raise ValueError(f"vertex {b} has fewer than 2 neighbors across")
        edges.append(nbrs)
    return Hypergraph(len(a_sorted), tuple(edges))


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
