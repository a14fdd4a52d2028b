"""Refinement streams and lift bookkeeping.

Two refinement mechanisms live here: elimination of forced (singleton
list) vertices, and the stable-class profile stream that prepares an
instance for frugal coloring.  Each destructive step records a LiftStep
so certificates can be pulled back to the original instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from .graphs import Graph, induced_subgraph
from .instances import Coloring, Instance, colors_from_mask
from .oracle import cover_cap

# LiftStep kinds, by provenance:
#   singleton-removal   forced vertex deleted, color pushed to neighbors
#   spanning            same vertex set, lists shrank; lift is identity
#   step4-removal       low-degree vertex deleted
#   step5c-removal      closed ball deleted after local enumeration
#   step11-contraction  neighborhood collapsed to a three-vertex core


@dataclass(frozen=True)
class LiftStep:
    """One reduction step with the context needed to undo it."""

    kind: str
    parent: Instance
    vertex_map: Tuple[int, ...]  # child id -> parent id
    info: dict = field(default_factory=dict)


ReductionTrace = List[LiftStep]


def identity_map(n: int) -> Tuple[int, ...]:
    return tuple(range(n))


def embed_coloring(step: LiftStep, phi: Coloring) -> List[int]:
    """Place a child coloring into a parent-sized array (gaps stay 0)."""
    out = [0] * step.parent.graph.n
    for child, parent in enumerate(step.vertex_map):
        out[parent] = phi[child]
    return out


def lift_singleton(step: LiftStep, phi: Coloring) -> Coloring:
    out = embed_coloring(step, phi)
    out[step.info["vertex"]] = step.info["color"]
    return tuple(out)


def lift_identity(step: LiftStep, phi: Coloring) -> Coloring:
    return phi


def invert_perm(perm: Sequence[int]) -> Tuple[int, ...]:
    out = [0] * len(perm)
    for old, new in enumerate(perm, start=1):
        out[new - 1] = old
    return tuple(out)


def eliminate_singletons(inst: Instance) -> Tuple[Instance, ReductionTrace]:
    """Repeatedly delete the lowest-id vertex with a one-color list.

    Deleting vertex v with list {c} removes c from every neighbor list;
    the scan restarts after each deletion.  Empty lists are kept.
    Returns the fixpoint and the singleton-removal steps in order.
    """
    steps: ReductionTrace = []
    cur = inst
    while True:
        v = next(
            (u for u in range(cur.graph.n) if cur.lists[u].bit_count() == 1),
            None,
        )
        if v is None:
            return cur, steps
        color_bit = cur.lists[v]
        color = color_bit.bit_length()
        keep = [u for u in range(cur.graph.n) if u != v]
        sub, remap = induced_subgraph(cur.graph, keep)
        new_lists = []
        for u in keep:
            mask = cur.lists[u]
            if cur.graph.has_edge(u, v):
                mask &= ~color_bit
            new_lists.append(mask)
        steps.append(
            LiftStep(
                "singleton-removal",
                cur,
                tuple(keep),
                {
                    "vertex": v,
                    "color": color,
                    "neighbors": frozenset(cur.graph.adj[v]),
                },
            )
        )
        cur = Instance(sub, cur.k, tuple(new_lists))


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

    def rec(v: int, left: int) -> Iterator[Instance]:
        if left > n - v:
            return
        if v == n:
            yield build()
            return
        yield from rec(v + 1, left)
        if left:
            vbit = 1 << v
            for c in colors_from_mask(lists[v]):
                if class_size[c] >= cap or class_mask[c] & adjm[v]:
                    continue
                vec[v] = c
                class_mask[c] |= vbit
                class_size[c] += 1
                yield from rec(v + 1, left - 1)
                vec[v] = 0
                class_mask[c] &= ~vbit
                class_size[c] -= 1

    for support in range(0, min(n, k * cap) + 1):
        yield from rec(0, support)
