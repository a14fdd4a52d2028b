"""Reference helpers that only the tests use.

is_refinement checks that an instance refines another (the contract of
every profile element and good-P3 child).  propagated is unit
propagation written as plain sweeps, and propagated_rows maps a stream
of list tuples through it the way frugal_profile filters its stream.
neighborhood_hypergraph builds the hypergraph whose cover number bounds
the profile's class sizes, hypergraph_stats computes its exact
statistics by exhaustive search, and cover_bound is the bound on the
cover number that those statistics must respect.
"""

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

from rp3color.graphs import Graph, bits
from rp3color.instances import Instance

from instance_reference import is_stable_set


def is_refinement(
    parent: Instance, child: Instance, mapping: Dict[int, int]
) -> Tuple[bool, bool]:
    """Whether ``child`` refines ``parent`` under the child-to-parent ``mapping``.

    A refinement keeps an induced subgraph (exactly the parent edges
    among mapped vertices) and only shrinks lists.  Returns
    (is_refinement, is_spanning); spanning means the mapping is onto the
    parent's vertex set.
    """
    if child.k != parent.k:
        return False, False
    image = set(mapping.values())
    if len(mapping) != child.graph.n or len(image) != child.graph.n:
        return False, False
    if any(not (0 <= v < parent.graph.n) for v in image):
        return False, False
    for u in range(child.graph.n):
        if child.lists[u] & ~parent.lists[mapping[u]]:
            return False, False
        for v in range(u + 1, child.graph.n):
            if child.graph.has_edge(u, v) != parent.graph.has_edge(
                mapping[u], mapping[v]
            ):
                return False, False
    return True, len(image) == parent.graph.n


def propagated(inst: Instance) -> Optional[Instance]:
    """``inst`` with each one-color list's color taken out of its
    neighbors' lists, sweep after sweep until nothing changes; None once
    a list is empty."""
    g, lists = inst.graph, list(inst.lists)
    changed = True
    while changed:
        if 0 in lists:
            return None
        changed = False
        for v, w in permutations(range(g.n), 2):
            if lists[v].bit_count() == 1 and g.has_edge(v, w) and lists[w] & lists[v]:
                lists[w] &= ~lists[v]
                changed = True
    return Instance(g, inst.k, tuple(lists))


def propagated_rows(
    inst: Instance, rows: Iterable[Tuple[int, ...]]
) -> Iterator[Tuple[int, ...]]:
    """Each row (a list tuple on inst's graph) propagated, rows that get
    an empty list dropped, and only the first occurrence of each result
    kept, in order."""
    seen = set()
    for row in rows:
        p = propagated(Instance(inst.graph, inst.k, tuple(row)))
        if p is not None and p.lists not in seen:
            seen.add(p.lists)
            yield p.lists


def neighborhood_hypergraph(g: Graph, a_side: Sequence[int], b_side: Sequence[int]):
    """Hypergraph on ``a_side`` whose edges are the a-neighborhoods of ``b_side``.

    Requires the two sides to be disjoint stable sets and every b-vertex
    to have at least two neighbors in ``a_side``.  Vertices of the
    hypergraph are ``a_side`` relabelled ascending; duplicate edges stay.
    """
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
        nbrs = frozenset(remap[w] for w in bits(g.adj_mask[b]) if w in remap)
        if len(nbrs) < 2:
            raise ValueError(f"vertex {b} has fewer than 2 neighbors across")
        edges.append(nbrs)
    return Hypergraph(len(a_sorted), tuple(edges))


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph on vertices 0..n-1; duplicate edges are kept."""

    n: int
    edges: Tuple[FrozenSet[int], ...]

    def __post_init__(self):
        for e in self.edges:
            if not e:
                raise ValueError("empty hyperedge")
            for v in e:
                if not (0 <= v < self.n):
                    raise ValueError(f"hyperedge vertex {v} out of range")


def _max_matching(h: Hypergraph) -> int:
    edges = h.edges

    def rec(i: int, used: FrozenSet[int]) -> int:
        if i == len(edges):
            return 0
        best = rec(i + 1, used)
        if not (edges[i] & used):
            best = max(best, 1 + rec(i + 1, used | edges[i]))
        return best

    return rec(0, frozenset())


def _min_cover(h: Hypergraph) -> int:
    edges = list(h.edges)
    best = h.n  # all vertices always cover

    def rec(chosen: FrozenSet[int], size: int):
        nonlocal best
        if size >= best:
            return
        uncovered = next((e for e in edges if not (e & chosen)), None)
        if uncovered is None:
            best = size
            return
        # branch on each vertex of the first uncovered edge
        for v in sorted(uncovered):
            rec(chosen | {v}, size + 1)

    rec(frozenset(), 0)
    return best


def _max_cluster(h: Hypergraph) -> int:
    """Largest k >= 2 admitting edges e_1..e_k with a private common
    vertex for every pair (a vertex of e_i and e_j in no other chosen
    edge); 2 when the edges are pairwise disjoint."""
    idxs = range(len(h.edges))
    for size in range(len(h.edges), 1, -1):
        for combo in combinations(idxs, size):
            ok = True
            for a, b in combinations(combo, 2):
                shared = h.edges[a] & h.edges[b]
                if not shared:
                    ok = False
                    break
                rest = frozenset().union(
                    *(h.edges[c] for c in combo if c != a and c != b)
                ) if size > 2 else frozenset()
                if not (shared - rest):
                    ok = False
                    break
            if ok:
                return size
    return 2


def hypergraph_stats(h: Hypergraph) -> Tuple[int, int, int]:
    """Exact (max matching, min vertex cover, max cluster size).

    The cluster statistic is the largest family of edges in which every
    pair shares a vertex private to that pair; families of pairwise
    disjoint edges fall back to 2.
    """
    return _max_matching(h), _min_cover(h), _max_cluster(h)


def cover_bound(cluster: int, matching: int) -> int:
    """Upper bound on the minimum vertex cover from (cluster, matching).

    Any hypergraph with max cluster size L and max matching size v has a
    vertex cover of size at most 11 L^2 (L + v + 3) C(L + v, v)^2.
    """
    return (
        11
        * cluster**2
        * (cluster + matching + 3)
        * math.comb(cluster + matching, matching) ** 2
    )
