"""Brute-force reference solvers and exact hypergraph statistics.

Everything here is exhaustive and meant for small inputs: these are the
ground-truth oracles the reduction pipeline is tested against, plus the
combinatorial bounds that size the refinement streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .instances import Coloring, Instance, colors_from_mask


def exact_colorings(inst: Instance) -> Iterator[Coloring]:
    """Enumerate proper list colorings in backtracking order.

    Vertices are assigned in ascending id order, colors in ascending
    order within each list.
    """
    g = inst.graph
    n = g.n
    phi: List[int] = [0] * n

    def rec(v: int) -> Iterator[Coloring]:
        if v == n:
            yield tuple(phi)
            return
        for c in colors_from_mask(inst.lists[v]):
            if all(phi[w] != c for w in g.adj[v] if w < v):
                phi[v] = c
                yield from rec(v + 1)
        phi[v] = 0

    return rec(0)


def solve_exact(inst: Instance) -> Optional[Coloring]:
    """Find a proper list coloring by exhaustive backtracking.

    Parameters
    ----------
    inst : Instance
        The instance to color.  Intended for small n; the search is
        exponential.

    Returns
    -------
    tuple of int or None
        The first coloring in vertex-ascending, color-ascending
        backtracking order, or None if the instance has no coloring.
    """
    return next(exact_colorings(inst), None)


def frugal_colorings(inst: Instance) -> Iterator[Coloring]:
    """Enumerate frugal proper list colorings in backtracking order.

    Frugality: no vertex v has two neighbors sharing a color that lies
    in v's own list.  The enumeration order matches exact_colorings.
    """
    return frugal_colorings_of(inst.graph.adj, inst.lists)


def frugal_colorings_of(
    adj: Sequence[Iterable[int]], lists: Sequence[int]
) -> Iterator[Coloring]:
    """frugal_colorings for the graph on 0..len(lists)-1 given by ``adj``."""
    n = len(lists)
    phi: List[int] = [0] * n

    def admissible(v: int, c: int) -> bool:
        bit = 1 << (c - 1)
        counts: Dict[int, int] = {}
        for w in adj[v]:
            if w >= v:
                continue
            if phi[w] == c:
                return False
            # w gains a c-colored neighbor; its count in c must stay <= 1
            if lists[w] & bit and any(x < v and phi[x] == c for x in adj[w]):
                return False
            counts[phi[w]] = counts.get(phi[w], 0) + 1
        for col, cnt in counts.items():
            if cnt >= 2 and (lists[v] >> (col - 1)) & 1:
                return False
        return True

    def rec(v: int) -> Iterator[Coloring]:
        if v == n:
            yield tuple(phi)
            return
        for c in colors_from_mask(lists[v]):
            if admissible(v, c):
                phi[v] = c
                yield from rec(v + 1)
        phi[v] = 0

    return rec(0)


def solve_exact_frugal(inst: Instance) -> Optional[Coloring]:
    """First frugal proper list coloring in backtracking order, or None."""
    return next(frugal_colorings(inst), None)


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


def cover_cap(r: int) -> int:
    """Class-size cap used by the refinement profile for parameter r.

    Equals 11 (r+1)^2 (2r+3) C(2r, r-1); large enough that the greedy
    cover argument behind the profile goes through.
    """
    if r < 1:
        raise ValueError(f"packing parameter {r} below 1")
    return 11 * (r + 1) ** 2 * (2 * r + 3) * math.comb(2 * r, r - 1)
