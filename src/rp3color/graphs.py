"""Immutable simple graphs with neighborhood and induced-path machinery.

Vertices are the integers 0..n-1.  Adjacency is one integer bitmask
per vertex (bit w of adj_mask[v] is set when vw is an edge); vertex sets
are bitmasks inside the loops and frozensets only where they are
returned to callers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

VertexSet = FrozenSet[int]
InducedP3 = Tuple[int, int, int]


class GraphError(ValueError):
    """Raised for malformed graph constructions."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A simple undirected graph, immutable after construction.

    Parallel edges are collapsed; loops and out-of-range endpoints are
    rejected.
    """

    __slots__ = ("n", "edges", "adj_mask")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        seen = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop edge ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            seen.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges: Tuple[Tuple[int, int], ...] = tuple(sorted(seen))
        adj = [0] * n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj_mask: Tuple[int, ...] = tuple(adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj_mask[u] >> v) & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def dist_neighborhood(g: Graph, v: int, d: int, closed: bool = False) -> VertexSet:
    """Vertices at distance exactly ``d`` from ``v`` (``closed``: at most ``d``).

    Distance is the number of edges on a shortest path; unreachable
    vertices are at infinite distance and never included.
    """
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    if d < 0:
        raise GraphError(f"negative distance {d}")
    adjm = g.adj_mask
    seen = frontier = 1 << v
    for _ in range(d):
        reach = 0
        for u in bits(frontier):
            reach |= adjm[u]
        frontier = reach & ~seen
        if not frontier:
            break
        seen |= frontier
    return frozenset(bits(seen if closed else frontier))


def set_neighborhood(g: Graph, xs: Iterable[int], closed: bool = False) -> VertexSet:
    """Union of the neighborhoods of ``xs`` (``closed``: include ``xs``)."""
    inside = out = 0
    for x in xs:
        inside |= 1 << x
        out |= g.adj_mask[x]
    return frozenset(bits(out | inside if closed else out & ~inside))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Tuple[Graph, Dict[int, int]]:
    """Induced subgraph on ``keep`` plus the order-preserving old-to-new id map."""
    kept = sorted(set(keep))
    for v in kept:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [
        (remap[u], remap[v])
        for u, v in g.edges
        if u in remap and v in remap
    ]
    return Graph(len(kept), edges), remap


def is_stable_set(g: Graph, xs: Iterable[int]) -> bool:
    """True iff no two vertices of ``xs`` are adjacent."""
    xs = sorted(set(xs))
    mask = sum(1 << v for v in xs)
    return all(g.adj_mask[v] & mask == 0 for v in xs)


def is_clique(g: Graph, xs: Iterable[int]) -> bool:
    """True iff all pairs from ``xs`` are adjacent."""
    xs = sorted(set(xs))
    mask = sum(1 << v for v in xs)
    for v in xs:
        want = mask & ~(1 << v)
        if g.adj_mask[v] & want != want:
            return False
    return True


def induced_p3_stream(g: Graph) -> Iterator[InducedP3]:
    """All induced 3-vertex paths as canonical triples (x1, x2, x3).

    x2 is the middle vertex, x1 < x3, and x1-x3 is a non-edge.  Triples
    are emitted sorted by (x2, x1, x3).
    """
    return _induced_paths(g, 3, (1 << g.n) - 1)


def _p3_middles(g: Graph) -> int:
    """Mask of the vertices whose neighborhood is not a clique.

    Any subset of a clique is a clique, so no other vertex is the middle
    of an induced P3 in any induced subgraph of g.
    """
    adjm = g.adj_mask
    out = 0
    for v in range(g.n):
        nbrs = adjm[v]
        if any((adjm[w] | (1 << w)) & nbrs != nbrs for w in bits(nbrs)):
            out |= 1 << v
    return out


def _induced_paths(
    g: Graph, t: int, alive: int, mids: int = -1
) -> Iterator[Tuple[int, ...]]:
    """Canonical induced t-vertex paths using only vertices in ``alive``.

    For t == 3 the paths are (x1, x2, x3) with middle x2 taken from
    ``mids`` only, sorted by (x2, x1, x3); otherwise paths are emitted
    in ascending lexicographic order of their canonical tuple (first
    endpoint smaller than the last).
    """
    if t < 2:
        raise GraphError(f"path length {t} below 2")
    adjm = g.adj_mask
    if t == 3:
        # the two inner loops inline bits(): this runs at every walk node
        for mid in bits(alive & mids):
            nbrs = adjm[mid] & alive
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                a = low.bit_length() - 1
                ends = nbrs & ~adjm[a]  # later neighbors that a does not see
                while ends:
                    low = ends & -ends
                    ends ^= low
                    yield (a, mid, low.bit_length() - 1)
        return

    path: List[int] = []

    def extend(blocked: int) -> Iterator[Tuple[int, ...]]:
        # blocked: closed neighborhood of path[:-1]; candidates must be
        # adjacent to the last vertex and to nothing before it
        last = path[-1]
        cand = adjm[last] & alive & ~blocked & ~(1 << last)
        for w in bits(cand):
            path.append(w)
            if len(path) == t:
                if path[0] < path[-1]:
                    yield tuple(path)
            else:
                yield from extend(blocked | (1 << last) | adjm[last])
            path.pop()

    for start in bits(alive):
        path.append(start)
        yield from extend(0)
        path.pop()


def anticomplete_packing(
    g: Graph, r: int, t: int
) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Find r pairwise anticomplete induced t-vertex paths, or None.

    Two paths are anticomplete when they are disjoint and no edge joins
    them.  The search is exhaustive, so None certifies that no packing
    exists.  The witness is the first one in depth-first order over the
    canonical path enumeration.
    """
    if r < 1:
        raise GraphError(f"packing size {r} below 1")
    full = (1 << g.n) - 1
    mids = _p3_middles(g) if t == 3 else full

    def closed_mask(p: Tuple[int, ...]) -> int:
        out = 0
        for v in p:
            out |= (1 << v) | g.adj_mask[v]
        return out

    def search(alive: int, need: int) -> Optional[List[Tuple[int, ...]]]:
        if need == 0:
            return []
        for p in _induced_paths(g, t, alive, mids):
            rest = search(alive & ~closed_mask(p), need - 1)
            if rest is not None:
                return [p] + rest
        return None

    found = search(full, r)
    return tuple(found) if found is not None else None
