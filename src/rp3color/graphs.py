"""Immutable simple graphs, induced subgraphs, and the induced-path
enumeration behind the packing check and the good-P3 search.

Vertices are the integers 0..n-1.  Adjacency is kept twice per vertex,
and the rule is tuples for walks, masks for set algebra: a walk over a
vertex's neighbors reads the ascending tuple neighbors[v], and unions,
intersections, membership tests and complements read the bitmask
adj_mask[v] (bit w set when vw is an edge).  Vertex sets are bitmasks,
walked as such, and paths are tuples of vertex ids.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    rejected.  neighbors[v], an ascending tuple for walks, and
    adj_mask[v], a bitmask for set algebra, hold the same neighbors.
    """

    __slots__ = ("n", "edges", "adj_mask", "neighbors")

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
        self._fill(n, tuple(sorted(seen)))

    def _fill(self, n: int, edges: Tuple[Tuple[int, int], ...]) -> None:
        """Store n and ``edges``, pairs u < v inside 0..n-1, sorted and
        without repeats, and build both adjacency forms from them."""
        self.n = n
        self.edges = edges
        adj = [0] * n
        nbrs: List[List[int]] = [[] for _ in range(n)]
        # sorted edges give each vertex its lower neighbors first, then
        # its higher ones, each run ascending
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.adj_mask: Tuple[int, ...] = tuple(adj)
        self.neighbors: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, nbrs))

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


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Tuple[Graph, Dict[int, int]]:
    """Induced subgraph on ``keep`` plus the order-preserving old-to-new id map.

    The map is increasing, so g's edges that it keeps stay sorted, valid
    and without repeats, and the subgraph is built from them unchecked.
    """
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
    sub = Graph.__new__(Graph)
    sub._fill(len(kept), tuple(edges))
    return sub, remap


def local_adjacency(g: Graph, keep: Sequence[int]) -> List[int]:
    """Neighbor bitmasks of the subgraph of g induced on ``keep``, by
    position in ``keep``: each vertex walks its neighbor tuple."""
    pos = {v: 1 << i for i, v in enumerate(keep)}  # vertex -> position bit
    out = []
    for v in keep:
        local = 0
        for w in g.neighbors[v]:
            local |= pos.get(w, 0)
        out.append(local)
    return out


def co_components(g: Graph) -> List[int]:
    """The vertex sets, as bitmasks, of the connected components of the
    complement of g, lowest vertex first.  A breadth-first search on the
    complement: each vertex reached adds its unreached non-neighbors."""
    adj = g.adj_mask
    rest = (1 << g.n) - 1
    parts = []
    while rest:
        low = rest & -rest
        rest ^= low
        part = frontier = low
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = rest & ~adj[low.bit_length() - 1]
            rest ^= new
            part |= new
            frontier |= new
        parts.append(part)
    return parts


def induced_p3_stream(g: Graph) -> Iterator[InducedP3]:
    """All induced 3-vertex paths as canonical triples (x1, x2, x3).

    x2 is the middle vertex, x1 < x3, and x1-x3 is a non-edge.  Triples
    are emitted sorted by (x2, x1, x3).
    """
    return _induced_paths(g, 3, (1 << g.n) - 1)


def _p3_middles(g: Graph) -> int:
    """Mask of the vertices whose neighborhood is not a clique.

    Any subset of a clique is a clique, so no other vertex is the middle
    of an induced P3 in any induced subgraph of g.  A vertex with fewer
    than two neighbors is skipped; each other vertex walks its neighbor
    tuple and compares closed neighborhoods as bitmasks.  When
    every neighbor of a vertex shares its closed neighborhood, that set
    is a clique component, none of whose members is a middle: it is
    settled at its lowest member, flagged in a bytearray, and the others
    are not tested.
    """
    adjm = g.adj_mask
    out = 0
    settled = bytearray(g.n)
    for v, vs in enumerate(g.neighbors):
        if settled[v] or len(vs) < 2:
            continue
        nbrs = adjm[v]
        closed = nbrs | 1 << v
        for w in vs:
            near = adjm[w] | 1 << w
            if near != closed:
                if near & nbrs != nbrs:
                    out |= 1 << v
                    break
                closed = 0  # not a clique component
        else:
            if closed:
                for w in vs:
                    settled[w] = 1
    return out


def _induced_paths(
    g: Graph, t: int, alive: int, mids: int = -1, extend: bool = False
) -> Iterator[Tuple[int, ...]]:
    """Canonical induced t-vertex paths using only vertices in ``alive``.

    For t == 3 the paths are (x1, x2, x3) with middle x2 taken from
    ``mids`` only, sorted by (x2, x1, x3); with ``extend``, a middle is
    passed over when the vertices of ``alive`` outside its closed
    neighborhood induce no P3 with middle in ``mids``, so that no path
    through it leaves room for another.  Otherwise paths are emitted
    in ascending lexicographic order of their canonical tuple (first
    endpoint smaller than the last).
    """
    if t < 2:
        raise GraphError(f"path length {t} below 2")
    adjm = g.adj_mask
    if t == 3:
        # the loops inline bits(): every packing scan and every walk run this
        cand = alive & mids
        while cand:
            low = cand & -cand
            cand ^= low
            mid = low.bit_length() - 1
            nbrs = adjm[mid] & alive
            if extend:
                left = alive ^ (nbrs | 1 << mid)
                if next(_induced_paths(g, 3, left, mids), None) is None:
                    continue
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

    # depth-first with one candidate mask per path position: cands[i]
    # holds the untried extensions of path[: i + 1], which must be
    # adjacent to path[i] and to nothing before it; closed[i] is the
    # closed neighborhood of path[:i]
    for start in bits(alive):
        path = [start]
        closed = [0]
        cands = [adjm[start] & alive]
        while cands:
            cand = cands[-1]
            if not cand:
                cands.pop()
                closed.pop()
                path.pop()
                continue
            low = cand & -cand
            cands[-1] = cand ^ low
            w = low.bit_length() - 1
            if len(path) + 1 == t:
                if start < w:
                    yield (*path, w)
                continue
            last = path[-1]
            block = closed[-1] | (1 << last) | adjm[last]
            path.append(w)
            closed.append(block)
            cands.append(adjm[w] & alive & ~block)


def anticomplete_packing(
    g: Graph, r: int, t: int
) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Find r pairwise anticomplete induced t-vertex paths, or None.

    Two paths are anticomplete when they are disjoint and no edge joins
    them.  The search is exhaustive, so None certifies that no packing
    exists.  The witness is the first one in depth-first order over the
    canonical path enumeration.  For t == 3 the search skips only
    paths that cannot be extended, so the witness is the same as
    without these cuts.  Middles are the vertices whose neighborhood is
    not a clique.  Every path but the last is drawn only through a
    middle whose non-neighborhood, among the vertices still alive,
    induces a P3; each middle is tested when the enumeration reaches
    it.  A path is extended only when the vertices it leaves induce a
    P3, and at the last level the first such P3 completes the witness.
    """
    if r < 1:
        raise GraphError(f"packing size {r} below 1")
    adjm = g.adj_mask
    full = mids = (1 << g.n) - 1
    if t == 3:
        mids = _p3_middles(g)

    # depth-first over the paths, one stream per packed path: streams[i]
    # yields the paths anticomplete to chosen[:i], inside alive[i]
    chosen: List[Tuple[int, ...]] = []
    alive = [full]
    streams = [_induced_paths(g, t, full, mids, r > 1)]
    while streams:
        p = next(streams[-1], None)
        if p is None:
            streams.pop()
            alive.pop()
            if chosen:
                chosen.pop()
            continue
        if len(streams) == r:
            return (*chosen, p)
        rest = alive[-1]
        for v in p:
            rest &= ~((1 << v) | adjm[v])
        if t == 3:
            q = next(_induced_paths(g, 3, rest, mids), None)
            if q is None:
                continue
            if len(streams) == r - 1:
                return (*chosen, p, q)
        elif not rest:
            continue
        chosen.append(p)
        alive.append(rest)
        streams.append(_induced_paths(g, t, rest, mids, True))
    return None
