"""The mutable working instance behind singleton elimination and the
reduction rounds, and the undo records they leave.

A WorkingInstance runs over the vertex ids of its input Instance: the
input graph is shared and never rebuilt, dead vertices are masked out
and lists shrink in place.  Every step appends a LiftStep that holds
its step number and only local undo data: the lists that the vertices
it removes or recolors had before it.  finish() builds the one output
Instance and closes the trace.  The state also keeps list-graph
adjacency, degrees and the lowest-id witnesses the reduction rounds ask
for, each revalidated lazily on lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .graphs import bits, induced_subgraph
from .instances import Instance


@dataclass(frozen=True)
class LiftStep:
    """One reduction or singleton step as a local undo record.

    ``lists`` maps each vertex the lift (re)colors, by its id in the
    trace's input, to its list before the step; a round that only
    shrinks lists saves none.  ``info`` is ``{"step": n}`` for a round
    that fired step n (3 to 11) and ``{}`` for a singleton removal; only
    logs and counters read it, among them the benchmark's round counter,
    which tests ``"step" in info`` and so needs a dict.  Only the last
    record of a trace has ``closing``: the trace's input Instance and
    the input id of every vertex of the trace's output, in output order.
    """

    info: dict = field(default_factory=dict)
    lists: Dict[int, int] = field(default_factory=dict)
    closing: Optional[Tuple[Instance, Tuple[int, ...]]] = None


ReductionTrace = List[LiftStep]


def second_ring(adj: Sequence[int], v: int) -> int:
    """Mask of the vertices at distance exactly two from v in the graph
    with neighbor bitmasks ``adj``."""
    ring = adj[v]
    out = 0
    for w in bits(ring):
        out |= adj[w]
    return out & ~ring & ~(1 << v)


def _first(heap: List[int], ok: Callable[[int], bool]) -> Optional[int]:
    """Smallest heap entry that is still ``ok``; stale entries are dropped."""
    while heap:
        if ok(heap[0]):
            return heap[0]
        heappop(heap)
    return None


class WorkingInstance:
    """A shrinking copy of an instance that records how to undo itself.

    ``potential`` is the number of vertices plus the sum of list sizes
    of the current instance, which every reduction round lowers.
    ``gl[v]`` is the bitmask of the alive neighbors of v whose lists
    meet v's, kept up to date in O(deg) per change.
    """

    def __init__(self, inst: Instance):
        g = inst.graph
        n = g.n
        lists = list(inst.lists)
        self.source = inst
        self.graph = g
        self.alive = bytearray(b"\x01") * n
        self.lists = lists
        self.potential = n + sum(m.bit_count() for m in lists)
        self.trace: ReductionTrace = []
        # ascending id lists are valid heaps
        self._singles = [v for v in range(n) if lists[v].bit_count() == 1]
        self._dirty: Optional[int] = None
        gl = [0] * n
        for u, v in g.edges:
            if lists[u] & lists[v]:
                gl[u] |= 1 << v
                gl[v] |= 1 << u
        self.gl = gl
        self._wide = [v for v in range(n) if gl[v].bit_count() >= 5]
        self._low = [v for v in range(n) if gl[v].bit_count() < lists[v].bit_count()]
        self._big = [v for v in range(n) if lists[v].bit_count() >= 3]
        self._local: List[int] = []
        self._local_ok = bytearray(n)

    # -- changes -------------------------------------------------------

    def record(self, info: dict, lists: Optional[Dict[int, int]] = None) -> None:
        self.trace.append(LiftStep(info, lists or {}))

    def set_list(self, v: int, mask: int) -> None:
        """Shrink the list of alive vertex v to ``mask``."""
        old = self.lists[v]
        if mask == old:
            return
        self._mark(v)
        self.potential -= old.bit_count() - mask.bit_count()
        self.lists[v] = mask
        gl, lists = self.gl, self.lists
        for w in bits(gl[v]):
            if not lists[w] & mask:
                gl[v] ^= 1 << w
                gl[w] ^= 1 << v
                self._changed(w)
        self._changed(v)

    def kill(self, v: int) -> None:
        """Delete alive vertex v, leaving its list in place."""
        self._mark(v)
        self.alive[v] = 0
        self.potential -= 1 + self.lists[v].bit_count()
        gl = self.gl
        for w in bits(gl[v]):
            gl[w] ^= 1 << v
            self._changed(w)
        gl[v] = 0

    def clear_lists(self) -> None:
        """Empty every alive list (a round that proves infeasibility)."""
        for v in range(self.graph.n):
            if self.alive[v]:
                self.set_list(v, 0)

    def _changed(self, v: int) -> None:
        size = self.lists[v].bit_count()
        if size == 1:
            heappush(self._singles, v)
        if self.gl[v].bit_count() < size:
            heappush(self._low, v)

    def _mark(self, v: int) -> None:
        """Flag the closed list-graph 2-ball of v, the only vertices
        whose distance-2 ring a change at v can alter."""
        if self._dirty is None:
            return
        gl = self.gl
        ball = gl[v] | (1 << v)
        for w in bits(gl[v]):
            ball |= gl[w]
        self._dirty |= ball

    # -- lowest-id witnesses -------------------------------------------

    def first_single(self) -> Optional[int]:
        alive, lists = self.alive, self.lists
        return _first(self._singles, lambda v: alive[v] and lists[v].bit_count() == 1)

    def first_big(self) -> Optional[int]:
        """Lowest vertex with a list of size three or more."""
        alive, lists = self.alive, self.lists
        return _first(self._big, lambda v: alive[v] and lists[v].bit_count() >= 3)

    def first_wide(self) -> Optional[int]:
        """Lowest vertex with five or more list-graph neighbors."""
        alive, gl = self.alive, self.gl
        return _first(self._wide, lambda v: alive[v] and gl[v].bit_count() >= 5)

    def first_low(self) -> Optional[int]:
        """Lowest vertex with fewer list-graph neighbors than colors."""
        alive, gl, lists = self.alive, self.gl, self.lists
        return _first(
            self._low, lambda v: alive[v] and gl[v].bit_count() < lists[v].bit_count()
        )

    def first_local(self) -> Optional[int]:
        """Lowest vertex with at most one vertex at list-graph distance two.

        Statuses are evaluated for every vertex on the first call, and
        afterwards only for vertices flagged by a change since the last.
        """
        alive, ok = self.alive, self._local_ok
        todo = range(self.graph.n) if self._dirty is None else bits(self._dirty)
        self._dirty = 0
        for v in todo:
            if alive[v]:
                ok[v] = second_ring(self.gl, v).bit_count() <= 1
                if ok[v]:
                    heappush(self._local, v)
        return _first(self._local, lambda v: alive[v] and ok[v])

    # -- result --------------------------------------------------------

    def finish(self) -> Tuple[Instance, ReductionTrace]:
        """The current instance (renumbered in ascending id order) and
        the trace, whose last record now closes it."""
        trace = self.trace
        if not trace:
            return self.source, trace
        src, alive = self.source, self.alive
        keep = tuple(v for v in range(src.graph.n) if alive[v])
        if len(keep) == src.graph.n:
            graph = src.graph
        else:
            graph, _ = induced_subgraph(src.graph, keep)
        out = Instance(graph, src.k, tuple(self.lists[v] for v in keep))
        trace[-1] = replace(trace[-1], closing=(src, keep))
        return out, trace

    def eliminate_singletons(self) -> None:
        """Delete the lowest-id vertex with a one-color list, removing
        its color from every neighbor list, until none is left."""
        adjm, alive, lists = self.graph.adj_mask, self.alive, self.lists
        while True:
            v = self.first_single()
            if v is None:
                return
            bit = lists[v]
            neighbors = [w for w in bits(adjm[v]) if alive[w]]
            self.record({}, {v: bit})
            self.kill(v)
            for w in neighbors:
                if lists[w] & bit:
                    self.set_list(w, lists[w] & ~bit)
