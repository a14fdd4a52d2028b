"""Brute-force list-coloring enumeration.

One backtracking body, ``colorings``, enumerates the proper list
colorings of a graph given by neighbor bitmasks in lexicographic order,
frugal at a chosen set of watched vertices.  With no vertex watched or
every vertex watched it is the exhaustive, exponential oracle the
reduction pipeline is tested against and that the `oracle` command
runs.  The reducer watches every vertex of its small step-5 balls, and
goodp3.pivot_refinements watches the three pivot vertices of a patch.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .graphs import bits
from .instances import Coloring, Instance, colors_from_mask


def exact_colorings(inst: Instance) -> Iterator[Coloring]:
    """Enumerate proper list colorings in backtracking order.

    Vertices are assigned in ascending id order, colors in ascending
    order within each list.
    """
    return colorings(inst.graph.adj_mask, inst.lists, watch=0)


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
    return colorings(inst.graph.adj_mask, inst.lists, watch=(1 << inst.graph.n) - 1)


def colorings(
    adj: Sequence[int], lists: Sequence[int], watch: int
) -> Iterator[Coloring]:
    """Proper list colorings of the graph on 0..len(lists)-1 whose vertex
    v has the neighbor bitmask ``adj[v]``, vertices ascending, colors
    ascending, frugal at the vertices in the bitmask ``watch`` (a subset
    of the positions): no watched vertex has two neighbors colored with
    one color of its list.  Checking that each time a vertex is colored
    rejects a partial coloring exactly when it breaks the condition.

    Depth-first with an explicit cursor per vertex, so the depth is not
    bounded by the interpreter's recursion limit: tried[v] is the index
    of the next list color to try at v, holders[c] the mask of the
    vertices before the current one colored c and sees[c] the union of
    their neighbor masks, so a watched neighbor of v that lists c sees a
    c exactly when it is in sees[c].  saved[v] is sees[phi[v]] from
    before v took its color, restored when v gives it back.
    """
    n = len(lists)
    options = [colors_from_mask(m) for m in lists]
    earlier = [adj[v] & ((1 << v) - 1) for v in range(n)]
    top = max((m.bit_length() for m in lists), default=0)
    # listed[c]: the watched vertices whose list holds color c
    listed = [0] * (top + 1)
    for v in bits(watch):
        for c in options[v]:
            listed[c] |= 1 << v
    holders = [0] * (top + 1)
    sees = [0] * (top + 1)
    saved = [0] * n
    phi = [0] * n
    tried = [0] * n
    v = 0
    while v >= 0:
        if v == n:
            yield tuple(phi)
            v -= 1
            continue
        if phi[v]:  # back at v: take its color away before the next one
            holders[phi[v]] ^= 1 << v
            sees[phi[v]] = saved[v]
            phi[v] = 0
        while tried[v] < len(options[v]):
            c = options[v][tried[v]]
            tried[v] += 1
            if earlier[v] & holders[c]:
                continue
            # frugal: no watched neighbor listing c already sees a c
            if adj[v] & listed[c] & sees[c]:
                continue
            phi[v] = c
            holders[c] |= 1 << v
            saved[v] = sees[c]
            sees[c] |= adj[v]
            break
        if phi[v]:
            v += 1
        else:
            tried[v] = 0
            v -= 1


def solve_exact_frugal(inst: Instance) -> Optional[Coloring]:
    """First frugal proper list coloring in backtracking order, or None."""
    return next(frugal_colorings(inst), None)
