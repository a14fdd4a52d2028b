"""Brute-force reference solvers.

Exhaustive backtracking over list colorings, plain or frugal, meant for
small inputs: these are the ground-truth oracles the reduction pipeline
is tested against and that the `oracle` command runs.  The reducer also
uses the frugal enumeration on the small balls of step 5.
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
    return _colorings(inst.graph.adj_mask, inst.lists, frugal=False)


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
    return frugal_colorings_of(inst.graph.adj_mask, inst.lists)


def frugal_colorings_of(adj: Sequence[int], lists: Sequence[int]) -> Iterator[Coloring]:
    """frugal_colorings for the graph on 0..len(lists)-1 whose vertex v
    has the neighbor bitmask ``adj[v]``."""
    return _colorings(adj, lists, frugal=True)


def _colorings(
    adj: Sequence[int], lists: Sequence[int], frugal: bool
) -> Iterator[Coloring]:
    """Proper (``frugal``: frugal) list colorings of the graph given by
    neighbor bitmasks, vertices ascending, colors ascending.

    Depth-first with an explicit cursor per vertex, so the depth is not
    bounded by the interpreter's recursion limit: tried[v] is the index
    of the next list color to try at v, and holders[c] the mask of the
    vertices before the current one colored c.
    """
    n = len(lists)
    options = [colors_from_mask(m) for m in lists]
    earlier = [adj[v] & ((1 << v) - 1) for v in range(n)]
    top = max((m.bit_length() for m in lists), default=0)
    # listed[c]: the vertices whose list holds color c
    listed = [0] * (top + 1)
    for v, cs in enumerate(options):
        for c in cs:
            listed[c] |= 1 << v
    holders = [0] * (top + 1)
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
            phi[v] = 0
        before = earlier[v]
        while tried[v] < len(options[v]):
            c = options[v][tried[v]]
            tried[v] += 1
            if before & holders[c]:
                continue
            # frugal: no earlier neighbor listing c already sees a c, and
            # v sees none of its own listed colors twice
            if frugal and (
                any(adj[w] & holders[c] for w in bits(before & listed[c]))
                or any((before & holders[d]).bit_count() > 1 for d in options[v])
            ):
                continue
            phi[v] = c
            holders[c] |= 1 << v
            break
        if phi[v]:
            v += 1
        else:
            tried[v] = 0
            v -= 1


def solve_exact_frugal(inst: Instance) -> Optional[Coloring]:
    """First frugal proper list coloring in backtracking order, or None."""
    return next(frugal_colorings(inst), None)
