"""The frugality profile and unit propagation.

The stable-class profile stream (frugal_profile) prepares an instance
for frugal coloring, built one support level at a time from the level
before; unit propagation (unit_propagate) is shared by the profile and
goodp3.pivot_refinements.  Both only shrink lists on the input graph,
so what they yield needs no lift.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .instances import Instance, colors_from_mask


def cover_cap(r: int) -> int:
    """Class-size cap used by the refinement profile for parameter r.

    Equals 11 (r+1)^2 (2r+3) C(2r, r-1); large enough that the greedy
    cover argument behind the profile goes through.
    """
    if r < 1:
        raise ValueError(f"packing parameter {r} below 1")
    return 11 * (r + 1) ** 2 * (2 * r + 3) * math.comb(2 * r, r - 1)


def unit_propagate(
    nbrs: Sequence[Sequence[int]], lists: List[int], work: Optional[List[int]] = None
) -> bool:
    """Unit propagation in place: each vertex v in ``work`` has a list of
    at most one color and removes that color from the list of every
    neighbor, walking its neighbor tuple nbrs[v] (Graph.neighbors); a
    neighbor left with one color joins the worklist.  With ``work`` None
    the worklist starts as every vertex whose list has at most one
    color, so the result is the fixpoint of the whole instance.

    Returns False at the first empty list (``lists`` is then partly
    propagated), True at the fixpoint.  The proper list colorings stay
    the same, and a frugal one stays frugal, since lists only shrink.
    """
    if work is None:
        work = [v for v, m in enumerate(lists) if m & (m - 1) == 0]
    while work:
        v = work.pop()
        bit = lists[v]
        if bit == 0:
            return False
        for w in nbrs[v]:
            m = lists[w]
            if m & bit:
                m = lists[w] = m & ~bit
                if m & (m - 1) == 0:
                    work.append(w)
    return True


def frugal_profile(inst: Instance, r: int) -> Iterator[Instance]:
    """Stream of unit-propagated spanning refinements obtained by
    pinning stable classes.

    Each element comes from a tuple (S_1..S_k) of pairwise disjoint
    stable sets with S_i inside the holders of color i and |S_i| capped
    at min((k-1) * cover_cap(r), n): pinned vertices keep exactly their
    class color, and then every one-color list's color is removed from
    its neighbors' lists up to the fixpoint (unit_propagate).  Tuples
    are taken by ascending support (total size of the union), ties in
    ascending lexicographic order of the vertex to class vector
    (unpinned sorts first).  A tuple whose propagation empties a list
    gives no element, a vertex whose list is already one color is never
    pinned (that repeats the element with it unpinned, which comes
    earlier), and a list tuple seen before is not yielded again.  So the
    first element is the propagated instance, and the stream is empty
    when that has an empty list.

    The stream is built one support level at a time.  An entry of level
    s is (propagated lists, one past its last pinned vertex, class
    sizes) for a live tuple of support s, in stream order.  Each child
    of an entry pins one more vertex v at or past that bound, v from
    n-1 down, each color of its list ascending; it is propagated from v
    alone, kept for the next level when no list empties, and yielded at
    once unless its lists were seen, so a support's first element costs
    one entry's children, not a whole level.  This is the order above:
    dropping a vector's last pin gives its parent, and two vectors of
    one support compare as their parents do, or, with one parent, by
    pin position descending and then color ascending.  All of a
    parent's pins lie before v, so its lists are what pinning v sees,
    and propagation is monotone, so an emptied list cuts every
    completion.  At most two levels are held at once.

    Whenever the graph is r-P3-packing-free and the instance has a
    proper list coloring, some element of this stream has a frugal one.

    The cap does not prune in practice: cover_cap(2) = 2,772, so for
    k = 5 and r = 2 it equals n for every n < 11,088, and the stream
    covers every tuple of disjoint stable classes.
    """
    g, k = inst.graph, inst.k
    n = g.n
    cap = min((k - 1) * cover_cap(r), n)
    start = list(inst.lists)
    if not unit_propagate(g.neighbors, start):
        return
    root = tuple(start)
    seen: Set[Tuple[int, ...]] = {root}
    yield Instance(g, k, root)
    level = [(root, 0, (0,) * (k + 1))]
    while level:
        below: List[Tuple[Tuple[int, ...], int, Tuple[int, ...]]] = []
        for lists, first, sizes in level:
            for v in range(n - 1, first - 1, -1):
                mask = lists[v]
                if mask & (mask - 1) == 0:
                    continue
                for c in colors_from_mask(mask):
                    if sizes[c] >= cap:
                        continue
                    child = list(lists)
                    child[v] = 1 << (c - 1)
                    if not unit_propagate(g.neighbors, child, [v]):
                        continue
                    out = tuple(child)
                    grown = sizes[:c] + (sizes[c] + 1,) + sizes[c + 1 :]
                    below.append((out, v + 1, grown))
                    if out not in seen:
                        seen.add(out)
                        yield Instance(g, k, out)
        level = below
