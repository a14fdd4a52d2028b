"""Detection and elimination of good induced 3-vertex paths.

A triple of color sets is "good" when all three have size at least two
and they pairwise intersect; an induced P3 whose lists form a good
triple is the obstruction that blocks the later reduction stages.  This
module finds the earliest good P3 of an instance, ranking each path
from its own three lists (heaviest triple first, ties by the triple of
bitmasks, both orientations alike), and branches on one such path
(pivot_refinements, which reads the triple off the path's own lists
and yields unit-propagated children); the search in pipeline repeats
that until no good P3 remains.  Each branch step preserves
colorability in both directions (frugal colorings forward, arbitrary
colorings come back through the pinned singletons).  The colorings of
a patch come from oracle.colorings, frugal at the three pivot vertices
only.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from .graphs import InducedP3, bits, local_adjacency
from .instances import Instance
from .oracle import colorings
from .profiles import unit_propagate


def pivot_refinements(
    inst: Instance, pivot: Tuple[int, int, int]
) -> Iterator[Instance]:
    """Unit-propagated refinements that pin a colored patch around one
    good P3.

    The pivot must be an induced P3 of the graph whose lists form a
    good triple (ValueError otherwise: an id out of range, a missing
    path edge, a chord or a triple that is not good); either
    orientation gives the same stream.
    Each output comes from a patch S with pivot inside S inside the
    closed pivot neighborhood, |S| <= 3k, and a proper list coloring psi
    of the patch in which no pivot vertex sees two patch neighbors share
    a color from its list.  Its lists before propagation: patch vertices
    are pinned to their psi color; unpatched pivot neighbors v keep
    rest(v), their list minus the list of every pivot vertex they touch;
    everything else is unchanged.  Those lists are then unit-propagated
    (profiles.unit_propagate), and a child whose propagation empties a
    list is not yielded, so every output is a propagation fixpoint with
    no empty list.

    Patches stream by size then lexicographic order, colorings in
    lexicographic order over the patch (ascending ids), as
    oracle.colorings enumerates them on the induced patch with the
    pivot positions watched and ``allowed`` as the lists; on the pivot,
    ``allowed`` is the input list, so the watched lists are the pivot
    lists.  A frugal coloring of the input restricts to a witness
    patch, so feasibility carries forward; each output only pins list
    colors and propagation keeps every coloring, so any output coloring
    is an input coloring.

    Three skips leave out children with an empty list or a repeated
    list tuple before propagation, and the work behind them; each is
    exact:

    - Empty lists.  An input with an empty list gives none but
      empty-list outputs, so its stream is empty.  A neighbor v with
      rest(v) empty is forced: it is in every patch, and the stream is
      empty when more than 3k - 3 are forced.  The forced set does not
      change which of two equal-size patches is lexicographically
      smaller, so the order is kept.
    - Repeats.  When rest(v) is the single color c, coloring v with c
      inside a patch gives the output of the same patch without v,
      which is smaller and so came earlier; c is not tried inside the
      patch, and v is left out of patches when no other color remains.
      No other two unpropagated outputs coincide.
    - Uncolorable patches.  A patch with no such coloring has no
      colorable superset, so patches are built level by level, one
      level per size: a patch is extended only when it has a coloring,
      by each free vertex after its last one.  Extending a level in
      lexicographic order gives the next level in lexicographic order,
      so this skips patches, never outputs, and keeps the order.

    So the stream is the unpruned one with the first of each list tuple
    kept, mapped through propagation, with the empty results dropped,
    in the same order.  Distinct children may propagate to lists that
    agree but in one-color lists; pipeline's search prunes the later.
    """
    g, k, lists = inst
    adj = g.adj_mask
    x, y, z = pivot
    if not (
        0 <= min(pivot)
        and max(pivot) < g.n
        and x != z
        and (adj[y] >> x) & 1
        and (adj[y] >> z) & 1
        and not (adj[x] >> z) & 1
        and _earliest_good(inst, (pivot,))
    ):
        raise ValueError(f"pivot {pivot} is not a good P3")
    inside = (1 << x) | (1 << y) | (1 << z)
    near = (adj[x] | adj[y] | adj[z]) & ~inside
    # base: the output lists before pinning, every neighbor at rest(v);
    # allowed: the colors each vertex may take inside a patch
    base = list(lists)
    allowed = list(lists)
    forced, free = [], []
    for v in bits(near):
        drop = 0
        for p in pivot:
            if (adj[v] >> p) & 1:
                drop |= lists[p]
        rest = base[v] = lists[v] & ~drop
        if rest == 0:
            forced.append(v)
            continue
        if rest & (rest - 1) == 0:
            allowed[v] &= ~rest
        if allowed[v]:
            free.append(v)
    cap = 3 * k - 3 - len(forced)
    if cap < 0 or 0 in lists:
        return iter(())
    core = pivot + tuple(forced)
    base = tuple(base)

    def stream() -> Iterator[Instance]:
        # the patches of one size, as index tuples into free, in
        # lexicographic order
        level: List[Tuple[int, ...]] = [()]
        while level:
            nxt = []
            for combo in level:
                patch = tuple(sorted(core + tuple(free[i] for i in combo)))
                watch = sum(1 << i for i, v in enumerate(patch) if v in pivot)
                found = False
                for psi in colorings(
                    local_adjacency(g, patch), [allowed[v] for v in patch], watch
                ):
                    found = True
                    child = _pinned_child(inst, base, patch, psi)
                    if child is not None:
                        yield child
                if found and len(combo) < cap:
                    start = combo[-1] + 1 if combo else 0
                    nxt.extend(combo + (i,) for i in range(start, len(free)))
            level = nxt

    return stream()


def _pinned_child(
    inst: Instance,
    base: Tuple[int, ...],
    patch: Tuple[int, ...],
    psi: Tuple[int, ...],
) -> Optional[Instance]:
    """``base`` (every pivot neighbor at its unpatched list) with the
    patch pinned to psi, unit-propagated; None when that empties a
    list."""
    lists = list(base)
    for v, c in zip(patch, psi):
        lists[v] = 1 << (c - 1)
    if not unit_propagate(inst.graph.neighbors, lists):
        return None
    return Instance(inst.graph, inst.k, tuple(lists))


def _earliest_good(cur: Instance, p3s: Tuple[InducedP3, ...]) -> Optional[InducedP3]:
    """The first P3 of ``p3s`` whose lists form a good triple of the
    smallest rank, or None when no good P3 exists.

    The rank of a good triple (a, b, c) over k colors, taken with a <= c
    so that both orientations of a path rank alike, is
    ((3k - |a| - |b| - |c|) << 3k) | (a << 2k) | (b << k) | c: heaviest
    first, ties by the triple of bitmasks.  The scan compares its two
    parts in turn, the weight first, and builds the low part only for a
    path at least as heavy as the best so far.  It stops at three full
    lists (a rank below 1 << 3k), which nothing can beat.  ``p3s`` is
    induced_p3_stream of cur's graph, built once per walk since every
    node of a walk shares its graph."""
    _, k, lists = cur
    k2, full = 2 * k, 3 * k
    weight = low = 0
    pivot = None
    for p3 in p3s:
        x, y, z = p3
        a, b, c = lists[x], lists[y], lists[z]
        # intersections first: at a propagation fixpoint a one-color
        # list shares no color with its neighbors
        if a & b and b & c and a & c and a & (a - 1) and b & (b - 1) and c & (c - 1):
            w = a.bit_count() + b.bit_count() + c.bit_count()
            if w >= weight:
                if a > c:
                    a, c = c, a
                key = (a << k2) | (b << k) | c
                if w > weight or key < low:
                    weight, low, pivot = w, key, p3
                    if w == full:
                        break
    return pivot
