"""Detection and elimination of good induced 3-vertex paths.

A triple of color sets is "good" when all three have size at least two
and they pairwise intersect; an induced P3 whose lists form a good
triple is the obstruction that blocks the later reduction stages.  This
module orders the good triples, finds the earliest one an instance
realizes, and branches on one such path (pivot_refinements, which reads
the triple off the path's own lists and yields unit-propagated
children); the search in pipeline repeats that until no good P3
remains.  Each branch step preserves colorability in both directions
(frugal colorings forward, arbitrary colorings come back through the
pinned singletons).  The colorings of a patch come from
oracle.colorings, frugal at the three pivot vertices only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from .graphs import InducedP3, bits, local_adjacency
from .instances import GoodTriple, Instance, is_good_triple, p3_list_type
from .oracle import colorings
from .profiles import unit_propagate


@lru_cache(maxsize=None)
def good_triples(k: int) -> Tuple[GoodTriple, ...]:
    """All good triples over {1..k}, heaviest first.

    Sorted by total size non-increasing, ties in ascending lexicographic
    order of the triple of bitmasks: the nested loops meet each weight's
    triples in that order, so one bucket per weight needs no sort.
    """
    if not (1 <= k <= 8):
        raise ValueError(f"k={k} outside 1..8")
    masks = [m for m in range(1, 1 << k) if m.bit_count() >= 2]
    buckets: List[List[GoodTriple]] = [[] for _ in range(3 * k + 1)]
    for a in masks:
        wa = a.bit_count()
        for b in masks:
            if not a & b:
                continue
            wab = wa + b.bit_count()
            for c in masks:
                if a & c and b & c:
                    buckets[wab + c.bit_count()].append((a, b, c))
    return tuple(t for bucket in reversed(buckets) for t in bucket)


def pivot_refinements(
    inst: Instance, pivot: Tuple[int, int, int]
) -> Iterator[Instance]:
    """Unit-propagated refinements that pin a colored patch around one
    good P3.

    The pivot must be an induced P3 whose lists form a good triple
    (ValueError otherwise); either orientation gives the same stream.
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
    in the same order.  Distinct children may propagate to one list
    tuple; the search in pipeline drops the later ones.
    """
    if not is_good_triple(p3_list_type(inst, pivot)):
        raise ValueError(f"pivot {pivot} is not a good P3")
    g, k, lists = inst.graph, inst.k, inst.lists
    adj = g.adj_mask
    inside = (1 << pivot[0]) | (1 << pivot[1]) | (1 << pivot[2])
    near = (adj[pivot[0]] | adj[pivot[1]] | adj[pivot[2]]) & ~inside
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


@lru_cache(maxsize=None)
def good_triple_index(k: int) -> Dict[GoodTriple, int]:
    """Rank of each good triple: the smaller of its own position and its
    reverse's position in good_triples(k), so both orientations of a
    P3 rank alike."""
    index: Dict[GoodTriple, int] = {}
    for i, t in enumerate(good_triples(k)):
        # a reverse met earlier keeps its own, smaller, position
        index[t] = index.get((t[2], t[1], t[0]), i)
    return index


def _earliest_good(
    cur: Instance, index: Dict[GoodTriple, int], p3s: Tuple[InducedP3, ...]
) -> Tuple[Optional[int], Optional[InducedP3]]:
    """Smallest triple rank with a matching P3, and the first matching
    P3 of ``p3s`` for that rank; (None, None) when no good P3 exists.
    ``p3s`` is induced_p3_stream of cur's graph, built once per walk
    since every node of a walk shares its graph.  The scan stops at
    rank 0, which nothing can beat."""
    best = pivot = None
    lists = cur.lists
    for p3 in p3s:
        i = index.get((lists[p3[0]], lists[p3[1]], lists[p3[2]]))
        if i is not None and (best is None or i < best):
            best, pivot = i, p3
            if best == 0:
                break
    return best, pivot
