"""Detection and elimination of good induced 3-vertex paths.

A triple of color sets is "good" when all three have size at least two
and they pairwise intersect; an induced P3 whose lists form a good
triple is the obstruction that blocks the later reduction stages.  This
module orders the good triples, finds the earliest one an instance
realizes, and branches on one such path (pivot_refinements); the search
in pipeline repeats that until no good P3 remains.  Each branch step
preserves colorability in both directions (frugal colorings forward,
arbitrary colorings come back through the pinned singletons).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterator, Optional, Tuple

from .graphs import induced_p3_stream, set_neighborhood
from .instances import (
    GoodTriple,
    Instance,
    colors_from_mask,
    is_good_triple,
    p3_list_type,
    triple_weight,
)


@lru_cache(maxsize=None)
def good_triples(k: int) -> Tuple[GoodTriple, ...]:
    """All good triples over {1..k}, heaviest first.

    Sorted by total size non-increasing, ties in ascending lexicographic
    order of the triple of bitmasks.
    """
    if not (1 <= k <= 8):
        raise ValueError(f"k={k} outside 1..8")
    masks = [m for m in range(1, 1 << k) if m.bit_count() >= 2]
    out = [
        (a, b, c)
        for a in masks
        for b in masks
        for c in masks
        if a & b and a & c and b & c
    ]
    out.sort(key=lambda t: (-triple_weight(t), t))
    return tuple(out)


def _match_orientation(
    inst: Instance, p3: Tuple[int, int, int], triple: GoodTriple
) -> Optional[Tuple[int, int, int]]:
    """Orient ``p3`` so its list type equals ``triple``, or None."""
    t = p3_list_type(inst, p3)
    if t == triple:
        return p3
    if (t[2], t[1], t[0]) == triple:
        return (p3[2], p3[1], p3[0])
    return None


def pivot_refinements(
    inst: Instance, triple: GoodTriple, pivot: Tuple[int, int, int]
) -> Iterator[Instance]:
    """Refinements that pin a colored patch around one good P3.

    The pivot must be an induced P3 whose lists match ``triple`` (either
    orientation; it is oriented to match).  Each output corresponds to a
    patch S with pivot inside S inside the closed pivot neighborhood,
    |S| <= 3k, and a proper list coloring psi of the patch in which no
    pivot vertex sees two patch neighbors share a color from its list.
    Output lists: patch vertices are pinned to their psi color;
    unpatched pivot neighbors drop the triple entry of every pivot
    vertex they touch; everything else is unchanged.

    Patches stream by size then lexicographic order, colorings in
    lexicographic order over the patch (ascending ids).  A frugal
    coloring of the input restricts to a witness patch, so feasibility
    carries forward; each output only pins list colors, so any output
    coloring is an input coloring.
    """
    oriented = _match_orientation(inst, pivot, triple)
    if oriented is None:
        raise ValueError(f"pivot {pivot} does not match the triple")
    g, k = inst.graph, inst.k
    closed = set_neighborhood(g, oriented, closed=True)
    cands = sorted(closed.difference(oriented))

    def stream() -> Iterator[Instance]:
        # for equal sizes, combinations() runs in lexicographic order of
        # the added vertices, which is that of the sorted patches
        for size in range(0, min(3 * k - 3, len(cands)) + 1):
            for combo in combinations(cands, size):
                patch = tuple(sorted(oriented + combo))
                for psi in _patch_colorings(inst, patch, oriented):
                    yield _pinned_child(inst, patch, psi, oriented, triple, closed)

    return stream()


def _patch_colorings(
    inst: Instance, patch: Tuple[int, ...], oriented: Tuple[int, int, int]
) -> Iterator[Tuple[int, ...]]:
    """Proper list colorings of the patch, pivot-frugal, in lex order.

    Depth-first over patch positions with an explicit cursor per
    position: tried[i] is the index of the next list color to try at i.
    """
    g = inst.graph
    size = len(patch)
    options = [colors_from_mask(inst.lists[v]) for v in patch]
    # earlier patch positions adjacent to each patch position
    before = [
        [j for j in range(i) if g.has_edge(v, patch[j])]
        for i, v in enumerate(patch)
    ]
    # pivot indices watching each patch position
    watch = [
        [i for i in range(3) if g.has_edge(oriented[i], v)] for v in patch
    ]
    pivot_lists = [inst.lists[p] for p in oriented]
    # counts[i][c]: patch vertices colored c next to pivot vertex i
    counts = [[0] * (inst.k + 1) for _ in range(3)]
    psi = [0] * size
    tried = [0] * size
    idx = 0
    while idx >= 0:
        if idx == size:
            yield tuple(psi)
        else:
            placed = False
            while not placed and tried[idx] < len(options[idx]):
                c = options[idx][tried[idx]]
                tried[idx] += 1
                bit = 1 << (c - 1)
                placed = all(psi[j] != c for j in before[idx]) and not any(
                    pivot_lists[i] & bit and counts[i][c] for i in watch[idx]
                )
            if placed:
                psi[idx] = c
                for i in watch[idx]:
                    counts[i][c] += 1
                idx += 1
                continue
            tried[idx] = 0
        # step back: free the previous position for its next color
        idx -= 1
        if idx >= 0:
            for i in watch[idx]:
                counts[i][psi[idx]] -= 1


def _pinned_child(
    inst: Instance,
    patch: Tuple[int, ...],
    psi: Tuple[int, ...],
    oriented: Tuple[int, int, int],
    triple: GoodTriple,
    closed: frozenset,
) -> Instance:
    g = inst.graph
    lists = list(inst.lists)
    for v, c in zip(patch, psi):
        lists[v] = 1 << (c - 1)
    for v in closed.difference(patch):
        drop = 0
        for j in range(3):
            if g.has_edge(oriented[j], v):
                drop |= triple[j]
        lists[v] = inst.lists[v] & ~drop
    return Instance(g, inst.k, tuple(lists))


@lru_cache(maxsize=None)
def good_triple_index(k: int) -> Dict[GoodTriple, int]:
    """Position of each good triple in good_triples(k)."""
    return {t: i for i, t in enumerate(good_triples(k))}


def _earliest_good(cur: Instance, index: Dict[GoodTriple, int]):
    """Smallest triple index with a matching P3, plus the first matching
    P3 (stream order) per index; (None, {}) when no good P3 exists."""
    best = None
    first: Dict[int, Tuple[int, int, int]] = {}
    for p3 in induced_p3_stream(cur.graph):
        t = p3_list_type(cur, p3)
        if not is_good_triple(t):
            continue
        for key in (t, (t[2], t[1], t[0])):
            i = index[key]
            if i not in first:
                first[i] = p3
            if best is None or i < best:
                best = i
    return best, first
