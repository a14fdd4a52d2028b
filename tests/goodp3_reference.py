"""Reference good-P3 elimination that the solver's pruned walk is checked against.

eliminate_type removes one list type at a time, literal_fold folds it
over every good triple heaviest-first, and eliminate_good_p3 reaches the
same leaves in the same order by expanding only the earliest good triple
an instance realizes.  None of them prunes: they yield every leaf,
including repeats and leaves with an empty list, so they branch through
eager_pivot_refinements: every child of one pivot built up front from
the sorted patch list, without the skips and the unit propagation of
pivot_refinements, and oriented against the triple it is given.  Its
patch colorings are the exact colorings of each patch filtered by a
pivot-frugality check written out here, so they share no frugality
code with the solver's watched enumeration.
"""

from itertools import combinations
from typing import Iterator, List, Optional, Tuple

from rp3color.goodp3 import _earliest_good, good_triple_index, good_triples
from rp3color.graphs import induced_p3_stream, induced_subgraph
from rp3color.instances import (
    Coloring,
    GoodTriple,
    Instance,
    is_good_triple,
    p3_list_type,
)
from rp3color.oracle import exact_colorings


def triple_weight(triple: GoodTriple) -> int:
    return sum(m.bit_count() for m in triple)


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


def find_type_p3(
    inst: Instance, triple: GoodTriple
) -> Optional[Tuple[int, int, int]]:
    """First induced P3 (stream order) whose lists match ``triple`` in
    either orientation."""
    for p3 in induced_p3_stream(inst.graph):
        if _match_orientation(inst, p3, triple) is not None:
            return p3
    return None


def count_anticomplete_of_type(inst: Instance, triple: GoodTriple) -> int:
    """Maximum number of pairwise anticomplete induced P3s of this list type."""
    g = inst.graph
    matches = [
        p3
        for p3 in induced_p3_stream(g)
        if _match_orientation(inst, p3, triple) is not None
    ]
    vmask = []
    cmask = []
    for p3 in matches:
        vm = sum(1 << v for v in p3)
        vmask.append(vm)
        cm = vm
        for v in p3:
            cm |= g.adj_mask[v]
        cmask.append(cm)
    best = 0

    def rec(i: int, blocked: int, size: int):
        nonlocal best
        best = max(best, size)
        for j in range(i, len(matches)):
            if vmask[j] & blocked == 0:
                rec(j + 1, blocked | cmask[j], size + 1)

    rec(0, 0, 0)
    return best


def eliminate_type(inst: Instance, triple: GoodTriple) -> Iterator[Instance]:
    """Refinements of ``inst`` in which no induced P3 has this list type.

    Requires that no good P3 of the instance weighs more than the
    triple (checked; ValueError otherwise).  Works depth-first: while a
    matching P3 exists, expand the first one (stream order) through
    eager_pivot_refinements and recurse; the count of anticomplete matching
    P3s strictly drops at each level, so the recursion terminates.
    """
    if not is_good_triple(triple):
        raise ValueError(f"triple {triple} is not good")
    bound = triple_weight(triple)
    for p3 in induced_p3_stream(inst.graph):
        t = p3_list_type(inst, p3)
        if is_good_triple(t) and triple_weight(t) > bound:
            raise ValueError(
                f"good P3 {p3} has weight {triple_weight(t)}, above {bound}"
            )
    return _type_leaves(inst, triple)


def _type_leaves(cur: Instance, triple: GoodTriple) -> Iterator[Instance]:
    pivot = find_type_p3(cur, triple)
    if pivot is None:
        yield cur
        return
    for child in eager_pivot_refinements(cur, triple, pivot):
        yield from _type_leaves(child, triple)


def literal_fold(inst: Instance):
    """eliminate_type applied for every good triple, heaviest first."""
    stream = [inst]
    for gamma in good_triples(inst.k):
        stream = [
            child for cur in stream for child in eliminate_type(cur, gamma)
        ]
    return stream


def eliminate_good_p3(inst: Instance, r: int) -> Iterator[Instance]:
    """Refinements of ``inst`` with no good P3 at all.

    Equals literal_fold: triples with no matching P3 pass instances
    through unchanged, so expanding the earliest realized triple gives
    the same sequence.  The parameter r names the packing bound under
    which the stream stays small; the enumeration is exact for any input.
    """
    if r < 1:
        raise ValueError(f"packing parameter {r} below 1")
    return _good_leaves(inst)


def _good_leaves(cur: Instance) -> Iterator[Instance]:
    best, pivot = _earliest_good(cur, good_triple_index(cur.k))
    if best is None:
        yield cur
        return
    gamma = good_triples(cur.k)[best]
    for child in eager_pivot_refinements(cur, gamma, pivot):
        yield from _good_leaves(child)


def eager_pivot_refinements(
    inst: Instance, triple: GoodTriple, pivot: Tuple[int, int, int]
) -> List[Instance]:
    """Every child of the pivot, empty-list children and repeats
    included, from the patch list sorted by (size, patch)."""
    oriented = _match_orientation(inst, pivot, triple)
    if oriented is None:
        raise ValueError(f"pivot {pivot} does not match the triple")
    g, k = inst.graph, inst.k
    closed = set(oriented)
    for p in oriented:
        closed |= {w for w in range(g.n) if g.has_edge(p, w)}
    cands = sorted(closed - set(oriented))
    patches = []
    for size in range(0, min(3 * k - 3, len(cands)) + 1):
        for combo in combinations(cands, size):
            patches.append(tuple(sorted(set(oriented) | set(combo))))
    patches.sort(key=lambda s: (len(s), s))
    out = []
    for patch in patches:
        for psi in pivot_frugal_colorings(inst, patch, oriented):
            lists = list(inst.lists)
            for v, c in zip(patch, psi):
                lists[v] = 1 << (c - 1)
            for v in closed - set(patch):
                drop = 0
                for j in range(3):
                    if g.has_edge(oriented[j], v):
                        drop |= triple[j]
                lists[v] = inst.lists[v] & ~drop
            out.append(Instance(g, k, tuple(lists)))
    return out


def pivot_frugal_colorings(
    inst: Instance, patch: Tuple[int, ...], pivot: Tuple[int, int, int]
) -> Iterator[Coloring]:
    """Proper list colorings of the sorted patch, by patch position in
    lexicographic order, in which no pivot vertex has two patch
    neighbors colored with one color of its list: every proper coloring
    of the induced patch, filtered."""
    sub, _ = induced_subgraph(inst.graph, patch)
    local = Instance(sub, inst.k, tuple(inst.lists[v] for v in patch))
    for psi in exact_colorings(local):
        color = dict(zip(patch, psi))
        if all(
            sum(1 for w in patch if inst.graph.has_edge(p, w) and color[w] == c) <= 1
            for p in pivot
            for c in inst.list_of(p)
        ):
            yield psi
