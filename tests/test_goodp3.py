import itertools
import random
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings

from rp3color import (
    Graph,
    Instance,
    candidate_stream,
    colors_from_mask,
    pivot_refinements,
    solve_exact_frugal,
)
from rp3color import goodp3
from rp3color.graphs import induced_p3_stream
from rp3color.oracle import colorings

import builders
from builders import instances
from goodp3_reference import (
    count_anticomplete_of_type,
    eager_pivot_refinements,
    earliest_good_p3,
    eliminate_good_p3,
    eliminate_type,
    find_type_p3,
    good_order,
    good_rank,
    literal_fold,
)
from instance_reference import find_good_p3, p3_list_type
from profile_reference import is_refinement, propagated

GAMMA = (0b011, 0b110, 0b101)  # ({1,2},{2,3},{1,3})


mk = partial(builders.mk, k=3)


def good_direct(triple):
    a, b, c = triple
    sizes = all(bin(x).count("1") >= 2 for x in triple)
    return bool(sizes and a & b and b & c and a & c)


def two_paths(k, first, second):
    # two disjoint paths, 0-1-2 and 3-4-5, carrying the two triples
    return Instance(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), k, first + second)


def test_good_triples_small_k():
    assert good_order(1) == ()
    assert good_order(2) == ((0b11, 0b11, 0b11),)
    path = Graph(3, [(0, 1), (1, 2)])
    for k in (1, 2):
        for t in itertools.product(range(1 << k), repeat=3):
            got = goodp3._earliest_good(Instance(path, k, t), ((0, 1, 2),))
            assert got == ((0, 1, 2) if t == (0b11,) * 3 else None)


def test_good_triples_k5_against_brute_force():
    got = good_order(5)
    assert got[0] == (0b11111, 0b11111, 0b11111)
    expected = [t for t in itertools.product(range(32), repeat=3) if good_direct(t)]
    assert sorted(got) == expected
    weights = [sum(bin(x).count("1") for x in t) for t in got]
    assert weights == sorted(weights, reverse=True)
    for (wa, ta), (wb, tb) in zip(zip(weights, got), zip(weights[1:], got[1:])):
        if wa == wb:
            assert ta < tb
    # _earliest_good finds exactly the good triples, ...
    path = Graph(3, [(0, 1), (1, 2)])
    good = set(expected)
    for t in itertools.product(range(32), repeat=3):
        found = goodp3._earliest_good(Instance(path, 5, t), ((0, 1, 2),))
        assert (found is not None) == (t in good)
    # ... and ranks them as the reference does, both orientations of a
    # triple sharing the rank of the earlier one: of two triples
    # consecutive by rank, the later one scanned first wins only on a tie
    rank = good_rank(5)
    by_rank = sorted(got, key=rank.get)
    for ta, tb in zip(by_rank, by_rank[1:]):
        want = (0, 1, 2) if rank[tb] == rank[ta] else (3, 4, 5)
        assert goodp3._earliest_good(two_paths(5, tb, ta), ((0, 1, 2), (3, 4, 5))) == want


def test_earliest_good_matches_the_reference_rank():
    # disjoint paths, so the induced P3s are exactly the drawn ones, each
    # with lists from a small pool (ties) read in a random orientation;
    # the scan gets the paths shuffled, sometimes with a full-list path
    # last, after good ones
    rng = random.Random(2929)
    ties = reversed_ties = full_last = 0
    for k in range(2, 7):
        full = (1 << k) - 1
        rank = good_rank(k)
        for _ in range(300):
            pool = [
                tuple(rng.choice((full, rng.randrange(1 << k))) for _ in range(3))
                for _ in range(rng.randint(1, 3))
            ]
            lists = []
            for _ in range(rng.randint(1, 6)):
                lists += rng.choice(pool)
            p3s = [(v, v + 1, v + 2)[:: rng.choice((1, -1))] for v in range(0, len(lists), 3)]
            rng.shuffle(p3s)
            if rng.random() < 0.3:
                p3s.append((len(lists), len(lists) + 1, len(lists) + 2))
                lists += [full] * 3
            edges = [e for x, y, z in p3s for e in ((x, y), (y, z))]
            inst = Instance(Graph(len(lists), edges), k, tuple(lists))
            assert sorted(induced_p3_stream(inst.graph)) == sorted(min(p, p[::-1]) for p in p3s)
            want = earliest_good_p3(inst, p3s)
            assert goodp3._earliest_good(inst, tuple(p3s)) == (want[1] if want else None)
            if want is None:
                continue
            tied = [t for t in map(p3_list_type, [inst] * len(p3s), p3s) if rank.get(t) == want[0]]
            ties += len(tied) > 1
            reversed_ties += len(set(tied)) > 1
            full_last += want[1] == p3s[-1] and tied[0] == (full,) * 3 and any(
                p3_list_type(inst, p) in rank for p in p3s[:-1]
            )
    assert ties >= 400 and reversed_ties >= 100 and full_last >= 100


def test_candidate_stream_memory_is_bounded_in_k():
    # a path with full lists at k = 7 branches on its only P3 at once;
    # detection keeps no table of good triples, so it allocates little
    inst = Instance(Graph(3, [(0, 1), (1, 2)]), 7, (0b1111111,) * 3)
    tracemalloc.start()
    try:
        next(candidate_stream(inst, 2), None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_count_anticomplete_of_type():
    bare = mk(3, [(0, 1), (1, 2)], [{1, 2}, {2, 3}, {1, 3}])
    assert count_anticomplete_of_type(bare, GAMMA) == 1

    wrong_lists = mk(3, [(0, 1), (1, 2)], [{1, 2}, {1, 2}, {1, 2}])
    assert count_anticomplete_of_type(wrong_lists, GAMMA) == 0

    double = mk(
        6,
        [(0, 1), (1, 2), (3, 4), (4, 5)],
        [{1, 2}, {2, 3}, {1, 3}] * 2,
    )
    assert count_anticomplete_of_type(double, GAMMA) == 2


def test_find_type_p3_orientation():
    flipped = mk(3, [(0, 1), (1, 2)], [{1, 3}, {2, 3}, {1, 2}])
    assert find_type_p3(flipped, GAMMA) == (0, 1, 2)


def test_pivot_refinements_isolated_pivot():
    bare = mk(3, [(0, 1), (1, 2)], [{1, 2}, {2, 3}, {1, 3}])
    got = [tuple(colors_from_mask(e.lists[v]) for v in range(3)) for e in
           pivot_refinements(bare, (0, 1, 2))]
    assert got == [
        ((1,), (2,), (1,)),
        ((1,), (2,), (3,)),
        ((1,), (3,), (1,)),
        ((2,), (3,), (1,)),
    ]


def test_pivot_refinements_strips_outside_neighbor():
    inst = mk(
        4,
        [(0, 1), (1, 2), (0, 3)],
        [{1, 2}, {2, 3}, {1, 3}, {1, 2, 3}],
    )
    first = next(iter(pivot_refinements(inst, (0, 1, 2))))
    assert colors_from_mask(first.lists[3]) == (3,)
    assert colors_from_mask(first.lists[0]) == (1,)


def test_pivot_refinements_rejects_non_good_pivot():
    full = [{1, 2, 3, 4, 5}] * 3
    cases = [
        # the lists {1,2}, {1,2}, {3} do not pairwise intersect
        (mk(3, [(0, 1), (1, 2)], [{1, 2}, {1, 2}, {3}]), (0, 1, 2)),
        # an id out of range, either end
        (mk(3, [(0, 1), (1, 2)], full, k=5), (0, 1, 3)),
        (mk(3, [(0, 1), (1, 2)], full, k=5), (-1, 1, 2)),
        # a missing path edge
        (mk(3, [(0, 1)], full, k=5), (0, 1, 2)),
        # a chord: a triangle
        (mk(3, [(0, 1), (1, 2), (0, 2)], full, k=5), (0, 1, 2)),
        # one vertex at both ends
        (mk(3, [(0, 1), (1, 2)], full, k=5), (0, 1, 0)),
    ]
    for inst, pivot in cases:
        with pytest.raises(ValueError, match="not a good P3"):
            pivot_refinements(inst, pivot)


@settings(max_examples=30, deadline=None)
@given(instances(max_n=5))
def test_pivot_outputs_clear_the_pivot_zone(inst):
    pivot = find_type_p3(inst, GAMMA)
    if pivot is None:
        return
    g = inst.graph
    zone = set(pivot)
    for x in pivot:
        zone |= {w for w in range(g.n) if g.has_edge(x, w)}
    for child in itertools.islice(pivot_refinements(inst, pivot), 60):
        again = find_type_p3(child, GAMMA)
        while again is not None:
            assert not (set(again) & zone)
            break


def test_eliminate_type_base_case():
    inst = mk(3, [(0, 1), (1, 2)], [{1, 2}, {1, 2}, {1, 2}])
    assert list(eliminate_type(inst, GAMMA)) == [inst]


def test_eliminate_type_weight_precondition():
    heavy = mk(3, [(0, 1), (1, 2)], [{1, 2, 3}, {1, 2, 3}, {1, 2, 3}])
    light = (0b011, 0b011, 0b011)
    with pytest.raises(ValueError, match="weight"):
        eliminate_type(heavy, light)


@settings(max_examples=25, deadline=None)
@given(instances(max_n=4))
def test_eliminate_type_outputs_are_type_free(inst):
    heaviest = good_order(inst.k)[0] if good_order(inst.k) else None
    if heaviest is None:
        return
    for child in itertools.islice(eliminate_type(inst, heaviest), 80):
        assert find_type_p3(child, heaviest) is None


def test_eliminate_type_shrinks_packing():
    inst = mk(3, [(0, 1), (1, 2)], [{1, 2}, {2, 3}, {1, 3}])
    before = count_anticomplete_of_type(inst, GAMMA)
    for child in pivot_refinements(inst, (0, 1, 2)):
        assert count_anticomplete_of_type(child, GAMMA) < before


def test_eliminate_good_p3_trivial_cases():
    quiet = mk(3, [(0, 1), (1, 2)], [{1, 2}, {3, 4}, {1, 2}], k=5)
    assert list(eliminate_good_p3(quiet, 2)) == [quiet]

    empty = mk(0, [], [])
    assert list(eliminate_good_p3(empty, 2)) == [empty]

    with pytest.raises(ValueError):
        eliminate_good_p3(quiet, 0)


def test_eliminate_good_p3_prunes_unfrugalizable_input():
    # the middle vertex must see both ends in a listed color, so no
    # frugal coloring exists and the stream is empty
    stuck = mk(3, [(0, 1), (1, 2)], [{1, 2}, {1, 2}, {1, 2}])
    assert solve_exact_frugal(stuck) is None
    assert list(eliminate_good_p3(stuck, 2)) == []


def test_eliminate_good_p3_on_the_triangle_of_pairs():
    inst = mk(3, [(0, 1), (1, 2)], [{1, 2}, {2, 3}, {1, 3}])
    outs = list(eliminate_good_p3(inst, 2))
    assert outs
    assert all(find_good_p3(e) is None for e in outs)
    assert any(solve_exact_frugal(e) is not None for e in outs)


@settings(max_examples=15, deadline=None)
@given(instances(max_n=4))
def test_eliminate_good_p3_equals_literal_fold(inst):
    got = list(eliminate_good_p3(inst, 2))
    assert got == literal_fold(inst)


@settings(max_examples=20, deadline=None)
@given(instances(max_n=4))
def test_eliminate_good_p3_soundness_and_completeness(inst):
    ident = {v: v for v in range(inst.graph.n)}
    outs = list(eliminate_good_p3(inst, 2))
    for child in outs:
        assert is_refinement(inst, child, ident) == (True, True)
        assert find_good_p3(child) is None
    if solve_exact_frugal(inst) is not None:
        assert any(solve_exact_frugal(e) is not None for e in outs)


def test_pivot_refinements_match_eager_sorted_patches():
    # the lazy stream is the eager one without the children the search
    # discards (those with an empty list, and repeats of an earlier list
    # tuple, the first kept), then propagated, dropping empty results;
    # either orientation of the pivot gives the same stream
    rng = random.Random(5151)
    compared = kept = 0
    for _ in range(300):
        k = rng.choice([3, 4, 5])
        n = rng.randint(3, 9)
        p = rng.choice([0.3, 0.5, 0.7])
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        lists = tuple(rng.randrange(1 << k) for _ in range(n))
        inst = Instance(Graph(n, edges), k, lists)
        for triple in good_order(k):
            pivot = find_type_p3(inst, triple)
            if pivot is not None:
                break
        else:
            continue
        eager = eager_pivot_refinements(inst, triple, pivot)
        want, seen = [], set()
        for child in eager:
            if 0 not in child.lists and child.lists not in seen:
                seen.add(child.lists)
                want.append(child)
        want = [p for p in map(propagated, want) if p is not None]
        got = list(pivot_refinements(inst, pivot))
        assert got == want
        assert list(pivot_refinements(inst, pivot[::-1])) == got
        compared += len(eager)
        kept += len(want)
    assert compared >= 5000
    assert kept >= 1000


def test_pivot_refinements_cuts_extensions_of_uncolorable_patches(monkeypatch):
    # pivot 0-1-2 with lists {1,2}, {2,3}, {2,3}; vertex 3 sees only the
    # middle and keeps {4} outside a patch, so inside one it may take
    # only 2: the middle is then 3, the end 2, and the middle sees two
    # neighbors colored 2 from its list.  Every patch holding 3 has no
    # pivot-frugal coloring.  Vertices 4-6 see only 0 and always color.
    inst = mk(
        7,
        [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5), (0, 6)],
        [{1, 2}, {2, 3}, {2, 3}, {2, 4}] + [{1, 2, 3, 4}] * 3,
        k=4,
    )
    patches = []

    def counting(adj, lists, watch):
        patches.append(len(lists))
        return colorings(adj, lists, watch)

    monkeypatch.setattr(goodp3, "colorings", counting)
    children = list(pivot_refinements(inst, (0, 1, 2)))
    # free vertices 3..6: the bare pivot, all four singletons, then only
    # patches without 3, since 3 is the smallest free vertex and so a
    # prefix of each patch that holds it: {4,5}, {4,6}, {5,6}, {4,5,6}.
    # Without the cut all 16 subsets would be colored.
    assert patches == [3, 4, 4, 4, 4, 5, 5, 5, 6]
    # 3 is never patched, so every child keeps it at {4}
    assert children
    assert all(child.lists[3] == 0b1000 for child in children)


def k888(pivot_lists):
    parts = [range(0, 8), range(8, 16), range(16, 24)]
    edges = [
        (u, v)
        for i, j in itertools.combinations(range(3), 2)
        for u in parts[i]
        for v in parts[j]
    ]
    lists = [0b11111] * 24
    for v, mask in zip((0, 8, 1), pivot_lists):
        lists[v] = mask
    return Instance(Graph(24, edges), 5, tuple(lists))


def test_pivot_refinements_first_child_is_lazy():
    # K_{8,8,8} with full lists: each of the 21 pivot neighbors sees a
    # pivot vertex whose list is full, so it keeps no color unless it is
    # patched; 21 forced vertices exceed the 12 a patch may add
    full = k888((0b11111,) * 3)
    assert list(pivot_refinements(full, (0, 8, 1))) == []
    # pivot lists {1,2}, {2,3}, {1,3}: no neighbor is forced, and the
    # 21 candidates give about 1.7 million patches of up to 12 of them,
    # none of which may be built up front
    inst = k888(GAMMA)
    tracemalloc.start()
    try:
        child = next(pivot_refinements(inst, (0, 8, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
    # the bare pivot: 0 and 1 share a part and both take 1, which is not
    # in the middle's list {2,3}; 8 takes 2.  The rest of 0's part sees
    # only 8 and drops {2,3}; the other parts see both 0 and 1 and drop
    # all of {1,2,3}
    want = [0b11001] * 8 + [0b11000] * 16
    want[0], want[1], want[8] = 0b00001, 0b00001, 0b00010
    assert child.lists == tuple(want)
