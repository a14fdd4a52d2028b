import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from rp3color import (
    Graph,
    Instance,
    anticomplete_packing,
    cover_cap,
    frugal_profile,
    solve_exact,
    solve_exact_frugal,
)
from rp3color import profiles
from rp3color.pipeline import lift

from builders import blow_up, complete_multipartite, cycle, instances, mk
from instance_reference import verify_coloring
from profile_reference import (
    hypergraph_stats,
    is_refinement,
    neighborhood_hypergraph,
    propagated,
    propagated_rows,
)
from reducer_reference import eliminate_singletons, record_kind


def test_eliminate_singletons_cascade():
    inst = mk(2, [(0, 1)], [{1}, {1, 2}], k=2)
    reduced, trace = eliminate_singletons(inst)
    assert reduced.graph.n == 0
    assert len(trace) == 2
    assert all(record_kind(s) == "singleton-removal" for s in trace)
    assert lift(trace, ()) == (1, 2)


def test_eliminate_singletons_identity():
    inst = mk(3, [(0, 1)], [{1, 2}, {2, 3}, {1, 2, 3}])
    reduced, trace = eliminate_singletons(inst)
    assert reduced == inst
    assert trace == []


def test_eliminate_singletons_leaves_empty_list():
    inst = mk(2, [(0, 1)], [{1}, {1}], k=2)
    reduced, trace = eliminate_singletons(inst)
    assert reduced.graph.n == 1
    assert reduced.lists == (0,)
    assert len(trace) == 1


@given(instances())
def test_eliminate_singletons_contract(inst):
    reduced, trace = eliminate_singletons(inst)
    assert all(m.bit_count() != 1 for m in reduced.lists)

    if solve_exact_frugal(inst) is not None:
        assert solve_exact_frugal(reduced) is not None

    phi = solve_exact(reduced)
    if phi is not None:
        lifted = lift(trace, phi)
        assert verify_coloring(inst, lifted)


def test_neighborhood_hypergraph_examples():
    g = Graph(3, [(0, 2), (1, 2)])
    h = neighborhood_hypergraph(g, [0, 1], [2])
    assert h.n == 2
    assert h.edges == (frozenset({0, 1}),)

    h = neighborhood_hypergraph(g, [0, 1], [])
    assert h.edges == ()

    lonely = Graph(3, [(0, 2)])
    with pytest.raises(ValueError, match="vertex 2"):
        neighborhood_hypergraph(lonely, [0, 1], [2])
    with pytest.raises(ValueError, match="share"):
        neighborhood_hypergraph(g, [0, 1], [1])


def test_profile_single_vertex():
    inst = mk(1, [], [{1, 2}], k=2)
    got = [e.lists for e in frugal_profile(inst, 1)]
    assert got == [(0b11,), (0b01,), (0b10,)]


def test_profile_k2_stability():
    # both ends of the edge in class 1 is never a tuple; the input
    # already propagates to an empty list, so the stream is empty
    inst = mk(2, [(0, 1)], [{1}, {1}], k=2)
    assert [e.lists for e in frugal_profile(inst, 1)] == []
    # the four one-vertex tuples and the two two-vertex ones propagate
    # to the same two list tuples, each yielded once
    inst = mk(2, [(0, 1)], [{1, 2}, {1, 2}], k=2)
    got = [e.lists for e in frugal_profile(inst, 1)]
    assert got == [(0b11, 0b11), (0b10, 0b01), (0b01, 0b10)]


def test_profile_empty_graph():
    inst = mk(0, [], [], k=5)
    assert [e for e in frugal_profile(inst, 2)] == [inst]


def support_bound(k, r):
    """frugal_profile's bound on the support, read through the module so
    that a patched cover_cap counts."""
    return k * (k - 1) * profiles.cover_cap(r)


def profile_direct(inst, r):
    """Independent enumeration of the stream, straight from the rules:
    every tuple of stable classes in order, then propagated_rows."""
    k, n, g = inst.k, inst.graph.n, inst.graph
    bound = support_bound(k, r)
    rows = []
    for vec in itertools.product(range(k + 1), repeat=n):
        classes = {i: [v for v in range(n) if vec[v] == i] for i in range(1, k + 1)}
        ok = n - vec.count(0) <= bound
        for i, cls in classes.items():
            for v in cls:
                if not inst.lists[v] & (1 << (i - 1)):
                    ok = False
                if any(g.has_edge(v, w) for w in cls):
                    ok = False
        if not ok:
            continue
        lists = []
        for v in range(n):
            if vec[v]:
                lists.append(1 << (vec[v] - 1))
            else:
                m = inst.lists[v]
                for i, cls in classes.items():
                    if any(g.has_edge(v, w) for w in cls):
                        m &= ~(1 << (i - 1))
                lists.append(m)
        rows.append((sum(1 for x in vec if x), vec, tuple(lists)))
    rows.sort(key=lambda t: (t[0], t[1]))
    return list(propagated_rows(inst, (t[2] for t in rows)))


@settings(max_examples=40, deadline=None)
@given(instances(max_n=4, k=3))
def test_profile_matches_direct_enumeration(inst):
    got = [e.lists for e in frugal_profile(inst, 1)]
    assert got == profile_direct(inst, 1)


@given(instances(max_n=5, k=5))
def test_profile_elements_are_spanning_refinements(inst):
    ident = {v: v for v in range(inst.graph.n)}
    for child in itertools.islice(frugal_profile(inst, 2), 25):
        assert child.graph == inst.graph
        assert is_refinement(inst, child, ident) == (True, True)
    first = next(frugal_profile(inst, 2), None)
    assert first == propagated(inst)


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6, k=4))
def test_profile_elements_are_clean(inst):
    """No element has an empty list, each is its own propagation, and
    no list tuple comes twice."""
    seen = set()
    for e in itertools.islice(frugal_profile(inst, 2), 300):
        assert 0 not in e.lists
        assert propagated(e) == e
        assert e.lists not in seen
        seen.add(e.lists)


@settings(max_examples=25, deadline=None)
@given(instances(max_n=5, k=3))
def test_profile_completeness(inst):
    """A feasible instance without two anticomplete P3s has a profile
    element that is frugally feasible."""
    if anticomplete_packing(inst.graph, 2, 3) is not None:
        return
    if solve_exact(inst) is None:
        return
    assert any(
        solve_exact_frugal(e) is not None for e in frugal_profile(inst, 2)
    )


@settings(max_examples=30, deadline=None)
@given(instances(max_n=6, k=3))
def test_neighborhood_cover_stays_small(inst):
    """Two color classes of any proper coloring induce a hypergraph whose
    cover number sits far below the generic cap."""
    if anticomplete_packing(inst.graph, 2, 3) is not None:
        return
    phi = solve_exact(inst)
    if phi is None:
        return
    for i, j in itertools.permutations(range(1, inst.k + 1), 2):
        a = [v for v, c in enumerate(phi) if c == i]
        b = [
            v
            for v, c in enumerate(phi)
            if c == j and sum(inst.graph.has_edge(v, w) for w in a) >= 2
        ]
        if not a:
            continue
        h = neighborhood_hypergraph(inst.graph, a, b)
        _, cover, _ = hypergraph_stats(h)
        assert cover <= cover_cap(2)


def profile_recursive(inst, r):
    """The unpropagated stream in recursive form, one call level per
    vertex: the order oracle for the explicit-stack stream once mapped
    through propagated_rows."""
    g, k = inst.graph, inst.k
    n = g.n
    bound = support_bound(k, r)
    adjm = g.adj_mask
    vec = [0] * n
    class_mask = [0] * (k + 1)

    def build():
        out = []
        for v in range(n):
            if vec[v]:
                out.append(1 << (vec[v] - 1))
            else:
                mask = inst.lists[v]
                for c in range(1, k + 1):
                    if class_mask[c] & adjm[v]:
                        mask &= ~(1 << (c - 1))
                out.append(mask)
        return tuple(out)

    def rec(v, left):
        if left > n - v:
            return
        if v == n:
            yield build()
            return
        yield from rec(v + 1, left)
        if left:
            for c in range(1, k + 1):
                if not (inst.lists[v] >> (c - 1)) & 1:
                    continue
                if class_mask[c] & adjm[v]:
                    continue
                vec[v] = c
                class_mask[c] |= 1 << v
                yield from rec(v + 1, left - 1)
                vec[v] = 0
                class_mask[c] &= ~(1 << v)

    for support in itertools.takewhile(lambda s: s <= bound, range(n + 1)):
        yield from rec(0, support)


def test_profile_order_matches_recursive_oracle(monkeypatch):
    rng = random.Random(4242)
    compared = 0
    # most propagated tuples repeat or die, so it takes more and larger
    # draws than the unpropagated stream to compare as many elements
    for _ in range(250):
        k = rng.choice([3, 5])
        n = rng.randint(0, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        lists = [rng.randrange(1 << k) for _ in range(n)]
        inst = Instance(Graph(n, edges), k, tuple(lists))
        r = rng.choice([1, 2])
        got = [e.lists for e in itertools.islice(frugal_profile(inst, r), 2000)]
        want = propagated_rows(inst, profile_recursive(inst, r))
        want = list(itertools.islice(want, 2000))
        assert got == want
        compared += len(got)
    assert compared >= 20000
    # whole dense streams, where many children propagate to lists seen
    # before; such a child is neither yielded nor pinned further, so the
    # pins stay at the counts below (keeping it for the next level gives
    # the same stream with 18,312 pins on C5[2] with lists {1,2,3})
    real = profiles.unit_propagate
    pins = live = 0

    def counting(adj, lists, work=None):
        nonlocal pins, live
        ok = real(adj, lists, work)
        if work is not None:
            pins += 1
            live += ok
        return ok

    monkeypatch.setattr(profiles, "unit_propagate", counting)
    for inst, size, want_pins in (
        (multipartite((2, 2, 2), range(1, 6)), 6946, 7665),
        (multipartite((3, 3, 3), (1, 2, 3)), 70, 513),
        (multipartite((2, 2, 2, 2), range(1, 6)), 20061, 33620),
        (mk(10, blow_up(cycle(5), 2).edges, [(1, 2, 3)] * 10), 2161, 6648),
    ):
        pins = live = 0
        got = [e.lists for e in frugal_profile(inst, 2)]
        assert got == list(propagated_rows(inst, profile_recursive(inst, 2)))
        assert len(got) == size and pins == want_pins
        # live children beyond the yielded ones repeat seen lists
        assert live > size - 1


def multipartite(parts, colors):
    g = complete_multipartite(*parts)
    return mk(g.n, g.edges, [colors] * g.n)


@pytest.mark.parametrize("levels", [0, 1, 2, 3])
def test_support_bound_cuts_the_stream(monkeypatch, levels):
    """With cover_cap patched so that the support bound is a few levels,
    the stream is the oracles' streams cut at that support."""
    cut = 0
    rng = random.Random(4343 + levels)
    for _ in range(60):
        k = rng.choice([3, 5])
        n = rng.randint(0, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        inst = Instance(Graph(n, edges), k, tuple(rng.randrange(1 << k) for _ in range(n)))
        r = rng.choice([1, 2])
        whole = [e.lists for e in frugal_profile(inst, r)]
        monkeypatch.setattr(profiles, "cover_cap", lambda r: Fraction(levels, k * (k - 1)))
        got = [e.lists for e in frugal_profile(inst, r)]
        assert got == list(propagated_rows(inst, profile_recursive(inst, r)))
        if n <= 4 and k == 3:
            assert got == profile_direct(inst, r)
        monkeypatch.undo()
        assert got == whole[: len(got)]
        cut += len(got) < len(whole)
    assert cut >= 5
    inst = multipartite((2, 2, 2), range(1, 6))
    monkeypatch.setattr(profiles, "cover_cap", lambda r: Fraction(levels, 20))
    got = [e.lists for e in frugal_profile(inst, 2)]
    assert got == list(propagated_rows(inst, profile_recursive(inst, 2)))
    assert len(got) < 6946


def test_profile_is_lazy(monkeypatch):
    """A support's first element costs one entry's children, not a
    whole level: the first two elements of a long path with full lists
    take at most k pins (its first level alone has 5 n)."""
    n, k = 2000, 5
    inst = mk(n, [(v, v + 1) for v in range(n - 1)], [range(1, k + 1)] * n, k)
    real = profiles.unit_propagate
    pins = 0

    def counting(adj, lists, work=None):
        nonlocal pins
        pins += work is not None
        return real(adj, lists, work)

    monkeypatch.setattr(profiles, "unit_propagate", counting)
    assert len(list(itertools.islice(frugal_profile(inst, 2), 2))) == 2
    assert 1 <= pins <= k

