import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rp3color import (
    Graph,
    Instance,
    anticomplete_packing,
    cover_cap,
    frugal_profile,
    mask_from_colors,
    solve_exact,
    solve_exact_frugal,
)
from rp3color import profiles
from rp3color.pipeline import lift

from instance_reference import verify_coloring
from profile_reference import (
    hypergraph_stats,
    is_refinement,
    neighborhood_hypergraph,
    propagated,
    propagated_rows,
)
from reducer_reference import eliminate_singletons


def mk(n, edges, lists, k=5):
    return Instance(Graph(n, edges), k, tuple(mask_from_colors(l) for l in lists))


@st.composite
def instances(draw, max_n=6, k=3):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    lists = tuple(
        draw(st.integers(min_value=0, max_value=(1 << k) - 1)) for _ in range(n)
    )
    return Instance(Graph(n, edges), k, lists)


def test_eliminate_singletons_cascade():
    inst = mk(2, [(0, 1)], [{1}, {1, 2}], k=2)
    reduced, trace = eliminate_singletons(inst)
    assert reduced.graph.n == 0
    assert len(trace) == 2
    assert all(s.kind == "singleton-removal" for s in trace)
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


def profile_direct(inst, r):
    """Independent enumeration of the stream, straight from the rules:
    every tuple of stable classes in order, then propagated_rows."""
    k, n, g = inst.k, inst.graph.n, inst.graph
    cap = min((k - 1) * cover_cap(r), n)
    rows = []
    for vec in itertools.product(range(k + 1), repeat=n):
        classes = {i: [v for v in range(n) if vec[v] == i] for i in range(1, k + 1)}
        ok = True
        for i, cls in classes.items():
            if len(cls) > cap:
                ok = False
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
    cap = min((k - 1) * cover_cap(r), n)
    adjm = g.adj_mask
    vec = [0] * n
    class_mask = [0] * (k + 1)
    class_size = [0] * (k + 1)

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
                if class_size[c] >= cap or class_mask[c] & adjm[v]:
                    continue
                vec[v] = c
                class_mask[c] |= 1 << v
                class_size[c] += 1
                yield from rec(v + 1, left - 1)
                vec[v] = 0
                class_mask[c] &= ~(1 << v)
                class_size[c] -= 1

    for support in range(0, min(n, k * cap) + 1):
        yield from rec(0, support)


def test_profile_order_matches_recursive_oracle():
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
    # whole dense streams, where many entries propagate to equal lists
    sizes = []
    for parts, colors in (((2, 2, 2), range(1, 6)), ((3, 3, 3), (1, 2, 3))):
        inst = multipartite(parts, colors)
        got = [e.lists for e in frugal_profile(inst, 2)]
        assert got == list(propagated_rows(inst, profile_recursive(inst, 2)))
        sizes.append(len(got))
    assert sizes == [6946, 70]


def multipartite(parts, colors):
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(side)
    pairs = itertools.combinations(range(n), 2)
    edges = [(u, v) for u, v in pairs if side[u] != side[v]]
    return mk(n, edges, [colors] * n)


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

