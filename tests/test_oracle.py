"""Exhaustive engines checked against straight-line enumeration."""

import itertools

from hypothesis import given, settings, strategies as st

from rp3color import (
    colors_from_mask,
    cover_cap,
    frugal_colorings,
    solve_exact,
    solve_exact_frugal,
)
from rp3color.graphs import bits
from rp3color.oracle import colorings, exact_colorings

from builders import clique, instances, mk
from instance_reference import find_good_p3, list_graph, verify_coloring
from profile_reference import Hypergraph, cover_bound, hypergraph_stats


def valid_direct(inst, phi, watch=()):
    """Proper list coloring, frugal at the vertices in ``watch``."""
    g = inst.graph
    for v in range(g.n):
        if phi[v] not in colors_from_mask(inst.lists[v]):
            return False
    for u, v in g.edges:
        if phi[u] == phi[v]:
            return False
    for v in watch:
        for c in colors_from_mask(inst.lists[v]):
            if sum(1 for w in range(g.n) if g.has_edge(v, w) and phi[w] == c) > 1:
                return False
    return True


def all_direct(inst, watch=()):
    """Every valid coloring, in lexicographic order."""
    return [
        phi
        for phi in itertools.product(range(1, inst.k + 1), repeat=inst.graph.n)
        if valid_direct(inst, phi, watch)
    ]


def test_solve_exact_examples():
    assert solve_exact(mk(3, clique(3), [{1, 2}] * 3)) is None

    phi = solve_exact(mk(5, clique(5), [{1, 2, 3, 4, 5}] * 5))
    assert sorted(phi) == [1, 2, 3, 4, 5]

    c5 = [(i, (i + 1) % 5) for i in range(5)]
    assert solve_exact(mk(5, c5, [{1, 2, 3}] * 5)) is not None
    assert solve_exact(mk(5, c5, [{1, 2}] * 5, k=2)) is None


def test_solve_exact_frugal_examples():
    assert solve_exact_frugal(mk(2, [], [{4}, {4}])) is not None

    squeezed = mk(3, [(0, 1), (0, 2)], [{1, 2}, {2}, {2}])
    assert solve_exact_frugal(squeezed) is None

    relaxed = mk(3, [(0, 1), (0, 2)], [{1}, {2}, {2}])
    assert solve_exact_frugal(relaxed) == (1, 2, 2)


@settings(max_examples=120)
@given(instances(max_n=5))
def test_solve_exact_matches_direct_enumeration(inst):
    want = all_direct(inst)
    assert list(exact_colorings(inst)) == want
    assert solve_exact(inst) == (want[0] if want else None)


@settings(max_examples=120)
@given(instances(max_n=5), st.integers(min_value=0, max_value=31))
def test_frugal_matches_direct_enumeration(inst, drawn):
    n = inst.graph.n
    want = all_direct(inst, watch=range(n))
    assert list(frugal_colorings(inst)) == want
    assert solve_exact_frugal(inst) == (want[0] if want else None)
    watch = drawn & ((1 << n) - 1)
    got = colorings(inst.graph.adj_mask, inst.lists, watch)
    assert list(got) == all_direct(inst, [v for v in range(n) if watch >> v & 1])


@given(instances(max_n=5, k=5))
def test_returned_colorings_verify(inst):
    phi = solve_exact(inst)
    if phi is not None:
        assert verify_coloring(inst, phi)
    phi = solve_exact_frugal(inst)
    if phi is not None:
        assert verify_coloring(inst, phi, frugal=True)


def hg(n, edges):
    return Hypergraph(n, tuple(frozenset(e) for e in edges))


def test_hypergraph_stats_examples():
    assert hypergraph_stats(hg(3, [{0, 1}, {1, 2}])) == (1, 1, 2)
    assert hypergraph_stats(hg(2, [{0}, {1}])) == (2, 2, 2)
    assert hypergraph_stats(hg(3, [{0, 1}, {1, 2}, {2, 0}])) == (1, 2, 3)


def test_bound_constants():
    assert cover_bound(2, 0) == 220
    assert cover_bound(2, 1) == 2376
    assert cover_bound(3, 0) == 594
    assert cover_cap(1) == 220
    assert cover_cap(2) == 2772
    assert cover_cap(3) == 23760


@st.composite
def hypergraphs(draw, max_n=7, max_m=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = []
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=min(3, n)))
        edges.append(frozenset(draw(st.permutations(range(n)))[:size]))
    return Hypergraph(n, tuple(edges))


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_cover_within_bound(h):
    matching, cover, cluster = hypergraph_stats(h)
    assert matching <= cover
    assert cover <= cover_bound(cluster, matching)


@settings(max_examples=60, deadline=None)
@given(instances(max_n=5, k=5))
def test_frugal_separates_tight_neighborhoods(inst):
    """Without singleton lists or a good P3, a frugal coloring never
    repeats a color inside a closed list-graph neighborhood."""
    if any(m.bit_count() == 1 for m in inst.lists):
        return
    if find_good_p3(inst) is not None:
        return
    gl = list_graph(inst)
    for phi in itertools.islice(frugal_colorings(inst), 30):
        for v in range(gl.n):
            ball = gl.adj_mask[v] | 1 << v
            seen = [phi[w] for w in bits(ball)]
            assert len(seen) == len(set(seen))
