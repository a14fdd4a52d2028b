import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rp3color import (
    Graph,
    GraphError,
    anticomplete_packing,
    dist_neighborhood,
    induced_p3_stream,
    induced_subgraph,
    is_clique,
    is_stable_set,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return Graph(n, [])
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph(n, sorted(edges))


def test_build_dedup_and_shape():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))

    k5 = clique(5)
    assert len(k5.edges) == 10

    doubled = Graph(2, [(0, 1), (1, 0)])
    assert doubled.edges == ((0, 1),)


def test_build_rejects_loops_and_bad_ids():
    with pytest.raises(GraphError, match=r"\(1, 1\)"):
        Graph(3, [(0, 1), (1, 1)])
    with pytest.raises(GraphError, match=r"\(0, 5\)"):
        Graph(3, [(0, 5)])
    with pytest.raises(GraphError, match=r"\(-1, 0\)"):
        Graph(3, [(-1, 0)])


def test_dist_neighborhood_examples():
    p5 = path(5)
    assert dist_neighborhood(p5, 0, 2, closed=False) == {2}
    assert dist_neighborhood(p5, 2, 1, closed=True) == {1, 2, 3}
    assert dist_neighborhood(clique(5), 0, 2, closed=False) == set()


@given(graphs(), st.integers(min_value=0, max_value=7))
def test_open_one_ball_is_adjacency(g, v):
    if v >= g.n:
        return
    assert dist_neighborhood(g, v, 1, closed=False) == {
        w for w in range(g.n) if g.has_edge(v, w)
    }


def test_induced_subgraph_examples():
    sub, remap = induced_subgraph(clique(5), [0, 1, 2])
    assert sub.n == 3 and len(sub.edges) == 3
    assert remap == {0: 0, 1: 1, 2: 2}

    sub, remap = induced_subgraph(path(5), [0, 2, 4])
    assert sub.n == 3 and sub.edges == ()
    assert remap == {0: 0, 2: 1, 4: 2}

    sub, remap = induced_subgraph(clique(4), [])
    assert sub.n == 0 and remap == {}


@given(graphs())
def test_induced_subgraph_keeps_inside_edges(g):
    keep = [v for v in range(g.n) if v % 2 == 0]
    sub, remap = induced_subgraph(g, keep)
    assert sorted(remap.values()) == list(range(len(keep)))
    expect = {
        (remap[u], remap[v])
        for u, v in g.edges
        if u in remap and v in remap
    }
    assert set(sub.edges) == expect


def test_stable_and_clique():
    p3 = path(3)
    assert is_stable_set(p3, [0, 2])
    assert not is_stable_set(p3, [0, 1])
    assert is_clique(clique(3), [0, 1, 2])
    assert is_clique(p3, [1])
    assert is_clique(p3, [])


def test_p3_stream_examples():
    assert list(induced_p3_stream(clique(3))) == []
    assert list(induced_p3_stream(path(3))) == [(0, 1, 2)]
    c4 = cycle(4)
    got = list(induced_p3_stream(c4))
    assert got == [(1, 0, 3), (0, 1, 2), (1, 2, 3), (0, 3, 2)]
    assert len(got) == 4


@given(graphs())
def test_p3_stream_matches_direct_count(g):
    got = list(induced_p3_stream(g))
    count = 0
    for mid in range(g.n):
        nbrs = [w for w in range(g.n) if g.has_edge(mid, w)]
        for x, y in itertools.combinations(nbrs, 2):
            if not g.has_edge(x, y):
                count += 1
    assert len(got) == count
    assert len(set(got)) == len(got)
    for x1, x2, x3 in got:
        assert x1 < x3
        assert g.has_edge(x1, x2) and g.has_edge(x3, x2)
        assert not g.has_edge(x1, x3)
    assert got == sorted(got, key=lambda t: (t[1], t[0], t[2]))


def test_packing_examples():
    assert anticomplete_packing(path(7), 2, 3) == ((0, 1, 2), (4, 5, 6))
    assert anticomplete_packing(cycle(5), 2, 3) is None

    two_p4 = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    got = anticomplete_packing(two_p4, 2, 4)
    assert got == ((0, 1, 2, 3), (4, 5, 6, 7))


def induced_paths_brute(g, t):
    found = []
    for combo in itertools.permutations(range(g.n), t):
        if combo[0] > combo[-1]:
            continue
        ok = True
        for i in range(t):
            for j in range(i + 1, t):
                adj = g.has_edge(combo[i], combo[j])
                if (j == i + 1) != adj:
                    ok = False
        if ok:
            found.append(combo)
    return found


def packing_exists_brute(g, r, t):
    paths = induced_paths_brute(g, t)
    for family in itertools.combinations(paths, r):
        verts = [set(p) for p in family]
        ok = True
        for a, b in itertools.combinations(range(r), 2):
            if verts[a] & verts[b]:
                ok = False
                break
            if any(g.has_edge(y, x) for x in verts[a] for y in verts[b]):
                ok = False
                break
        if ok:
            return True
    return False


@settings(max_examples=60)
@given(graphs(), st.integers(min_value=1, max_value=2),
       st.integers(min_value=2, max_value=4))
def test_packing_agrees_with_brute_force(g, r, t):
    got = anticomplete_packing(g, r, t)
    assert (got is not None) == packing_exists_brute(g, r, t)
    if got is not None:
        assert len(got) == r
        for p in got:
            assert len(p) == t
            for i in range(t - 1):
                assert g.has_edge(p[i], p[i + 1])
            for i, j in itertools.combinations(range(t), 2):
                if j > i + 1:
                    assert not g.has_edge(p[i], p[j])
        for pa, pb in itertools.combinations(got, 2):
            assert not (set(pa) & set(pb))
            assert not any(g.has_edge(x, y) for x in pa for y in pb)


@given(graphs())
def test_freeness_is_hereditary(g):
    if anticomplete_packing(g, 2, 3) is not None:
        return
    keep = [v for v in range(g.n) if v % 3 != 1]
    sub, _ = induced_subgraph(g, keep)
    assert anticomplete_packing(sub, 2, 3) is None


def packing_unfiltered(g, r):
    """The packing search for t = 3 with every alive vertex tried as a
    middle, in the enumeration order of induced_p3_stream: the reference
    for the middle filter of anticomplete_packing."""

    def p3s(alive):
        for mid in range(g.n):
            if not (alive >> mid) & 1:
                continue
            nbrs = [w for w in range(g.n) if g.has_edge(mid, w) and (alive >> w) & 1]
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1:]:
                    if not g.has_edge(a, b):
                        yield (a, mid, b)

    def search(alive, need):
        if need == 0:
            return []
        for p in p3s(alive):
            closed = 0
            for v in p:
                closed |= (1 << v) | g.adj_mask[v]
            rest = search(alive & ~closed, need - 1)
            if rest is not None:
                return [p] + rest
        return None

    found = search((1 << g.n) - 1, r)
    return tuple(found) if found is not None else None


def test_packing_witness_matches_unfiltered_search():
    rng = random.Random(1931)
    found = 0
    for _ in range(1500):
        n = rng.randint(0, 14)
        p = rng.choice([0.15, 0.3, 0.5, 0.7])
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph(n, edges)
        for r in (1, 2, 3):
            want = packing_unfiltered(g, r)
            assert anticomplete_packing(g, r, 3) == want
            found += want is not None
    assert found >= 500
