import importlib.util
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rp3color import (
    Graph,
    GraphError,
    anticomplete_packing,
    induced_p3_stream,
    induced_subgraph,
)

from rp3color.cli import random_instance
from rp3color.graphs import _p3_middles, bits, co_components, local_adjacency

from instance_reference import is_clique, is_stable_set


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


def test_neighbor_tuples_match_the_masks():
    # edges given twice, reversed and out of order, with isolated
    # vertices; induced subgraphs renumber, so their tuples are rebuilt
    rng = random.Random(4243)
    for _ in range(200):
        n = rng.randint(0, 40)
        p = rng.choice([0.05, 0.2, 0.5])
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        edges += [(v, u) for u, v in rng.sample(edges, len(edges) // 3)]
        edges += rng.sample(edges, len(edges) // 4)
        rng.shuffle(edges)
        g = Graph(n, edges)
        sub, _ = induced_subgraph(g, rng.sample(range(n), rng.randint(0, n)))
        for h in (g, sub):
            assert len(h.neighbors) == h.n
            for v in range(h.n):
                assert h.neighbors[v] == tuple(bits(h.adj_mask[v]))


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


def test_co_components_examples():
    # K_{2,3}: its two sides; C_4 = K_{2,2}: the two diagonals
    k23 = Graph(5, [(u, v) for u in range(2) for v in range(2, 5)])
    assert co_components(k23) == [0b00011, 0b11100]
    assert co_components(cycle(4)) == [0b0101, 0b1010]
    assert co_components(clique(3)) == [1, 2, 4]
    assert co_components(cycle(5)) == [0b11111]
    assert co_components(Graph(0, [])) == []


@given(graphs())
def test_co_components_split_a_join(g):
    parts = co_components(g)
    assert sum(parts) == (1 << g.n) - 1 and sum(map(int.bit_count, parts)) == g.n
    part_of = {v: i for i, q in enumerate(parts) for v in range(g.n) if q >> v & 1}
    for u, v in itertools.combinations(range(g.n), 2):
        if part_of[u] != part_of[v]:
            assert g.has_edge(u, v)
    # each part is connected in the complement
    for q in parts:
        members = [v for v in range(g.n) if q >> v & 1]
        reached, todo = {members[0]}, [members[0]]
        while todo:
            u = todo.pop()
            for w in members:
                if w not in reached and w != u and not g.has_edge(u, w):
                    reached.add(w)
                    todo.append(w)
        assert len(reached) == len(members)


def test_local_adjacency_matches_dict_reference():
    # keep in drawn order: positions follow keep, not vertex ids
    rng = random.Random(4242)
    unsorted = 0
    for _ in range(300):
        n = rng.randint(0, 14)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        keep = rng.sample(range(n), rng.randint(0, n))
        unsorted += keep != sorted(keep)
        pos = {v: i for i, v in enumerate(keep)}
        expected = [sum(1 << pos[w] for w in keep if g.has_edge(v, w)) for v in keep]
        assert local_adjacency(g, keep) == expected
    assert unsorted >= 150


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


def load_reference():
    """perfbench/reference.py, which imports nothing from rp3color."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_packing_agrees_with_reference_2p3():
    ref = load_reference()
    rng = random.Random(1932)
    free = 0
    for _ in range(600):
        n = rng.randint(4, 14)
        p = rng.choice([0.15, 0.25, 0.4])
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        got = anticomplete_packing(Graph(n, edges), 2, 3)
        assert (got is None) == (not ref.has_2p3(ref.make(n, edges, [()] * n)))
        free += got is None
    # both answers are common: 352 draws are 2P3-free
    assert 150 <= free <= 450


def p3_middles_brute(g):
    """The definition: v is a middle when two of its neighbors are not
    adjacent.  Neighbor sets come from the edge list."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    out = 0
    for v in range(g.n):
        pairs = itertools.combinations(sorted(nbrs[v]), 2)
        if any(b not in nbrs[a] for a, b in pairs):
            out |= 1 << v
    return out


def packing_dfs(g, r, t):
    """The first of r pairwise anticomplete induced t-vertex paths in
    depth-first order over the paths in ascending lexicographic order,
    the enumeration order of anticomplete_packing for t != 3."""
    paths = induced_paths_brute(g, t)

    def search(alive, need):
        if need == 0:
            return []
        for p in paths:
            if all(alive >> v & 1 for v in p):
                closed = 0
                for v in p:
                    closed |= (1 << v) | g.adj_mask[v]
                rest = search(alive & ~closed, need - 1)
                if rest is not None:
                    return [p] + rest
        return None

    found = search((1 << g.n) - 1, r)
    return tuple(found) if found is not None else None


def middle_scan_graphs():
    """Graphs for the middle scan: the empty graph, isolated vertices,
    K_2 components, K_4 with a pendant vertex (its simplicial vertices'
    neighbors are not all twins), seeded disjoint unions of cliques,
    some with a pendant vertex or an edge between two cliques, all
    relabelled, seeded random graphs, and the clique forests with a
    star of cli.random_instance at n = 500-2,000, as drawn and
    relabelled, whose clique components are settled at their lowest
    member."""
    yield Graph(0, [])
    yield Graph(4, [])
    yield Graph(6, [(0, 1), (2, 3), (4, 5)])
    yield Graph(5, list(itertools.combinations(range(4), 2)) + [(3, 4)])
    rng = random.Random(1934)
    for _ in range(300):
        n, edges, groups = 0, [], []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, 4)
            edges += itertools.combinations(range(n, n + size), 2)
            groups.append(range(n, n + size))
            n += size
        roll = rng.random()
        if roll < 0.3:
            edges.append((rng.randrange(n), n))
            n += 1
        elif roll < 0.5 and len(groups) > 1:
            a, b = rng.sample(groups, 2)
            edges.append((rng.choice(a), rng.choice(b)))
        perm = rng.sample(range(n), n)
        yield Graph(n, [(perm[u], perm[v]) for u, v in edges])
    for _ in range(300):
        n = rng.randint(0, 12)
        p = rng.choice([0.15, 0.3, 0.5, 0.7])
        yield Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
    for n in (500, 1000, 1500, 2000):
        g = random_instance(rng, n).graph
        perm = rng.sample(range(n), n)
        yield g
        yield Graph(n, [(perm[u], perm[v]) for u, v in g.edges])


def test_p3_middles_match_the_definition():
    ref = load_reference()
    kinds = Counter()
    for g in middle_scan_graphs():
        mids = _p3_middles(g)
        assert mids == p3_middles_brute(g)
        kinds[mids == 0] += 1
        if g.n > 10:
            continue
        for r in (1, 2, 3):
            assert anticomplete_packing(g, r, 3) == packing_unfiltered(g, r)
            assert anticomplete_packing(g, r, 4) == packing_dfs(g, r, 4)
        has = ref.has_2p3(ref.make(g.n, g.edges, [()] * g.n))
        assert (anticomplete_packing(g, 2, 3) is not None) == has
    # both clique forests with no middle and graphs with middles
    assert kinds[True] >= 100 and kinds[False] >= 200


def test_packing_skips_a_first_middle_with_no_partner():
    # middle 0 sees the other middles 2 and 5, so no second path fits
    # beside a path through it; the witness is the P3s 1-2-3 and 4-5-6
    g = Graph(7, [(1, 2), (2, 3), (4, 5), (5, 6), (0, 2), (0, 5)])
    assert anticomplete_packing(g, 1, 3) == ((2, 0, 5),)
    assert anticomplete_packing(g, 2, 3) == ((1, 2, 3), (4, 5, 6))
    assert anticomplete_packing(g, 3, 3) is None
