"""solve verdicts against the benchmark's independent exact solver.

perfbench/reference.py decides list colorability by forward checking
and imports nothing from rp3color, so it shares no code with the
pipeline under test.  Every family is drawn from a fixed seed with
n = 10-20 and is free of 2 anticomplete induced P3s, so solve must
decide it: a colorable verdict must carry a valid coloring and agree
with the reference, and so must a not-colorable one.  A not-colorable
verdict from the root clique Hall check must carry a refutation that
holds on the reference's own edges and lists.  Most uncolorable random
draws end at that check, so a few fixed uncolorable inputs that pass it
keep the search's own not-colorable path covered.

Tier 1 runs a sample that takes a few seconds.  The longer sweep runs
with RP3COLOR_LONG_DIFFERENTIAL=1 in the environment; it caps each
solve at a node budget so that a slow solve fails instead of hanging,
and no solve may reach it.
"""

import importlib.util
import itertools
import os
import random
from collections import Counter
from pathlib import Path

import pytest

from rp3color import (
    Graph,
    Instance,
    SolveOptions,
    anticomplete_packing,
    mask_from_colors,
    solve,
)
from rp3color import pipeline

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
LONG = os.environ.get("RP3COLOR_LONG_DIFFERENTIAL") == "1"
long_only = pytest.mark.skipif(
    not LONG, reason="set RP3COLOR_LONG_DIFFERENTIAL=1 for the long sweep"
)


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


R = load_reference()


def to_instance(ref):
    lists = tuple(mask_from_colors(l) for l in ref.lists)
    return Instance(Graph(ref.n, ref.edges), 5, lists)


def random_scan_free(rng, n, sizes):
    """G(n, p) with p in [0.55, 0.9], redrawn until the packing scan
    finds no 2 anticomplete induced P3s; lists of a size from sizes."""
    while True:
        p = rng.uniform(0.55, 0.9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        if anticomplete_packing(Graph(n, edges), 2, 3) is None:
            lists = [rng.sample(range(1, 6), rng.choice(sizes)) for _ in range(n)]
            return R.make(n, edges, lists)


def multipartite(parts, colors):
    groups, off = [], 0
    for size in parts:
        groups.append(range(off, off + size))
        off += size
    edges = [
        (u, v) for a, b in itertools.combinations(groups, 2) for u in a for v in b
    ]
    return R.make(off, edges, [colors] * off)


def cliques_and_star(rng, n):
    """A star K_{1,s} and disjoint cliques K1..K5: every induced P3
    runs through the star's centre.  Star lists have 1-3 colors, a
    clique of size q gets lists of q - 1 to 5 colors."""
    star = rng.randint(2, n // 2)
    edges = [(0, leaf) for leaf in range(1, star + 1)]
    lists = [rng.sample(range(1, 6), rng.randint(1, 3)) for _ in range(star + 1)]
    v = star + 1
    while v < n:
        size = min(rng.randint(1, 5), n - v)
        edges += itertools.combinations(range(v, v + size), 2)
        lists += [rng.sample(range(1, 6), rng.randint(max(1, size - 1), 5)) for _ in range(size)]
        v += size
    return R.make(n, edges, lists)


def singleton_star_and_cliques(rng, n):
    """A star K_{1,s} whose leaves have one-color lists and whose centre
    has two or three colors, beside disjoint cliques K1..K5 with lists
    of three to five colors.  Propagation leaves the star's leaves as
    one-color lists, so the search's leaves keep them next to the
    cliques' lists of three or more colors."""
    star = rng.randint(2, 5)
    edges = [(0, leaf) for leaf in range(1, star + 1)]
    lists = [rng.sample(range(1, 6), rng.randint(2, 3))]
    lists += [rng.sample(range(1, 6), 1) for _ in range(star)]
    v = star + 1
    while v < n:
        size = min(rng.randint(1, 5), n - v)
        edges += itertools.combinations(range(v, v + size), 2)
        lists += [rng.sample(range(1, 6), rng.randint(3, 5)) for _ in range(size)]
        v += size
    return R.make(n, edges, lists)


def singleton_heavy(rng, n):
    """Vertices split into 3-6 stable parts with each cross pair an
    edge with probability 0.75-1, redrawn until the packing scan passes.
    About 30% of the lists are one color.  In half the draws every list
    holds the vertex's part color (colorable when there are at most 5
    parts); in the other half the lists are drawn freely."""
    while True:
        parts = rng.randint(3, 6)
        part = [rng.randrange(parts) for _ in range(n)]
        p = rng.uniform(0.75, 1.0)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if part[u] != part[v] and rng.random() < p
        ]
        if anticomplete_packing(Graph(n, edges), 2, 3) is None:
            break
    planted = rng.random() < 0.5
    colors = rng.sample(range(1, 6), 5)
    lists = []
    for v in range(n):
        size = 1 if rng.random() < 0.3 else rng.randint(2, 3)
        if planted and part[v] < 5:
            own = colors[part[v]]
            others = [c for c in range(1, 6) if c != own]
            lists.append([own] + rng.sample(others, size - 1))
        else:
            lists.append(rng.sample(range(1, 6), size))
    return R.make(n, edges, lists)


def cycle_join(rim, size, colors):
    """An odd cycle joined to a clique of ``size`` vertices, every list
    ``colors`` with 2 + size colors.  The cycle needs three colors and
    the clique ``size`` more, so it is uncolorable, yet no clique has
    more vertices than colors.  A clique vertex sees every other vertex,
    so two anticomplete P3s would both lie in the cycle, and C_5 and
    C_7 hold no such pair."""
    edges = [(v, (v + 1) % rim) for v in range(rim)]
    edges += [(u, v) for u in range(rim) for v in range(rim, rim + size)]
    edges += itertools.combinations(range(rim, rim + size), 2)
    return R.make(rim + size, edges, [colors] * (rim + size))


def antihole(n, colors):
    """The complement of the cycle C_n, every list ``colors``.  Two
    anticomplete P3s would need each vertex of one adjacent in C_n to
    all three of the other, so it is 2P3-free; its complement C_n is
    connected, so solve does not split it."""
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if v - u not in (1, n - 1)
    ]
    return R.make(n, edges, [colors] * n)


def cycle(n, colors):
    """The cycle C_n, every list ``colors``."""
    return R.make(n, [(v, (v + 1) % n) for v in range(n)], [colors] * n)


def random_join(rng, parts):
    """The join of ``parts`` random graphs on two to five vertices each,
    lists of two to four colors.  Two anticomplete induced P3s of a join
    lie inside one part, so the parts are redrawn until the packing scan
    passes.  Its complement is disconnected, so solve splits the kernel
    whenever the peel leaves vertices of two parts."""
    while True:
        n, edges, groups = 0, [], []
        for _ in range(parts):
            size = rng.randint(2, 5)
            p = rng.uniform(0.2, 0.8)
            new = range(n, n + size)
            edges += [e for e in itertools.combinations(new, 2) if rng.random() < p]
            groups.append(new)
            n += size
        edges += [
            (u, v) for a, b in itertools.combinations(groups, 2) for u in a for v in b
        ]
        if anticomplete_packing(Graph(n, edges), 2, 3) is None:
            lists = [rng.sample(range(1, 6), rng.randint(2, 4)) for _ in range(n)]
            return R.make(n, edges, lists)


def hang_peelable(rng, ref, hosts):
    """``ref`` with one to four pieces hung off vertices of ``hosts``,
    each by one edge: a pendant path, a random tree or a small clique.
    Path and tree lists have two or three colors and a clique of q
    vertices has lists of q + 1 to 5 colors, so every hung vertex peels
    and the kernel of ``ref`` is left.  Redrawn until the packing scan
    finds no 2 anticomplete induced P3s; returns the draw and the number
    of hung vertices."""
    while True:
        n, edges, lists = ref.n, list(ref.edges), list(ref.lists)
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("path", "tree", "clique"))
            size = rng.randint(1, 4)
            new = range(n, n + size)
            if kind == "clique":
                edges += itertools.combinations(new, 2)
                edges.append((rng.choice(hosts), n))
                lists += [rng.sample(range(1, 6), rng.randint(size + 1, 5)) for _ in new]
            else:
                for v in new:
                    if v == n:
                        parent = rng.choice(hosts)
                    else:
                        parent = v - 1 if kind == "path" else rng.randrange(n, v)
                    edges.append((parent, v))
                lists += [rng.sample(range(1, 6), rng.randint(2, 3)) for _ in new]
            n += size
        if anticomplete_packing(Graph(n, edges), 2, 3) is None:
            return R.make(n, edges, lists), n - ref.n


def refutation_defect(ref, refutation):
    """Why a (vertices, colors) refutation fails on the reference's own
    edges and lists, or None."""
    vertices, colors = refutation
    edges = set(ref.edges)
    if len(set(vertices)) != len(vertices) or len(vertices) <= len(colors):
        return f"{vertices} against {colors}"
    for u, v in itertools.combinations(sorted(vertices), 2):
        if (u, v) not in edges:
            return f"{u + 1} and {v + 1} are not adjacent"
    for v in vertices:
        if not ref.lists[v] <= set(colors):
            return f"list of {v + 1} is not inside {colors}"
    return None


def check(ref, budget=None):
    """Assert that solve agrees with the reference; returns the verdict."""
    inst = to_instance(ref)
    verdict = solve(inst, SolveOptions(budget=budget))
    if verdict.status == "aborted" and budget is not None:
        return verdict
    expected = R.exact_coloring(ref)
    text = R.write_text(ref)
    if expected is None:
        assert verdict.status == "not-colorable", text
        if verdict.refutation is not None:
            assert refutation_defect(ref, verdict.refutation) is None, text
    else:
        assert verdict.status == "colorable", text
        assert R.certificate_defect(ref, verdict.coloring) is None, text
    return verdict


def statuses(verdicts):
    return Counter(verdict.status for verdict in verdicts)


def test_random_scan_free_graphs():
    # denser or larger draws are nearly all uncolorable, and nearly
    # all of those end at the root check: they are left to the long
    # sweep
    rng = random.Random(1001)
    counts = statuses(check(random_scan_free(rng, 10, (2, 3))) for _ in range(8))
    assert counts["colorable"] >= 1 and counts["not-colorable"] >= 4


def test_dense_uncolorable_random_graphs():
    # the profile was exhaustive on draws like these, and each one hit
    # a 50,000-node budget; pruned inside the profile they took under
    # 10,000 nodes, and the root clique Hall check now refutes them
    rng = random.Random(1005)
    for _ in range(4):
        ref = random_scan_free(rng, rng.randint(13, 16), (3, 4))
        assert check(ref, budget=50_000).status == "not-colorable"


def test_root_refutations_are_sound():
    # any graph will do here: a refutation needs no rP3-freeness
    rng = random.Random(1006)
    sizes = Counter()
    for _ in range(400):
        n = rng.randint(1, 9)
        p = rng.uniform(0.5, 1.0)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        lists = [rng.sample(range(1, 6), rng.choice((1, 2, 2, 3, 4))) for _ in range(n)]
        ref = R.make(n, edges, lists)
        inst = to_instance(ref)
        refutation = pipeline.clique_hall_refutation(inst)
        if refutation is None:
            continue
        sizes[len(refutation[0])] += 1
        text = R.write_text(ref)
        assert pipeline.refutation_defect(inst, refutation) is None, text
        assert refutation_defect(ref, refutation) is None, text
        assert R.exact_coloring(ref) is None, text
    # refutations from the subset table and from cliques of more than
    # k = 5 vertices both occur
    assert sum(sizes.values()) >= 60 and min(sizes) <= 3 and max(sizes) > 5, sizes


@pytest.mark.parametrize(
    "parts, colors",
    [
        ((5, 5), (1, 2, 3)),
        ((5, 5), (1, 2, 3, 4)),
        ((5, 5), (1, 2, 3, 4, 5)),
        ((4, 4, 4), (1, 2, 3)),
        ((4, 4, 4), (1, 2, 3, 4)),
        ((6, 6, 6), (1, 2, 3)),
        ((3, 3, 3, 3), (1, 2, 3)),
        ((3, 3, 3, 3), (1, 2, 3, 4)),
        ((2, 2, 2, 2, 2), (1, 2, 3)),
        ((2, 2, 2, 2, 2), (1, 2, 3, 4)),
        ((2, 2, 2, 2, 2, 2), (1, 2, 3)),
    ],
)
def test_complete_multipartite(parts, colors):
    check(multipartite(parts, colors))


def test_hall_passing_uncolorable_inputs():
    # the root check refutes none of these, so the search must
    draws = [
        cycle_join(5, 1, (1, 2, 3)),  # the odd wheel W_5
        cycle_join(7, 1, (1, 2, 3)),  # W_7
        cycle_join(5, 2, (1, 2, 3, 4)),
        antihole(7, (1, 2, 3)),
    ]
    for ref in draws:
        verdict = check(ref)
        assert verdict.refutation is None and verdict.stats["nodes"] > 0


@pytest.mark.parametrize(
    "kernel, hosts, colorable",
    [
        (cycle_join(5, 1, (1, 2, 3)), (0, 5), False),  # W_5, rim and hub
        (cycle_join(7, 1, (1, 2, 3)), (7,), False),  # W_7, hub
        (cycle_join(5, 2, (1, 2, 3, 4)), (0, 5, 6), False),  # C_5 joined with K_2
        (antihole(6, (1, 2, 3)), (0, 1), True),  # the prism
        (cycle(6, (1, 2)), (0, 3), True),
        (antihole(7, (1, 2, 3, 4)), (0,), True),
    ],
)
def test_peeled_pieces_around_a_kernel(kernel, hosts, colorable):
    # the kernels are left whole by the peel and pass the root check;
    # everything hung off them peels, so the verdict is the kernel's.
    # The colorable kernels do not split, so their search runs
    assert (R.exact_coloring(kernel) is not None) == colorable
    rng = random.Random(R.write_text(kernel))
    for _ in range(4):
        ref, hung = hang_peelable(rng, kernel, hosts)
        verdict = check(ref)
        assert verdict.status == ("colorable" if colorable else "not-colorable")
        assert verdict.refutation is None
        assert verdict.stats["peeled"] == hung
        assert verdict.stats["elements"] > 0


def test_cliques_and_star():
    rng = random.Random(1002)
    counts = statuses(
        check(cliques_and_star(rng, rng.randint(10, 20))) for _ in range(40)
    )
    assert counts["colorable"] >= 10 and counts["not-colorable"] >= 3


def test_singleton_star_and_cliques(monkeypatch):
    rng = random.Random(1004)
    draws = [singleton_star_and_cliques(rng, rng.randint(10, 20)) for _ in range(40)]
    counts = statuses(check(ref) for ref in draws)
    assert counts["colorable"] >= 10 and counts["not-colorable"] >= 5

    # count the leaves that reach reduce_to_binary with a one-color list
    # beside a list of three or more colors; solve peels most of these
    # draws away, so the search runs on the whole draws, as solve did
    # before peeling: the candidate stream of each draw that passes the
    # root check, up to its first colorable leaf
    mixed = 0
    reduce = pipeline.reduce_to_binary

    def counting(leaf):
        nonlocal mixed
        sizes = {m.bit_count() for m in leaf.lists}
        mixed += 1 in sizes and max(sizes) >= 3
        return reduce(leaf)

    monkeypatch.setattr(pipeline, "reduce_to_binary", counting)
    for ref in draws:
        inst = to_instance(ref)
        if pipeline.clique_hall_refutation(inst) is None:
            budget = pipeline._Budget()
            pipeline._first_coloring(pipeline.candidate_stream(inst, 2, budget), budget)
    assert mixed >= 20


def test_singleton_heavy():
    rng = random.Random(1003)
    counts = statuses(check(singleton_heavy(rng, rng.randint(10, 16))) for _ in range(60))
    assert counts["colorable"] >= 10 and counts["not-colorable"] >= 10


def test_budget_abort_is_deterministic():
    # colorable, but the first feasible leaf is the 7,316th profile
    # element, and every element before it is a walk root with no
    # child; no clique has five vertices, so the root check passes,
    # and the complement C_9 is connected, so nothing splits
    inst = to_instance(antihole(9, (1, 2, 3, 4, 5)))
    first = solve(inst, SolveOptions(budget=500))
    second = solve(inst, SolveOptions(budget=500))
    assert first.status == second.status == "aborted"
    assert first.stats == second.stats
    assert first.stats["nodes"] == 501


def test_random_joins():
    rng = random.Random(1007)
    verdicts = [check(random_join(rng, rng.randint(2, 3))) for _ in range(300)]
    assert min(statuses(verdicts).values()) >= 100
    # the split itself decides many draws both ways
    split = statuses(v for v in verdicts if v.stats["split"])
    assert split["colorable"] >= 60 and split["not-colorable"] >= 10


def test_split_nests_at_most_k_deep(monkeypatch):
    # every split level hands each co-component a proper subset of the
    # kernel's colors, so at most k = 5 levels nest
    decide = pipeline._decide
    depths = Counter()

    def recording(inst, r, budget, depth=0):
        depths[depth] += 1
        return decide(inst, r, budget, depth)

    monkeypatch.setattr(pipeline, "_decide", recording)
    rng = random.Random(1008)
    for _ in range(300):
        check(random_join(rng, rng.randint(2, 4)))
    for parts in ((3, 3, 3, 3), (2, 2, 2, 2, 2), (4, 4, 4), (1, 1, 2, 2, 3)):
        check(multipartite(parts, (1, 2, 3, 4, 5)))
    # the parts above are edgeless or peel away, so none of them nests;
    # this one splits into {1} and a part that splits again
    check(nesting_join())
    assert depths[2] > 0 and max(depths) <= 5


def nesting_join():
    """A colorable 2P3-free graph on seven vertices, none of which
    peels, with co-components {1} and {0, 2, 3, 4, 5, 6}.  The larger
    part, cut to the colors vertex 1 leaves, peels one vertex and its
    kernel splits into three co-components."""
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4),
        (1, 5), (1, 6), (2, 5), (2, 6), (3, 4), (4, 5), (4, 6), (5, 6),
    ]
    lists = [
        (1, 3, 4, 5), (1, 3, 4, 5), (1, 2, 3), (3, 4, 5), (1, 2, 3), (2, 3, 4),
        (3, 4, 5),
    ]
    return R.make(7, edges, lists)


@long_only
def test_long_sweep():
    rng = random.Random(2001)
    draws = []
    for _ in range(60):
        n = rng.randint(10, 20)
        draws.append(random_scan_free(rng, n, rng.choice([(2, 3), (3, 4), (2, 3, 4)])))
        draws.append(cliques_and_star(rng, n))
        draws.append(singleton_heavy(rng, n))
        draws.append(singleton_star_and_cliques(rng, n))
    for parts in ((4, 4, 4), (3, 3, 3, 3), (2, 2, 2, 2, 2), (5, 5, 5), (4, 4, 4, 4)):
        for colors in ((1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5)):
            draws.append(multipartite(parts, colors))
    draws += [random_join(rng, rng.randint(2, 4)) for _ in range(1500)]
    counts = statuses(check(ref, budget=100_000) for ref in draws)
    print("long sweep:", counts)
    assert counts["colorable"] + counts["not-colorable"] >= len(draws) // 2
    assert counts["aborted"] == 0
