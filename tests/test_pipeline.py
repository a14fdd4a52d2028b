"""End-to-end solving: candidate stream, verdicts, budgets, lifting."""

import gc
import itertools
import logging
import random

import pytest

from rp3color import (
    Graph,
    Instance,
    InstanceError,
    LiftStep,
    SolveOptions,
    anticomplete_packing,
    candidate_stream,
    lift,
    mask_from_colors,
    solve,
    solve_exact,
)
from rp3color.oracle import exact_colorings, frugal_colorings
from rp3color import pipeline
from rp3color.cli import random_instance
from rp3color.goodp3 import _earliest_good, pivot_refinements
from rp3color.graphs import induced_p3_stream
from rp3color.pipeline import _Budget
from rp3color.profiles import frugal_profile, unit_propagate

from builders import clique, complete_multipartite, mk
from goodp3_reference import eager_pivot_refinements, find_type_p3, good_order
from instance_reference import find_good_p3, verify_coloring
from peel_reference import edge_loop_peel_order, greedy_color_back
from profile_reference import propagated
from reducer_reference import eliminate_singletons, record_kind, record_vertex
from split_reference import eager_split
from test_differential import random_join, singleton_heavy, to_instance


def full(n, edges, k=5):
    return mk(n, edges, [set(range(1, k + 1))] * n, k)


def six_cycle_two_colors():
    """C_6 with lists {1,2}: each vertex has as many list-graph
    neighbors as colors, so the peel leaves it whole, and its complement
    is connected, so it does not split; the search takes two profile
    elements to its one leaf."""
    return mk(6, [(v, (v + 1) % 6) for v in range(6)], [{1, 2}] * 6)


def seven_anticycle():
    """The complement of C_7, all lists {1,2,3}: 2P3-free, uncolorable
    (a color class is an edge of C_7, so it needs four colors), and no
    clique has more vertices than colors, so the root check passes it.
    Each vertex has four list-graph neighbors, so nothing peels, and its
    complement C_7 is connected, so nothing splits."""
    edges = [(u, v) for u, v in clique(7) if v - u not in (1, 6)]
    return mk(7, edges, [{1, 2, 3}] * 7)


def test_options_validation():
    with pytest.raises(ValueError, match="r=0"):
        SolveOptions(r=0)
    with pytest.raises(ValueError, match="jobs=0"):
        SolveOptions(jobs=0)
    with pytest.raises(ValueError, match="budget=0"):
        SolveOptions(budget=0)
    assert SolveOptions().r == 2


def test_jobs_other_than_one_rejected():
    with pytest.raises(ValueError, match="jobs=2"):
        SolveOptions(jobs=2)
    assert SolveOptions(jobs=1).jobs == 1


def test_candidate_stream_empty_graph():
    inst = full(0, [])
    assert list(candidate_stream(inst, 2)) == [inst]


def test_candidate_stream_k5_identity_first():
    inst = full(5, clique(5))
    stream = candidate_stream(inst, 2)
    leaf = next(stream)
    assert leaf == inst


def test_candidate_stream_yields_are_clean():
    rng = random.Random(314)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        lists = [set(rng.sample(range(1, 6), rng.randint(0, 3))) for _ in range(n)]
        inst = mk(n, edges, lists)
        for leaf in itertools.islice(candidate_stream(inst, 2), 50):
            # a leaf is a spanning refinement at the propagation
            # fixpoint: its one-color lists constrain no neighbor
            assert leaf.graph is inst.graph
            assert all(m & ~old == 0 for m, old in zip(leaf.lists, inst.lists))
            assert find_good_p3(leaf) is None
            assert propagated(leaf) == leaf
            assert 0 not in leaf.lists
            checked += 1
    assert checked >= 100


def test_solve_k5_is_colorable_bijectively():
    verdict = solve(full(5, clique(5)))
    assert verdict.status == "colorable"
    assert sorted(verdict.coloring) == [1, 2, 3, 4, 5]
    assert set(verdict.stats) == {
        "elements", "nodes", "leaves", "pruned", "peeled", "split"
    }


def test_solve_k6_is_not_colorable():
    verdict = solve(full(6, clique(6)))
    assert verdict.status == "not-colorable"
    assert verdict.coloring is None
    # decided by the root check
    assert verdict.refutation == ((0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
    assert verdict.stats == {
        "elements": 0, "nodes": 0, "leaves": 0, "pruned": 0, "peeled": 0, "split": 0
    }


def test_root_check_finds_a_subset_of_a_clique():
    # in K4, vertices 1 and 3 both have the list {2}
    inst = mk(4, clique(4), [{1, 2, 3}, {2}, {1, 2, 3, 4, 5}, {2}])
    assert pipeline.clique_hall_refutation(inst) == ((1, 3), (2,))
    assert solve(inst).refutation == ((1, 3), (2,))


def test_root_check_refutes_an_empty_list():
    inst = mk(3, [(0, 1)], [{1, 2}, {1}, set()])
    assert pipeline.clique_hall_refutation(inst) == ((2,), ())


@pytest.mark.parametrize(
    "inst, refutation, message",
    [
        (mk(3, [(0, 1), (1, 2)], [{1, 2}] * 3), ((0, 1, 2), (1, 2)), "not adjacent"),
        (mk(3, clique(3), [{1, 2, 3}] * 3), ((0, 1, 2), (1, 2)), "not inside"),
        (mk(3, clique(3), [{1}] * 3), ((0, 0, 1), (1,)), "repeat"),
        (mk(3, clique(3), [{1}] * 3), ((0,), (1,)), "1 vertices for 1 colors"),
        (mk(3, clique(3), [{1}] * 3), ((0, 1, 2), (0, 1)), "color 0 outside"),
        (mk(3, clique(3), [{1}] * 3), ((0, 1, 3), (1,)), "vertex 3 outside"),
    ],
)
def test_solve_rejects_a_false_refutation(monkeypatch, inst, refutation, message):
    monkeypatch.setattr(pipeline, "clique_hall_refutation", lambda inst: refutation)
    with pytest.raises(RuntimeError, match=f"refutation failed verification: .*{message}"):
        solve(inst)


@pytest.mark.parametrize(
    "color, message",
    [
        (lambda v: 1, r"edge \(0, 1\) is monochromatic in color 1"),
        (lambda v: 0, "vertex 0 has color 0 outside 1..5"),
        (lambda v: v + 3, "vertex 0 colored 3 outside its list"),
    ],
    ids=["clash", "uncolored", "off-list"],
)
def test_solve_rejects_a_false_coloring(monkeypatch, color, message):
    """A P3 on lists {1,2} peels away whole, so the color-back alone
    colors it; corrupted, its coloring fails the final check."""

    def color_back(neighbors, out, vertices, lists):
        for v in vertices:
            out[v] = color(v)

    monkeypatch.setattr(pipeline, "_color_each", color_back)
    inst = mk(3, [(0, 1), (1, 2)], [{1, 2}] * 3)
    with pytest.raises(RuntimeError, match=f"certificate failed verification: {message}"):
        solve(inst)


def test_solve_rejects_wrong_k():
    with pytest.raises(InstanceError, match="k=4"):
        solve(mk(1, [], [{1}], k=4))


def test_packing_gate_and_force():
    # two anticomplete paths on three vertices each
    inst = full(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    verdict = solve(inst)
    assert verdict.status == "not-rp3-free"
    assert verdict.witness == ((0, 1, 2), (3, 4, 5))
    forced = solve(inst, SolveOptions(force=True))
    assert forced.status == "colorable"
    assert verify_coloring(inst, forced.coloring)


def test_budget_abort_then_success():
    inst = six_cycle_two_colors()
    verdict = solve(inst, SolveOptions(budget=1))
    assert verdict.status == "aborted"
    assert verdict.coloring is None
    assert verdict.stats["nodes"] >= 1
    ok = solve(inst, SolveOptions(budget=100000))
    assert ok.status == "colorable"
    assert verify_coloring(inst, ok.coloring)


def test_lift_empty_trace_is_identity():
    assert lift([], (3, 1, 4)) == (3, 1, 4)


def test_lift_needs_a_closing_record():
    with pytest.raises(ValueError, match="closing record"):
        lift([LiftStep({"step": 6})], (3, 1, 4))


def test_lift_restores_forced_colors():
    inst = mk(1, [], [{3}])
    final, trace = eliminate_singletons(inst)
    assert final.graph.n == 0
    assert lift(trace, ()) == (3,)


def verifications(monkeypatch, inst):
    """solve's verdict on ``inst`` and its number of full coloring
    checks (pipeline.coloring_defect calls)."""
    real = pipeline.coloring_defect
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(pipeline, "coloring_defect", counting)
    return solve(inst), calls


def test_binary_leaf_is_verified_once(monkeypatch):
    # no list of three colors: the leaf goes to 2-SAT as it is, one-color
    # list and all, and only _certify checks the coloring
    inst = mk(4, [(0, 1), (1, 2), (2, 3)], [{1}, {1, 2}, {2, 3}, {3, 4}])
    verdict, calls = verifications(monkeypatch, inst)
    assert verdict.status == "colorable"
    assert calls == 1


def test_reduced_leaf_is_verified_twice(monkeypatch):
    # C_6 with rim lists {1,5} and a hub 6 on five of its vertices,
    # hub list {1,2,3,4}, is left whole by the peel and does not split;
    # its feasible leaf pins the rim to one color, so the trace deletes
    # those one-color lists first and then drops the hub by step 4: the
    # lift checks the coloring once, then _certify checks it again
    edges = [(v, (v + 1) % 6) for v in range(6)] + [(6, v) for v in range(1, 6)]
    inst = mk(7, edges, [{1, 5}] * 6 + [{1, 2, 3, 4}])
    assert pipeline.peel_order(inst) == []
    rounds = []
    reduce = pipeline.reduce_to_binary

    def recording(leaf):
        out, trace = reduce(leaf)
        rounds.extend(record_kind(s) for s in trace)
        return out, trace

    monkeypatch.setattr(pipeline, "reduce_to_binary", recording)
    verdict, calls = verifications(monkeypatch, inst)
    assert verdict.status == "colorable"
    assert rounds[0] == "singleton-removal"
    assert "step4-removal" in rounds
    assert calls == 2


def test_trace_logging(caplog):
    inst = six_cycle_two_colors()
    with caplog.at_level(logging.INFO, logger="rp3color"):
        solve(inst, SolveOptions())
    assert any("element" in rec.message for rec in caplog.records)


def test_solve_agrees_with_oracle():
    rng = random.Random(2718)
    colorable = uncolorable = 0
    for _ in range(80):
        n = rng.randint(1, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        lists = [set(rng.sample(range(1, 6), rng.choice([0, 2, 2, 3, 3]))) for _ in range(n)]
        inst = mk(n, edges, lists)
        if anticomplete_packing(inst.graph, 2, 3) is not None:
            assert solve(inst).status == "not-rp3-free"
            continue
        verdict = solve(inst)
        exact = solve_exact(inst)
        if exact is None:
            assert verdict.status == "not-colorable"
            uncolorable += 1
        else:
            assert verdict.status == "colorable"
            assert verify_coloring(inst, verdict.coloring)
            colorable += 1
    assert colorable >= 15 and uncolorable >= 15


def propagated_type_leaves(cur, triple):
    """eliminate_type's depth-first walk, with every node propagated
    first and dropped when propagation empties a list."""
    cur = propagated(cur)
    if cur is None:
        return
    pivot = find_type_p3(cur, triple)
    if pivot is None:
        yield cur
        return
    for child in eager_pivot_refinements(cur, triple, pivot):
        yield from propagated_type_leaves(child, triple)


def pruned_fold(inst, r):
    """What the search yields, rebuilt from the unpruned reference: under
    each profile element in turn, the literal fold over every good
    triple with each node propagated; of those leaves, the first
    occurrence of each list tuple in the whole stream, dropping leaves
    whose singleton-free final was seen before under any element."""
    seen, finals = set(), set()
    for element in frugal_profile(inst, r):
        stream = [element]
        for gamma in good_order(element.k):
            stream = [
                leaf for cur in stream for leaf in propagated_type_leaves(cur, gamma)
            ]
        for leaf in stream:
            if leaf.lists in seen:
                continue
            seen.add(leaf.lists)
            final, steps = eliminate_singletons(leaf)
            assert 0 not in final.lists
            # vertices deleted, not renumbered: all elements share the
            # input graph, so finals compare as the search's dedupe key does
            key = (final.lists, frozenset(record_vertex(s) for s in steps))
            if key not in finals:
                finals.add(key)
                yield leaf


def test_candidates_match_pruned_literal_fold():
    # the literal fold runs every good triple, 14,186 of them at k=5,
    # so most draws use smaller palettes; the profile yields each
    # propagated list tuple only once, so a draw gives few elements
    rng = random.Random(99)
    compared = 0
    for k, rounds, per_instance in ((3, 65, 20), (4, 8, 20), (5, 2, 3)):
        for _ in range(rounds):
            n = rng.randint(1, 5)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            lists = [set(rng.sample(range(1, k + 1), rng.choice([2, 2, 3]))) for _ in range(n)]
            inst = mk(n, edges, lists, k)
            budget = _Budget()
            got = list(itertools.islice(candidate_stream(inst, 2, budget), per_instance))
            assert got == list(itertools.islice(pruned_fold(inst, 2), per_instance))
            compared += budget.elements
    assert compared >= 800


def two_set_walk(inst, r, visits):
    """The walk with two repeat rules: a node whose full list tuple was
    visited before is skipped, and so is a leaf whose lists with each
    one-color list set to 0 were yielded before.  Each node visited,
    skipped or not, is appended to ``visits``."""
    p3s = tuple(induced_p3_stream(inst.graph))
    seen, finals = set(), set()

    def walk(cur):
        visits.append(cur)
        if cur.lists in seen:
            return
        seen.add(cur.lists)
        pivot = _earliest_good(cur, p3s)
        if pivot is not None:
            for child in pivot_refinements(cur, pivot):
                yield from walk(child)
            return
        key = tuple(m if m & (m - 1) else 0 for m in cur.lists)
        if key not in finals:
            finals.add(key)
            yield cur

    for element in frugal_profile(inst, r):
        yield from walk(element)


def wheel_and_triangles(triangles):
    """The odd wheel W_5 (hub 0, rim 1-5) with lists {1,2,3}, beside
    ``triangles`` disjoint triangles with lists {1,2}, {2,3}, {1,3}.
    W_5 needs four colors, so it is uncolorable, yet no clique has more
    vertices than colors; every vertex has as many list-graph neighbors
    as colors, so nothing peels, and the complement is connected, so
    nothing splits.  Every induced P3 lies in W_5 and meets the hub's
    closed neighborhood, so the input is 2P3-free."""
    edges = [(0, v) for v in range(1, 6)] + [(v, v % 5 + 1) for v in range(1, 6)]
    lists = [{1, 2, 3}] * 6
    for t in range(6, 6 + 3 * triangles, 3):
        edges += [(t, t + 1), (t + 1, t + 2), (t, t + 2)]
        lists += [{1, 2}, {2, 3}, {1, 3}]
    return mk(len(lists), edges, lists)


def test_walk_prunes_repeated_multi_color_lists(monkeypatch):
    # the 102 profile elements differ only in one-color lists and have
    # 68 keys among them; each key reaches the good-P3 scan once
    detect = pipeline._earliest_good
    keys = []

    def recording(cur, p3s):
        keys.append(tuple(m if m & (m - 1) else 0 for m in cur.lists))
        return detect(cur, p3s)

    monkeypatch.setattr(pipeline, "_earliest_good", recording)
    inst = wheel_and_triangles(1)
    assert inst.graph.n == 9
    verdict = solve(inst)
    stats = verdict.stats
    assert verdict.status == "not-colorable" and verdict.refutation is None
    assert stats["elements"] == 102
    assert len(keys) == len(set(keys)) == 68
    assert len(keys) + stats["pruned"] == stats["nodes"]
    assert stats["pruned"] == 34


def test_candidates_match_two_set_walk():
    # k = 5 inputs too large for the literal fold, searched whole: no
    # packing check, peel or split; the one repeat rule must yield the
    # same leaves in the same order as the two rules
    rng = random.Random(3001)
    insts = [wheel_and_triangles(t) for t in (1, 2, 3)]
    insts += [to_instance(singleton_heavy(rng, rng.randint(6, 12))) for _ in range(40)]
    while len(insts) < 83:
        inst = to_instance(random_join(rng, rng.randint(2, 3)))
        if inst.graph.n <= 12:
            insts.append(inst)
    leaves = nodes = visits = 0
    for inst in insts:
        budget = _Budget()
        got = list(candidate_stream(inst, 2, budget))
        visited = []
        assert got == list(two_set_walk(inst, 2, visited))
        assert budget.nodes <= len(visited)
        leaves += len(got)
        nodes += budget.nodes
        visits += len(visited)
    assert leaves >= 2000 and nodes + 1000 <= visits


def test_leaf_keys_are_deduped_across_elements():
    # most of the nine profile elements reach leaves that an earlier
    # element reached; a leaf key met under an earlier element is not
    # yielded again (a walk restarted per element yields 9 leaves, 4 keys)
    inst = mk(3, [(0, 1), (0, 2)], [{1, 3}, {1, 3}, {2, 5}])
    keys = [
        tuple(m if m & (m - 1) else 0 for m in leaf.lists)
        for leaf in candidate_stream(inst, 2)
    ]
    assert len(keys) == len(set(keys)) == 4


def propagate_singletons(inst):
    """``inst`` unit-propagated from every one-color list by
    profiles.unit_propagate; None once a list is empty."""
    lists = list(inst.lists)
    if not unit_propagate(inst.graph.neighbors, lists):
        return None
    return Instance(inst.graph, inst.k, tuple(lists))


def test_propagate_singletons_matches_elimination():
    rng = random.Random(1618)
    empty = kept = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        sizes = [0, 1, 1, 1, 2, 2, 3]
        lists = [set(rng.sample(range(1, 6), rng.choice(sizes))) for _ in range(n)]
        inst = mk(n, edges, lists)
        after = propagate_singletons(inst)
        final, _ = eliminate_singletons(inst)
        assert (after is None) == (0 in final.lists)
        if after is None:
            empty += 1
            continue
        kept += 1
        out = after.lists
        assert all(m & ~old == 0 for m, old in zip(out, inst.lists))
        for v, w in itertools.permutations(range(n), 2):
            if out[v].bit_count() == 1 and inst.graph.has_edge(v, w):
                assert not out[w] & out[v]
        assert list(exact_colorings(after)) == list(exact_colorings(inst))
        frugal_after = set(frugal_colorings(after))
        assert all(phi in frugal_after for phi in frugal_colorings(inst))
    assert empty >= 50 and kept >= 50


def test_walk_nodes_are_propagated(monkeypatch):
    # the walk does not propagate its nodes: every node must come out of
    # frugal_profile or pivot_refinements at the propagation fixpoint
    detect = pipeline._earliest_good
    checked = 0

    def checking(cur, p3s):
        nonlocal checked
        assert 0 not in cur.lists
        assert propagated(cur) == cur
        checked += 1
        return detect(cur, p3s)

    monkeypatch.setattr(pipeline, "_earliest_good", checking)
    insts = [multipartite((2, 2, 2), {1, 2, 3})]
    insts += [wheel_and_triangles(t) for t in (1, 2, 3)]
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(3, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        lists = [set(rng.sample(range(1, 6), rng.choice([1, 2, 3, 3]))) for _ in range(n)]
        insts.append(mk(n, edges, lists))
    # a node whose multi-color lists repeat never reaches detection, so
    # joins of two or three random graphs keep the count up
    rng = random.Random(2025)
    insts += [to_instance(random_join(rng, rng.randint(2, 3))) for _ in range(10)]
    for inst in insts:
        for _ in candidate_stream(inst, 2):
            pass
    assert checked >= 5000


def test_walk_enumerates_p3s_once(monkeypatch):
    # every node of one walk shares the input's graph, so its induced
    # P3s are listed once per candidate_stream call, not once per node
    calls = 0
    stream = pipeline.induced_p3_stream

    def counting(g):
        nonlocal calls
        calls += 1
        return stream(g)

    monkeypatch.setattr(pipeline, "induced_p3_stream", counting)
    inst = multipartite((2, 2, 2), {1, 2, 3})
    for repeat in (1, 2):
        budget = _Budget()
        for _ in candidate_stream(inst, 2, budget):
            pass
        assert calls == repeat
        assert budget.nodes > 1


def test_solve_leaves_few_reference_cycles():
    # uncolorable and past the root check, so the whole search runs
    # (43 nodes)
    inst = seven_anticycle()
    gc.collect()
    gc.disable()
    try:
        assert solve(inst).status == "not-colorable"
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable < 100


def test_budget_abort_counts_nodes():
    # every profile element of the complement of C_7 with lists {1,2,3}
    # is one node and none is colorable: the search aborts at the first
    # node past the cap
    sad = seven_anticycle()
    verdict = solve(sad, SolveOptions(budget=3))
    assert verdict.status == "aborted"
    assert verdict.stats["nodes"] == 4


def multipartite(sizes, lists):
    g = complete_multipartite(*sizes)
    return mk(g.n, g.edges, [lists] * g.n)


@pytest.mark.parametrize(
    "sizes, lists",
    [
        ((4, 4, 4), {1, 2, 3}),
        ((3, 3, 3), {1, 2, 3, 4, 5}),
        ((2, 2, 2, 2), {1, 2, 3, 4, 5}),
    ],
)
def test_complete_multipartite_solves_within_budget(sizes, lists):
    # each pivot neighbor loses most of its list when left out of the
    # patch, so nearly every patch gives empty-list children; while
    # those were built and counted, these took 166,000 to 183,000 nodes
    inst = multipartite(sizes, lists)
    verdict = solve(inst, SolveOptions(budget=20000))
    assert verdict.status == "colorable"
    assert verify_coloring(inst, verdict.coloring)
    assert solve_exact(inst) is not None


def cycle_join(a, b):
    """C_a joined with C_b, full lists: each odd cycle needs three
    colors and the two share none, so it is uncolorable, while no
    clique has more than four vertices."""
    edges = [(v, (v + 1) % a) for v in range(a)]
    edges += [(a + v, a + (v + 1) % b) for v in range(b)]
    edges += [(u, v) for u in range(a) for v in range(a, a + b)]
    return full(a + b, edges)


FULL = set(range(1, 6))


JOINS = [
    (multipartite((3, 3, 3, 3), FULL), True),
    (multipartite((4, 4, 4), FULL), True),
    (multipartite((2, 2, 2, 2, 2), FULL), True),
    (cycle_join(5, 5), False),
    (cycle_join(7, 5), False),
]


@pytest.mark.parametrize(
    "inst, colorable", JOINS, ids=["K3333", "K444", "K22222", "C5+C5", "C7+C5"]
)
def test_joins_split_within_budget(inst, colorable):
    # searched whole, these took from 6,409 nodes (K_{4,4,4}) to more
    # than 200,000 (C_7 joined with C_5); split, each part is decided
    # on its own color set
    verdict = solve(inst, SolveOptions(budget=2000))
    assert verdict.status == ("colorable" if colorable else "not-colorable")
    assert verdict.stats["split"] > 0
    if colorable:
        assert verify_coloring(inst, verdict.coloring)


def test_split_is_counted_and_logged(caplog):
    # K_{4,4,4} with full lists: three stable parts of four vertices.
    # Part 0 takes {1}, part 1 takes {2}, and part 2 gets {3,4,5}
    inst = multipartite((4, 4, 4), FULL)
    with caplog.at_level(logging.INFO, logger="rp3color"):
        verdict = solve(inst)
    messages = [rec.getMessage() for rec in caplog.records]
    assert "split kernel of 12 vertices into 3 co-components" in messages
    assert verdict.stats["split"] == 3
    assert verdict.stats["peeled"] == 0
    assert verdict.stats["nodes"] == 0


def test_split_choice_matches_eager_reference(monkeypatch):
    # the on-demand split must choose the sets the eager enumeration of
    # every part's minimal feasible sets chose, so every coloring stays;
    # the draws are those of test_differential::test_random_joins
    rng = random.Random(1007)
    insts = [to_instance(random_join(rng, rng.randint(2, 3))) for _ in range(300)]
    insts += [inst for inst, _ in JOINS]
    insts.append(multipartite((1, 1, 2, 2, 3), FULL))
    fast = [solve(inst) for inst in insts]
    monkeypatch.setattr(pipeline, "_split", eager_split)
    split = 0
    for inst, verdict in zip(insts, fast):
        eager = solve(inst)
        assert (verdict.status, verdict.coloring) == (eager.status, eager.coloring)
        assert verdict.stats["split"] <= eager.stats["split"]
        split += verdict.stats["split"] > 0
    assert split >= 100


def list_graph_degree(inst, v, among):
    """Neighbors of v in ``among`` whose lists meet v's list."""
    return sum(
        1
        for w in among
        if inst.graph.has_edge(v, w) and inst.lists[v] & inst.lists[w]
    )


def peel_draws():
    """300 seeded random graphs on up to 12 vertices, edge density 0.1
    to 0.8, lists of 0 to 5 colors."""
    rng = random.Random(3141)
    for _ in range(300):
        n = rng.randint(0, 12)
        p = rng.uniform(0.1, 0.8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        lists = [set(rng.sample(range(1, 6), rng.randint(0, 5))) for _ in range(n)]
        yield mk(n, edges, lists)


def test_peel_order_is_valid_and_leaves_a_kernel():
    peeled_some = whole = 0
    for inst in peel_draws():
        n = inst.graph.n
        order = pipeline.peel_order(inst)
        assert len(set(order)) == len(order)
        later = set(range(n))
        for v in order:
            later.discard(v)
            # fewer list-graph neighbors left than colors when removed
            assert list_graph_degree(inst, v, later) < inst.lists[v].bit_count()
        # no kernel vertex could be removed next
        for v in later:
            assert list_graph_degree(inst, v, later) >= inst.lists[v].bit_count()
        peeled_some += 0 < len(order) < n
        whole += not order and n > 0
    assert peeled_some >= 100 and whole >= 10


def hang_paths(rng, inst, pieces):
    """``inst`` beside the instances ``pieces``, with one to four pendant
    paths of one to four vertices, lists of one to three colors, hung
    off vertices of the pieces."""
    n = inst.graph.n
    edges = list(inst.graph.edges)
    lists = list(inst.lists)
    hosts = []
    for piece in pieces:
        edges += [(u + n, v + n) for u, v in piece.graph.edges]
        lists += piece.lists
        hosts += range(n, n + piece.graph.n)
        n += piece.graph.n
    for _ in range(rng.randint(1, 4)):
        end = rng.choice(hosts)
        for _ in range(rng.randint(1, 4)):
            edges.append((end, n))
            lists.append(mask_from_colors(rng.sample(range(1, 6), rng.randint(1, 3))))
            end = n
            n += 1
    return Instance(Graph(n, edges), 5, tuple(lists))


def test_peel_order_matches_edge_loop_reference():
    # the clique forests of cli.random_instance peel away whole; W_5 and
    # the complement of C_7 with lists {1,2,3} stay in the kernel, and
    # the paths hung off them peel from their far ends
    insts = list(peel_draws())
    rng = random.Random(2718)
    wheel = [(v, (v + 1) % 5) for v in range(5)] + [(v, 5) for v in range(5)]
    pieces = [mk(6, wheel, [{1, 2, 3}] * 6), seven_anticycle()]
    for n in (100, 250, 500, 1000, 2000):
        for _ in range(2):
            inst = random_instance(rng, n)
            insts += [inst, hang_paths(rng, inst, pieces)]
    # empty and one-color lists; an empty list meets no other list
    for _ in range(200):
        n = rng.randint(1, 10)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        lists = [set(rng.sample(range(1, 6), rng.choice((0, 1, 1, 2)))) for _ in range(n)]
        insts.append(mk(n, edges, lists))
    for inst in insts:
        order = pipeline.peel_order(inst)
        assert order == edge_loop_peel_order(inst)
        assert all(inst.lists[v] for v in order)


def test_color_back_matches_greedy_reference_at_scale():
    # clique forests with a star peel away whole, so the coloring is the
    # greedy one over the reversed peel order; with pendant paths hung
    # off C_4 on {1,2} and the complement of C_7 on {1,2,3,4}, which
    # keep every vertex, the kernel's coloring is taken from the solve
    # and the peeled vertices must still be colored greedily around it
    rng = random.Random(3141)
    c4 = mk(4, [(v, (v + 1) % 4) for v in range(4)], [{1, 2}] * 4)
    anti = seven_anticycle()
    anti = Instance(anti.graph, 5, (mask_from_colors({1, 2, 3, 4}),) * 7)
    kernels = 0
    for n in (1000, 5000):
        for _ in range(2):
            inst = random_instance(rng, n)
            verdict = solve(inst)
            assert verdict.stats["peeled"] == n
            order = edge_loop_peel_order(inst)
            assert verdict.coloring == greedy_color_back(inst, order, ())
            hung = hang_paths(rng, inst, [c4, anti])
            order = edge_loop_peel_order(hung)
            verdict = solve(hung, SolveOptions(force=True))
            if verdict.status != "colorable":
                continue
            assert verdict.stats["peeled"] == len(order) < hung.graph.n
            kernel = sorted(set(range(hung.graph.n)) - set(order))
            phi = [verdict.coloring[v] for v in kernel]
            assert verdict.coloring == greedy_color_back(hung, order, phi)
            kernels += 1
    assert kernels >= 2


def chain():
    """A path whose lists {1}, {1,2}, {2,3}, {3,4}, {4,5} force the
    coloring 1, 2, 3, 4, 5.  The peel removes it from the far end, so
    only its reverse order colors the path greedily."""
    return mk(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [{1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}])


def test_chain_is_colored_in_reverse_peel_order():
    inst = chain()
    assert pipeline.peel_order(inst) == [4, 3, 2, 1, 0]
    verdict = solve(inst)
    assert verdict.status == "colorable"
    assert verdict.coloring == (1, 2, 3, 4, 5)
    assert verdict.stats["peeled"] == 5


def test_wrong_peel_order_raises(monkeypatch):
    # colored from the far end, the path leaves vertex 0 no color
    monkeypatch.setattr(pipeline, "peel_order", lambda inst: [0, 1, 2, 3, 4])
    with pytest.raises(RuntimeError, match="no free color when restoring vertex 0"):
        solve(chain())


def test_fully_peeled_input_runs_no_search(caplog):
    # K5 and K3 with full lists, and a star K_{1,4} whose leaves have
    # two colors: every vertex peels, so no profile element is built
    edges = clique(5) + [(5, 6), (5, 7), (6, 7)] + [(8, v) for v in range(9, 13)]
    lists = [set(range(1, 6))] * 8 + [{1, 2}] + [{1, 2}, {2, 3}, {1, 3}, {1, 2}]
    inst = mk(13, edges, lists)
    with caplog.at_level(logging.INFO, logger="rp3color"):
        verdict = solve(inst)
    assert verdict.status == "colorable"
    assert verify_coloring(inst, verdict.coloring)
    assert verdict.stats == {
        "elements": 0, "nodes": 0, "leaves": 0, "pruned": 0, "peeled": 13, "split": 0
    }
    assert "peeled 13 of 13 vertices" in [rec.getMessage() for rec in caplog.records]


def test_peel_leaves_the_search_only_the_kernel(monkeypatch):
    # the complement of C_7 with lists {1,2,3} and a pendant path on
    # vertex 0: the path peels, and the candidate stream sees the seven
    # kernel vertices only
    kernel = seven_anticycle()
    edges = list(kernel.graph.edges) + [(0, 7), (7, 8)]
    lists = list(kernel.lists) + [mask_from_colors({1, 4}), mask_from_colors({2, 4})]
    inst = Instance(Graph(9, edges), 5, tuple(lists))
    sizes = []
    stream = pipeline.candidate_stream

    def recording(kernel, r, budget):
        sizes.append(kernel.graph.n)
        return stream(kernel, r, budget)

    monkeypatch.setattr(pipeline, "candidate_stream", recording)
    verdict = solve(inst)
    assert verdict.status == "not-colorable"
    assert verdict.stats["peeled"] == 2
    assert sizes == [7]
    assert verdict.stats == solve(kernel).stats | {"peeled": 2}
