"""The reduction rounds, their structural context, and certificate lifting."""

import itertools
import logging
import random
from collections import Counter

import pytest

from rp3color import (
    Graph,
    Instance,
    InstanceError,
    SolveOptions,
    anticomplete_packing,
    binary_list_color,
    coloring_defect,
    colors_from_mask,
    frugal_colorings,
    induced_subgraph,
    mask_from_colors,
    reduce_once,
    reduce_to_binary,
    solve,
    solve_exact,
    solve_exact_frugal,
)
from rp3color import pipeline, reducer
from rp3color.oracle import exact_colorings
from rp3color.pipeline import candidate_stream, lift
from rp3color.working import LiftStep

from builders import mk
from instance_reference import find_good_p3, list_graph, p_value, verify_coloring
from reducer_reference import (
    center_context,
    center_context_report,
    check_center_context,
    eliminate_singletons,
    lift_by_brute_force,
    outcome,
    record_kind,
    record_vertex,
    step5_ball,
    step11_roles,
)


def small_center_fixture():
    # center 0 with one ring vertex per side and one attachment each
    edges = [(0, 1), (0, 2), (1, 3), (2, 4)]
    lists = [{1, 2, 3}, {1, 4}, {2, 5}, {4, 5}, {4, 5}]
    return mk(5, edges, lists)


def step11_fixture():
    # an 8-cycle 0-1-4-6-7-8-5-2-0 of intersecting lists, plus vertex 3
    # completing a triangle with the center and its four-side vertex
    edges = [
        (0, 1), (0, 2), (0, 3), (1, 3), (1, 4),
        (2, 5), (4, 6), (6, 7), (7, 8), (8, 5),
    ]
    lists = [
        {1, 2, 3}, {1, 4}, {3, 5}, {1, 2}, {4, 5},
        {4, 5}, {2, 5}, {1, 2}, {1, 4},
    ]
    return mk(9, edges, lists)


def step8_fixture():
    # a bounded-degree draw whose one round fires step 8 at center 3
    edges = [(0, 1), (0, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)]
    lists = [{1, 4}, {4, 5}, {1, 2}, {1, 2, 3}, {1, 4}, {2, 5}]
    return mk(6, edges, lists)


def step9_fixture():
    # a bounded-degree draw whose one round fires step 9 at center 3
    edges = [
        (0, 1), (0, 2), (0, 4), (0, 5), (1, 4),
        (2, 3), (2, 4), (2, 5), (3, 4), (3, 5),
    ]
    lists = [{1, 4}, {4, 5}, {3, 5}, {1, 2, 3}, {3, 5}, {1, 2}]
    return mk(6, edges, lists)


def step10_fixture():
    # no good P3 and no two anticomplete P3s: center 0 ({1,2,3}) has the
    # ring 1, 2, 5, 6, the four-side attachment 8 and the five-side
    # attachment 9, both on {4,5}
    edges = [
        (0, 1), (0, 2), (0, 5), (0, 6), (1, 2), (1, 5), (1, 7),
        (2, 3), (2, 6), (2, 8), (3, 4), (3, 6), (3, 7), (3, 8),
        (4, 7), (4, 8), (4, 9), (5, 9), (6, 8), (7, 9),
    ]
    lists = [
        {1, 2, 3}, {2, 3}, {1, 2, 4}, {3, 5}, {1, 3},
        {3, 5}, {1, 4}, {1, 4}, {4, 5}, {4, 5},
    ]
    return mk(10, edges, lists)


def step10_lift_fixture():
    # a seeded draw with a good P3 whose first round fires step 10 at
    # center 1 ({1,2,3,4}), pinning the four-side attachment 5 and the
    # five-side attachment 2, and whose output 2-SAT colors
    edges = [
        (0, 1), (0, 2), (1, 3), (1, 4), (1, 6),
        (2, 3), (2, 5), (3, 4), (4, 6), (5, 6),
    ]
    lists = [{2, 5}, {1, 2, 3, 4}, {1, 2, 5}, {2, 3, 5}, {3, 4, 5}, {4, 5}, {1, 3, 4}]
    return mk(7, edges, lists)


def step5c_fixture():
    # center 0 in the K4 on 0-3, whose other three vertices also see
    # vertex 4: the list-graph 2-ball of 0 has the one boundary vertex 4
    edges = [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
        (2, 3), (1, 4), (2, 4), (3, 4),
    ]
    return mk(5, edges, [{1, 2, 3}, {1, 4}, {2, 4}, {3, 4}, {4, 5}])


def step5c_closed_ball_fixture():
    # a K4 whose lists give every vertex three colors and three
    # list-graph neighbors: the 2-ball of 0 is the whole graph
    edges = list(itertools.combinations(range(4), 2))
    return mk(4, edges, [{1, 2, 3}, {1, 2, 3}, {1, 2, 4}, {3, 4, 5}])


PALETTES = list(itertools.permutations(range(1, 6)))


def permuted(inst, sigma):
    """``inst`` with every color c renamed sigma[c - 1]."""
    lists = tuple(
        mask_from_colors(sigma[c - 1] for c in colors_from_mask(m))
        for m in inst.lists
    )
    return Instance(inst.graph, inst.k, lists)


def test_center_context_fixture():
    inst = small_center_fixture()
    ctx = center_context(inst, 0)
    assert ctx.ring == (1, 2)
    assert ctx.second == (3, 4)
    assert ctx.four_side == (1,)
    assert ctx.five_side == (2,)
    assert ctx.four_outer == (3,)
    assert ctx.five_outer == (4,)
    assert check_center_context(ctx, inst) == []
    assert center_context_report(inst, 0) == ("checked", [])


def test_center_context_empty_sides():
    lonely = mk(2, [], [{1, 2, 3}, {4, 5}])
    ctx = center_context(lonely, 0)
    assert ctx.ring == () and ctx.second == ()
    assert ctx.four_side == () and ctx.five_outer == ()

    plain = mk(2, [(0, 1)], [{1, 2, 3}, {1, 2}])
    ctx = center_context(plain, 0)
    assert ctx.ring == (1,)
    assert ctx.four_side == () and ctx.five_side == ()
    assert ctx.four_outer == () and ctx.five_outer == ()


def test_center_context_rejects_bad_hypotheses():
    with pytest.raises(InstanceError, match="k="):
        center_context(mk(1, [], [{1, 2, 3}], k=3), 0)
    with pytest.raises(InstanceError, match="list size"):
        center_context(mk(2, [(0, 1)], [{1, 2, 3}, {4}]), 0)
    with pytest.raises(InstanceError, match="center list"):
        center_context(mk(1, [], [{1, 2, 4}]), 0)
    spiky = mk(
        4,
        [(1, 2), (2, 3)],
        [{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}],
        k=5,
    )
    with pytest.raises(InstanceError, match="good P3"):
        center_context(spiky, 0)

    status, reason = center_context_report(spiky, 0)
    assert status == "skipped" and "good P3" in reason


def test_check_center_context_flags_mutations():
    inst = small_center_fixture()
    ctx = center_context(inst, 0)

    off_ring = Instance(
        inst.graph,
        5,
        tuple(
            mask_from_colors({2, 4}) if v == 3 else m
            for v, m in enumerate(inst.lists)
        ),
    )
    assert check_center_context(ctx, off_ring) == ["second-ring-lists"]

    shared_color = Instance(
        inst.graph,
        5,
        tuple(
            mask_from_colors({2, 4}) if v == 2 else m
            for v, m in enumerate(inst.lists)
        ),
    )
    assert check_center_context(ctx, shared_color) == ["pinched-ring"]


def test_reduce_once_step3_star():
    edges = [(0, v) for v in range(1, 6)]
    lists = [{1, 2, 3}, {1, 4}, {1, 5}, {2, 4}, {2, 5}, {3, 4}]
    inst = mk(6, edges, lists)
    child, step = reduce_once(inst, 0)
    assert record_kind(step) == "spanning"
    assert step.info == {"step": 3}
    # the step-3 witness: the one vertex with five list-graph neighbors
    gl = list_graph(inst)
    assert [v for v in range(6) if gl.adj_mask[v].bit_count() >= 5] == [0]
    assert child.graph == inst.graph
    assert child.lists == (0,) * 6
    assert p_value(child) < p_value(inst)


def test_reduce_once_step4_isolated_center():
    inst = mk(3, [(1, 2)], [{1, 2, 3}, {4, 5}, {4, 5}])
    child, step = reduce_once(inst, 0)
    assert record_kind(step) == "step4-removal"
    assert step.info == {"step": 4}
    assert record_vertex(step) == 0
    assert child.graph.n == 2
    assert child.lists == (mask_from_colors({4, 5}),) * 2
    lifted = lift([step], (4, 5))
    assert lifted == (1, 4, 5)
    assert verify_coloring(inst, lifted)


def test_reduce_once_step5b_dead_ball():
    inst = mk(
        4,
        list(itertools.combinations(range(4), 2)),
        [{1, 2, 3}, {1, 2}, {1, 3}, {2, 3}],
    )
    child, step = reduce_once(inst, 0)
    assert step.info == {"step": 5}
    assert outcome(step) == "5b"
    assert child.lists == (0,) * 4
    assert solve_exact_frugal(inst) is None


def test_reduce_once_step5c_local_ball():
    inst = step5c_fixture()
    child, step = reduce_once(inst, 0)
    assert record_kind(step) == "step5c-removal"
    assert step.info == {"step": 5}
    assert outcome(step) == "5c"
    assert step5_ball(inst, step) == ((0, 1, 2, 3, 4), (4,))
    assert child.graph.n == 1
    assert colors_from_mask(child.lists[0]) == (5,)

    lifted = lift([step], (5,))
    assert verify_coloring(inst, lifted)
    assert (solve_exact(inst) is None) == (solve_exact(child) is None)
    assert solve_exact_frugal(inst) is not None
    assert solve_exact_frugal(child) is not None


@pytest.mark.parametrize("fixture", [step5c_fixture, step5c_closed_ball_fixture])
def test_step5c_boundary_keeps_the_realized_colors(fixture):
    """Step 5c leaves the boundary exactly the colors that frugal
    colorings of the ball give it, and each of them lifts; with no
    boundary the whole instance is the ball, which has such a coloring."""
    inst = fixture()
    child, step = reduce_once(inst, 0)
    assert record_kind(step) == "step5c-removal"
    ball, boundary = step5_ball(inst, step)
    sub, _ = induced_subgraph(inst.graph, ball)
    local = frugal_colorings(Instance(sub, 5, tuple(inst.lists[v] for v in ball)))
    if boundary:
        pos = ball.index(boundary[0])
        realized = {phi[pos] for phi in local}
        assert set(colors_from_mask(child.lists[0])) == realized
        for c in sorted(realized):
            assert verify_coloring(inst, lift([step], (c,)))
    else:
        assert child.graph.n == 0 and next(local, None) is not None
        assert verify_coloring(inst, lift([step], ()))


def test_step5c_lift_rejects_an_unrealized_boundary_color():
    """A boundary color that no ball coloring realized (4 here, while
    step 5 left the boundary the list {5}) has nothing to lift to."""
    _, step = reduce_once(step5c_fixture(), 0)
    with pytest.raises(
        RuntimeError, match=r"no free coloring when restoring vertices \(0, 1, 2, 3\)"
    ):
        lift([step], (4,))


def test_reduce_once_step11_contraction():
    inst = step11_fixture()
    assert find_good_p3(inst) is None
    assert center_context_report(inst, 0) == ("checked", [])

    child, step = reduce_once(inst, 0)
    assert record_kind(step) == "step11-contraction"
    assert step.info == {"step": 11}
    assert step.lists == {v: inst.lists[v] for v in (0, 1, 2, 3)}
    roles = step11_roles(inst, step)
    assert roles["center"] == 0
    assert roles["a"] == 1 and roles["b"] == 2
    assert roles["c"] == 3
    assert roles["a_outer"] == 4 and roles["b_outer"] == 5
    assert roles["i"] == 1 and roles["j"] == 3

    assert child.graph.n == 8
    assert colors_from_mask(child.lists[0]) == (1, 3)
    assert colors_from_mask(child.lists[1]) == (1, 4)
    assert colors_from_mask(child.lists[2]) == (3, 5)
    assert p_value(child) < p_value(inst)

    assert (solve_exact(inst) is None) == (solve_exact(child) is None)
    assert solve_exact_frugal(inst) is not None
    assert solve_exact_frugal(child) is not None

    outers = set()
    for phi in exact_colorings(child):
        lifted = lift([step], phi)
        assert verify_coloring(inst, lifted)
        outers.add((phi[3], phi[4]))
    assert outers == {(4, 4), (5, 5)}


def test_step11_under_every_palette(monkeypatch):
    """Steps 6-11 name colors by role around the center, so step 11
    fires and lifts under every renaming of the palette, and a forced
    solve (the fixture is not 2P3-free) reaches exactly one step-11
    round and certifies its coloring."""
    real = pipeline.reduce_to_binary
    step11 = 0

    def counting(leaf):
        nonlocal step11
        out, trace = real(leaf)
        step11 += sum(s.info.get("step") == 11 for s in trace)
        return out, trace

    monkeypatch.setattr(pipeline, "reduce_to_binary", counting)
    base = step11_fixture()
    for sigma in PALETTES:
        inst = permuted(base, sigma)
        out, trace = reduce_to_binary(inst)
        assert [s.info.get("step") for s in trace] == [11]
        assert all(m.bit_count() in (0, 2) for m in out.lists)
        assert p_value(out) < p_value(inst)
        phi = binary_list_color(out)
        assert phi is not None
        assert verify_coloring(inst, lift(trace, phi))
        for phi in exact_colorings(out):
            assert verify_coloring(inst, lift(trace, phi))
        step11 = 0
        verdict = solve(inst, SolveOptions(force=True))
        assert verdict.status == "colorable"
        assert coloring_defect(inst, verdict.coloring) is None
        assert step11 == 1


def test_twin_steps_under_every_palette():
    """Steps 8 and 9 under every renaming of the palette: which side is
    the four side follows the order of the two colors outside L(u0), so
    each fixture fires step 8 under half the renamings and step 9 under
    the other half, and always lifts."""
    for fixture, step in ((step8_fixture, 8), (step9_fixture, 9)):
        assert reduce_once(fixture(), 3)[1].info["step"] == step
        fired = Counter()
        for sigma in PALETTES:
            inst = permuted(fixture(), sigma)
            assert len(assert_same_reduction(inst)) == 1
            out, trace = reduce_to_binary(inst)
            fired[trace[0].info["step"]] += 1
            phi = binary_list_color(out)
            assert verify_coloring(inst, lift(trace, phi))
        assert fired == {8: 60, 9: 60}


def changed_lists(inst, child):
    """The new colors of each list a round changed, keeping every vertex."""
    return {
        v: colors_from_mask(m) for v, m in enumerate(child.lists) if m != inst.lists[v]
    }


def test_step10_pins_both_outer_attachments(monkeypatch):
    """Step 10 fires with an attachment on each side in an input with no
    good P3 that the packing check passes, at the reducer's first round
    and inside an unforced solve, whose verdict agrees with the exact
    solver."""
    inst = step10_fixture()
    assert find_good_p3(inst) is None
    assert anticomplete_packing(inst.graph, 2, 3) is None
    child, step = reduce_once(inst, 0)
    assert step.info == {"step": 10} and step.lists == {}
    assert changed_lists(inst, child) == {8: (5,), 9: (4,)}
    assert [r[0] for r in assert_same_reduction(inst)] == [10, 5]

    real = pipeline.reduce_to_binary
    reduced = []

    def recording(leaf):
        out, trace = real(leaf)
        reduced.append((leaf, [s.info.get("step") for s in trace]))
        return out, trace

    monkeypatch.setattr(pipeline, "reduce_to_binary", recording)
    assert solve(inst).status == "not-colorable"
    assert solve_exact(inst) is None
    # the identity element comes first, so the first leaf is the input
    leaf, steps = reduced[0]
    assert leaf == inst and steps[0] == 10


def test_step10_lift_matches_brute_force():
    inst = step10_lift_fixture()
    assert find_good_p3(inst) is not None
    child, step = reduce_once(inst, 1)
    assert step.info == {"step": 10}
    assert changed_lists(inst, child) == {2: (1, 2), 5: (5,)}
    assert [r[0] for r in assert_same_reduction(inst)] == [10] + [4] * 6
    out, trace = reduce_to_binary(inst)
    phi = binary_list_color(out)
    lifted = lift(trace, phi)
    assert lifted == lift_by_brute_force(trace, phi)[0]
    assert verify_coloring(inst, lifted)


def test_reduce_once_rejects():
    with pytest.raises(InstanceError, match="k="):
        reduce_once(mk(1, [], [{1, 2, 3}], k=3), 0)
    with pytest.raises(InstanceError, match="singleton"):
        reduce_once(mk(2, [(0, 1)], [{1, 2, 3}, {4}]), 0)
    with pytest.raises(InstanceError, match="below 3"):
        reduce_once(mk(1, [], [{1, 2}]), 0)
    with pytest.raises(InstanceError, match="k=3, need 5"):
        reduce_to_binary(mk(1, [], [{1, 2, 3}], k=3))


def test_reduce_to_binary_trivial():
    binary = mk(2, [(0, 1)], [{1, 2}, {4, 5}])
    out, trace = reduce_to_binary(binary)
    assert out == binary and trace == []

    single = mk(1, [], [{1, 2, 3}])
    out, trace = reduce_to_binary(single)
    assert out.graph.n == 0
    assert [s.info.get("step") for s in trace] == [4]
    assert lift(trace, ()) == (1,)


def test_reduce_to_binary_accepts_singletons():
    """One-color lists beside a list of three or more colors are deleted
    first, in the same trace; without such a list the input comes back
    as it is, one-color lists and all."""
    binary = mk(3, [(0, 1), (1, 2)], [{1}, {2, 3}, {4}])
    assert reduce_to_binary(binary) == (binary, [])
    # already propagated: no neighbor of {1} or {5} holds its color
    done = mk(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        [{1}, {2, 3}, {2, 3, 4}, {3, 4}, {5}],
    )
    # not yet propagated: deleting 0 leaves 1 with {2}, and deleting
    # that leaves 2 with {1, 3, 4}
    fresh = mk(
        4,
        [(0, 1), (1, 2), (2, 3)],
        [{1}, {1, 2}, {1, 2, 3, 4}, {3, 4, 5}],
    )
    for inst, deleted in ((done, [0, 4]), (fresh, [0, 1])):
        out, trace = reduce_to_binary(inst)
        assert all(m.bit_count() in (0, 2) for m in out.lists)
        lead = [record_vertex(s) for s in trace[: len(deleted)]]
        assert lead == deleted
        assert {record_kind(s) for s in trace[: len(deleted)]} == {"singleton-removal"}
        assert all("step" in s.info for s in trace[len(deleted) :])
        assert len(trace) > len(deleted)
        phi = binary_list_color(out)
        assert phi is not None
        assert verify_coloring(inst, lift(trace, phi))


def test_reduce_to_binary_on_fixture():
    inst = step11_fixture()
    out, trace = reduce_to_binary(inst)
    assert all(m.bit_count() in (0, 2) for m in out.lists)
    phi = solve_exact(out)
    assert phi is not None
    lifted = lift(trace, phi)
    assert verify_coloring(inst, lifted)


def random_instance(rng, n, k=5):
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < 0.45
    ]
    lists = []
    for _ in range(n):
        mask = 0
        for c in range(1, k + 1):
            if rng.random() < 0.55:
                mask |= 1 << (c - 1)
        lists.append(mask)
    return Instance(Graph(n, edges), k, tuple(lists))


def test_reduction_contract_on_random_candidates():
    """Every reduction run on pipeline-prepared instances keeps the
    contract: binary output, frugality forward, liftable backward."""
    rng = random.Random(7)
    seen = 0
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 5))
        for cand in itertools.islice(candidate_stream(inst, 2), 6):
            if all(m.bit_count() <= 2 for m in cand.lists):
                continue
            seen += 1
            before = p_value(cand)
            out, trace = reduce_to_binary(cand)
            assert all(m.bit_count() in (0, 2) for m in out.lists)
            assert p_value(out) < before

            if solve_exact_frugal(cand) is not None:
                assert solve_exact_frugal(out) is not None
            phi = solve_exact(out)
            if phi is not None:
                assert verify_coloring(cand, lift(trace, phi))
    assert seen >= 30


def test_big_lists_resolve_early():
    """A list of size four or more always exits through steps 3-5."""
    rng = random.Random(11)
    checked = 0
    for _ in range(80):
        inst = random_instance(rng, rng.randint(1, 5))
        for leaf in itertools.islice(candidate_stream(inst, 2), 4):
            # reduce_once takes no one-color list
            cand, _ = eliminate_singletons(leaf)
            if max((m.bit_count() for m in cand.lists), default=0) < 4:
                continue
            u0 = next(
                v for v in range(cand.graph.n)
                if cand.lists[v].bit_count() >= 3
            )
            _, step = reduce_once(cand, u0)
            assert step.info["step"] <= 5
            checked += 1
    assert checked >= 20


def big(inst):
    """Lowest vertex with a list of three or more colors, or None."""
    return next(
        (v for v in range(inst.graph.n) if inst.lists[v].bit_count() >= 3), None
    )


def reduce_by_rounds(inst):
    """reduce_to_binary rebuilt from scratch every step: eliminate_singletons
    on the input, then each round reduce_once on a fresh instance and
    eliminate_singletons on its output.  Returns the final instance, the
    input's singleton count, (step, outcome, singleton count) per round,
    and the traces of these steps in order."""
    if big(inst) is None:
        return inst, 0, [], []
    cur, killed = eliminate_singletons(inst)
    lead, rounds, traces = len(killed), [], [killed]
    while True:
        u0 = big(cur)
        if u0 is None:
            return cur, lead, rounds, traces
        before = p_value(cur)
        nxt, step = reduce_once(cur, u0)
        cur, killed = eliminate_singletons(nxt)
        if p_value(cur) >= before:
            raise RuntimeError("potential failed to drop")
        rounds.append((step.info["step"], outcome(step), len(killed)))
        traces += [[step], killed]


def lift_each(traces, phi):
    """``phi`` lifted through each trace in turn, the last one first."""
    for trace in reversed(traces):
        phi = lift(trace, phi)
    return phi


def bounded_degree_instance(rng, n):
    """Max degree 4 and lists of size 2 or 3, so rounds get past steps
    3 and 4; good P3s are not excluded."""
    palette = [0b00111, 0b11000, 0b01001, 0b10010, 0b10100, 0b01100, 0b00011]
    deg = [0] * n
    edges = set()
    for _ in range(2 * n):
        u, v = sorted(rng.sample(range(n), 2))
        if deg[u] < 4 and deg[v] < 4 and (u, v) not in edges:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    lists = tuple(rng.choice(palette) for _ in range(n))
    return Instance(Graph(n, sorted(edges)), 5, lists)


def disjoint_union(rng, parts):
    """The disjoint union of the instances ``parts`` with its vertex ids
    shuffled, so the lowest-id choices of the rounds interleave them."""
    n = sum(p.graph.n for p in parts)
    ids = list(range(n))
    rng.shuffle(ids)
    edges, lists, base = [], [0] * n, 0
    for p in parts:
        edges += [(ids[base + u], ids[base + v]) for u, v in p.graph.edges]
        for v, m in enumerate(p.lists):
            lists[ids[base + v]] = m
        base += p.graph.n
    return Instance(Graph(n, edges), 5, tuple(lists))


def cliques_and_star(rng, n):
    """Disjoint K1-K4 cliques plus one star, n vertices in all: every
    list holds at least as many colors as its clique and at least two,
    so nearly every round is step 4."""
    leaves = rng.randint(1, 8)
    # at most four leaves share a color with the center, which keeps
    # it below five list-graph neighbors (step 3)
    star_lists = [{3, 4}] + [
        rng.choice(({1, 2}, {1, 2, 3})) if v <= 4 else {1, 2}
        for v in range(1, leaves + 1)
    ]
    star = mk(leaves + 1, [(0, v) for v in range(1, leaves + 1)], star_lists)
    parts, left = [star], n - leaves - 1
    while left > 0:
        size = min(rng.randint(1, 4), left)
        lists = [
            rng.sample(range(1, 6), rng.randint(max(size, 2), 5))
            for _ in range(size)
        ]
        parts.append(mk(size, itertools.combinations(range(size), 2), lists))
        left -= size
    return disjoint_union(rng, parts)


def step4_mix(rng, n):
    """Cliques and a star beside fixtures whose rounds fire steps 5-11;
    those rounds leave low vertices behind, so step-4 runs stop and
    resume."""
    fixtures = [
        small_center_fixture,
        step11_fixture,
        step8_fixture,
        step9_fixture,
        step5c_fixture,
    ]
    extra = [rng.choice(fixtures)() for _ in range(rng.randint(3, 6))]
    return disjoint_union(rng, [cliques_and_star(rng, n)] + extra)


def assert_same_reduction(inst, lifted=None):
    """reduce_to_binary equals reduce_by_rounds on ``inst``: the same
    singleton removals, rounds, output and lifted coloring.  Returns the
    (step, outcome, singleton count) of each round, and adds the kinds
    of a trace that lifts to the Counter ``lifted``."""
    try:
        out, trace = reduce_to_binary(inst)
    except (InstanceError, RuntimeError) as exc:
        with pytest.raises(type(exc)):
            reduce_by_rounds(inst)
        return []
    want, lead, rounds, per_step = reduce_by_rounds(inst)
    got, killed = [], 0
    for s in trace:
        if "step" in s.info:
            got.append((s.info["step"], outcome(s), 0))
        elif got:
            got[-1] = got[-1][:2] + (got[-1][2] + 1,)
        else:
            killed += 1
    assert killed == lead
    assert got == rounds
    assert out == want
    phi = binary_list_color(out)
    if phi is not None:
        try:
            lifted_phi = lift(trace, phi)
        except RuntimeError:
            # lifting may fail only when the input has a good P3
            assert find_good_p3(inst) is not None
            with pytest.raises(RuntimeError):
                lift_each(per_step, phi)
            return rounds
        assert lifted_phi == lift_each(per_step, phi)
        assert verify_coloring(inst, lifted_phi)
        if lifted is not None:
            lifted.update(record_kind(s) for s in trace)
    return rounds


def test_incremental_reduction_matches_fresh_rounds():
    lifted = Counter()
    rng = random.Random(7)
    cands = 0
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 5))
        for leaf in itertools.islice(candidate_stream(inst, 2), 6):
            cands += 1
            assert_same_reduction(leaf, lifted)
    assert cands >= 60
    rng = random.Random(77)
    rounds = sum(
        len(
            assert_same_reduction(
                bounded_degree_instance(rng, rng.randint(4, 40)), lifted
            )
        )
        for _ in range(150)
    )
    assert rounds >= 1000
    # step-4 sweeps: one reduce_once round per removal, also where
    # rounds of steps 5-11 break a step-4 run and it resumes
    rng = random.Random(14)
    step4 = resumed = 0
    for family in (cliques_and_star, step4_mix):
        for _ in range(40):
            inst = family(rng, rng.randint(20, 80))
            steps = [r[0] for r in assert_same_reduction(inst, lifted)]
            step4 += steps.count(4)
            resumed += sum(5 <= a <= 11 and b == 4 for a, b in zip(steps, steps[1:]))
    assert step4 >= 3000
    assert resumed >= 25
    # the multi-vertex lift path: step-5c balls and step-11 cores
    assert lifted["step5c-removal"] >= 60
    assert lifted["step11-contraction"] >= 35


def test_lift_reads_only_lists_and_closing():
    """Blanking every record's info changes no lift: the lift reads a
    record's saved lists and, on the last one, its closing data."""
    rng = random.Random(20)
    kinds, steps = Counter(), set()
    for _ in range(30):
        inst = step4_mix(rng, rng.randint(20, 60))
        out, trace = reduce_to_binary(inst)
        phi = binary_list_color(out)
        if phi is None:
            continue
        want = lift(trace, phi)
        assert verify_coloring(inst, want)
        assert lift([s._replace(info={}) for s in trace], phi) == want
        kinds.update(record_kind(s) for s in trace)
        steps.update(s.info.get("step") for s in trace)
    assert min(kinds.values()) >= 10 and len(kinds) == 5
    assert {4, 5, 8, 9, 11} <= steps


def test_corrupted_undo_record_fails_lift():
    inst = mk(4, [(0, 1), (2, 3)], [{1, 2, 3}, {1, 4}, {4, 5}, {4, 5}])
    out, trace = reduce_to_binary(inst)
    assert [s.info["step"] for s in trace] == [4]
    phi = binary_list_color(out)
    assert verify_coloring(inst, lift(trace, phi))

    step = trace[0]
    u = record_vertex(step)
    # a saved list the vertex never had: caught by the final check
    bad = step._replace(lists={u: mask_from_colors({5})})
    with pytest.raises(RuntimeError, match="outside its list"):
        lift([bad], phi)
    # a saved list that the neighbors use up
    (w,) = (x for x in range(4) if inst.graph.has_edge(u, x))
    bad = step._replace(lists={u: 1 << (lift(trace, phi)[w] - 1)})
    with pytest.raises(RuntimeError, match=f"no free color when restoring vertex {u}"):
        lift([bad], phi)


def test_lift_matches_brute_force_rule():
    """lift equals the rule enumerated by brute force on 300 seeded
    bounded-degree draws.  Among them are step-11 records whose center
    and anchors, kept in the output, still hold their output colors when
    the record is undone; the rule ignores those, so the lift recolors
    some of them.  As in assert_same_reduction, only an input with a
    good P3 may fail to reduce; lift fails exactly where the rule finds
    no coloring for some record."""
    rng = random.Random(77)
    lifts = recolored = 0
    for _ in range(300):
        inst = bounded_degree_instance(rng, rng.randint(4, 40))
        try:
            out, trace = reduce_to_binary(inst)
        except (InstanceError, RuntimeError):
            assert find_good_p3(inst) is not None
            continue
        phi = binary_list_color(out)
        if phi is None or not trace:
            continue
        want = lift_by_brute_force(trace, phi)
        if want is None:
            with pytest.raises(RuntimeError, match="no free color"):
                lift(trace, phi)
            continue
        assert lift(trace, phi) == want[0]
        lifts += 1
        recolored += want[1]
    assert lifts >= 100
    assert recolored >= 1


def test_lift_step4_skips_only_taken_colors():
    """An uncolored neighbor (color 0) takes no color: the vertex gets
    the smallest color of its list that a colored neighbor leaves."""
    inst = mk(3, [(0, 1), (0, 2)], [{2, 4, 5}, {1, 3, 4}, {1, 2, 3}])
    for neighbors, want in (((0, 0), 2), ((0, 2), 4), ((4, 2), 5)):
        # a neighbor at 0 is deleted by an older record, so it is still
        # uncolored when the closing record restores vertex 0
        pairs = list(zip((1, 2), neighbors))
        older = [
            LiftStep({"step": 4}, {w: inst.lists[w]})
            for w, c in pairs
            if not c
        ]
        keep = tuple(w for w, c in pairs if c)
        last = LiftStep({"step": 4}, {0: inst.lists[0]}, closing=(inst, keep))
        lifted = lift(older + [last], tuple(c for c in neighbors if c))
        assert lifted[0] == want
        assert verify_coloring(inst, lifted)


def test_step4_removes_every_low_vertex():
    """300 disjoint triangles with lists {1,2,3}: every vertex is low,
    so reduce_to_binary removes all 900, one step-4 record each."""
    n = 900
    edges = [
        e for t in range(0, n, 3) for e in itertools.combinations(range(t, t + 3), 2)
    ]
    inst = mk(n, edges, [{1, 2, 3}] * n)
    out, trace = reduce_to_binary(inst)
    assert out.graph.n == 0
    assert [record_kind(s) for s in trace] == ["step4-removal"] * n


def test_debug_log_accounts_for_every_round(caplog):
    """At DEBUG, each round logs its step, so the log holds the trace's
    reduction rounds."""
    rng = random.Random(3)
    inst = step4_mix(rng, 40)
    with caplog.at_level(logging.DEBUG, logger="rp3color"):
        _, trace = reduce_to_binary(inst)
    rounds = [r.args[0] for r in caplog.records if r.message.startswith("round")]
    steps = [s.info["step"] for s in trace if "step" in s.info]
    assert rounds and steps.count(4) >= 2
    assert sorted(rounds) == sorted(steps)


def test_thousand_k4_kernel_runs_step5_through_solve(monkeypatch):
    """1,000 disjoint K4s, each with lists {1,2,3}, {1,2,4}, {1,3,4} and
    {2,3,4}: nothing peels (each vertex has three list-graph neighbors
    and three colors), the complement is connected, and the graph has
    no induced P3, so the profile's first element is a walk leaf whose
    one reduction runs step 5 once per K4."""
    quads = 1000
    edges = [
        (4 * i + a, 4 * i + b)
        for i in range(quads)
        for a, b in itertools.combinations(range(4), 2)
    ]
    lists = [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}] * quads
    inst = mk(4 * quads, edges, lists)
    real = reducer._round
    steps = Counter()

    def counting(ws, u0):
        fired = len(ws.trace)
        real(ws, u0)
        steps[ws.trace[fired].info["step"]] += 1

    monkeypatch.setattr(reducer, "_round", counting)
    verdict = solve(inst)
    assert verdict.status == "colorable"
    assert coloring_defect(inst, verdict.coloring) is None
    assert verdict.stats == {
        "elements": 1, "nodes": 1, "leaves": 1, "pruned": 0, "peeled": 0, "split": 0
    }
    assert steps == {5: quads}
