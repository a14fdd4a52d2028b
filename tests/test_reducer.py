"""The reduction rounds, their structural context, and certificate lifting."""

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from rp3color import (
    Graph,
    Instance,
    InstanceError,
    binary_list_color,
    colors_from_mask,
    eliminate_singletons,
    mask_from_colors,
    p_value,
    reduce_once,
    reduce_to_binary,
    solve_exact,
    solve_exact_frugal,
    verify_coloring,
)
from rp3color.instances import find_good_p3
from rp3color.oracle import exact_colorings
from rp3color.pipeline import candidate_stream, lift

from reducer_reference import (
    center_context,
    center_context_report,
    check_center_context,
)


def mk(n, edges, lists, k=5):
    return Instance(Graph(n, edges), k, tuple(mask_from_colors(l) for l in lists))


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
    assert step.kind == "spanning"
    assert step.info["step"] == 3
    assert step.info["witness"] == 0
    assert child.graph == inst.graph
    assert child.lists == (0,) * 6
    assert p_value(child) < p_value(inst)


def test_reduce_once_step4_isolated_center():
    inst = mk(3, [(1, 2)], [{1, 2, 3}, {4, 5}, {4, 5}])
    child, step = reduce_once(inst, 0)
    assert step.kind == "step4-removal"
    assert step.info["step"] == 4
    assert step.info["vertex"] == 0
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
    assert step.info["step"] == 5
    assert step.info["outcome"] == "5b"
    assert child.lists == (0,) * 4
    assert solve_exact_frugal(inst) is None


def test_reduce_once_step5c_local_ball():
    edges = [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
        (2, 3), (1, 4), (2, 4), (3, 4),
    ]
    inst = mk(5, edges, [{1, 2, 3}, {1, 4}, {2, 4}, {3, 4}, {4, 5}])
    child, step = reduce_once(inst, 0)
    assert step.kind == "step5c-removal"
    assert step.info["step"] == 5
    assert step.info["outcome"] == "5c"
    assert step.info["ball"] == (0, 1, 2, 3, 4)
    assert step.info["boundary"] == (4,)
    assert child.graph.n == 1
    assert child.list_of(0) == (5,)

    lifted = lift([step], (5,))
    assert verify_coloring(inst, lifted)
    assert (solve_exact(inst) is None) == (solve_exact(child) is None)
    assert solve_exact_frugal(inst) is not None
    assert solve_exact_frugal(child) is not None


def test_reduce_once_step11_contraction():
    inst = step11_fixture()
    assert find_good_p3(inst) is None
    assert center_context_report(inst, 0) == ("checked", [])

    child, step = reduce_once(inst, 0)
    assert step.kind == "step11-contraction"
    assert step.info["step"] == 11
    assert step.info["center"] == 0
    assert step.info["a"] == 1 and step.info["b"] == 2
    assert step.info["c"] == 3
    assert step.info["a_outer"] == 4 and step.info["b_outer"] == 5
    assert step.info["i"] == 1 and step.info["j"] == 3

    assert child.graph.n == 8
    assert child.list_of(0) == (1, 3)
    assert child.list_of(1) == (1, 4)
    assert child.list_of(2) == (3, 5)
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


def test_step11_under_every_palette():
    """Steps 6-11 name colors by role around the center, so step 11
    fires and lifts under every renaming of the palette."""
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
            assert assert_same_reduction(inst) == 1
            out, trace = reduce_to_binary(inst)
            fired[trace[0].info["step"]] += 1
            phi = binary_list_color(out)
            assert verify_coloring(inst, lift(trace, phi))
        assert fired == {8: 60, 9: 60}


def test_reduce_once_rejects():
    with pytest.raises(InstanceError, match="k="):
        reduce_once(mk(1, [], [{1, 2, 3}], k=3), 0)
    with pytest.raises(InstanceError, match="singleton"):
        reduce_once(mk(2, [(0, 1)], [{1, 2, 3}, {4}]), 0)
    with pytest.raises(InstanceError, match="below 3"):
        reduce_once(mk(1, [], [{1, 2}]), 0)


def test_reduce_to_binary_trivial():
    binary = mk(2, [(0, 1)], [{1, 2}, {4, 5}])
    out, trace = reduce_to_binary(binary)
    assert out == binary and trace == []

    single = mk(1, [], [{1, 2, 3}])
    out, trace = reduce_to_binary(single)
    assert out.graph.n == 0
    assert [s.info.get("step") for s in trace] == [4]
    assert lift(trace, ()) == (1,)


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
        for cand, _ in itertools.islice(candidate_stream(inst, 2), 6):
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
        for cand, _ in itertools.islice(candidate_stream(inst, 2), 4):
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


def reduce_by_rounds(inst):
    """reduce_to_binary rebuilt from scratch every round: reduce_once on
    a fresh instance, then eliminate_singletons on its output.  Returns
    the final instance, (step, outcome, singleton count) per round, and
    the joined per-round traces."""
    cur, rounds, trace = inst, [], []
    while True:
        u0 = next(
            (v for v in range(cur.graph.n) if cur.lists[v].bit_count() >= 3),
            None,
        )
        if u0 is None:
            return cur, rounds, trace
        before = p_value(cur)
        nxt, step = reduce_once(cur, u0)
        cur, killed = eliminate_singletons(nxt)
        if p_value(cur) >= before:
            raise RuntimeError("potential failed to drop")
        rounds.append((step.info["step"], step.info.get("outcome"), len(killed)))
        trace += [step] + killed


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


def assert_same_reduction(inst):
    try:
        out, trace = reduce_to_binary(inst)
    except (InstanceError, RuntimeError) as exc:
        with pytest.raises(type(exc)):
            reduce_by_rounds(inst)
        return 0
    want, rounds, per_round = reduce_by_rounds(inst)
    got = []
    for s in trace:
        if "step" in s.info:
            got.append((s.info["step"], s.info.get("outcome"), 0))
        else:
            got[-1] = got[-1][:2] + (got[-1][2] + 1,)
    assert got == rounds
    assert out == want
    phi = binary_list_color(out)
    if phi is not None:
        try:
            lifted = lift(trace, phi)
        except RuntimeError:
            # lifting may fail only when the input has a good P3
            assert find_good_p3(inst) is not None
            with pytest.raises(RuntimeError):
                lift(per_round, phi)
            return len(rounds)
        assert lifted == lift(per_round, phi)
        assert verify_coloring(inst, lifted)
    return len(rounds)


def test_incremental_reduction_matches_fresh_rounds():
    rng = random.Random(7)
    cands = 0
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 5))
        for cand, _ in itertools.islice(candidate_stream(inst, 2), 6):
            cands += 1
            assert_same_reduction(cand)
    assert cands >= 60
    rng = random.Random(77)
    rounds = sum(
        assert_same_reduction(bounded_degree_instance(rng, rng.randint(4, 40)))
        for _ in range(150)
    )
    assert rounds >= 1000


def test_corrupted_undo_record_fails_lift():
    inst = mk(4, [(0, 1), (2, 3)], [{1, 2, 3}, {1, 4}, {4, 5}, {4, 5}])
    out, trace = reduce_to_binary(inst)
    assert [s.info["step"] for s in trace] == [4]
    phi = binary_list_color(out)
    assert verify_coloring(inst, lift(trace, phi))

    step = trace[0]
    u = step.info["vertex"]
    # a saved list the vertex never had: caught by the final check
    bad = replace(step, lists={u: mask_from_colors({5})})
    with pytest.raises(RuntimeError, match="outside its list"):
        lift([bad], phi)
    # a forgotten list-graph neighbor: caught when the vertex is restored
    bad = replace(step, info=dict(step.info, gl_neighbors=()))
    with pytest.raises(RuntimeError, match="monochromatic"):
        lift([bad], phi)
