"""Acceptance battery: eight desk-scale sweeps plus a determinism re-run.

Every criterion function returns (ok, log, extra) where log is a
deterministic transcript: no timings, no addresses, nothing dependent
on scheduling.  The battery fixture executes the whole set twice with
identical seeds; the final test compares the transcripts byte for byte.
"""

import itertools
import random
import time

import pytest

from rp3color import (
    Graph,
    Instance,
    NaeInstance,
    SolveOptions,
    anticomplete_packing,
    binary_list_color,
    build_hardness_graph,
    candidate_stream,
    lift,
    mask_from_colors,
    nae_brute,
    p_value,
    reduce_once,
    solve,
    solve_exact,
    solve_exact_frugal,
    verify_coloring,
)
from rp3color.instances import find_good_p3
from rp3color.profiles import frugal_profile

from goodp3_reference import eliminate_good_p3
from profile_reference import Hypergraph, cover_bound, hypergraph_stats
from reducer_reference import center_context_report


def random_instance(rng, max_n, include=0.6, density=0.4):
    n = rng.randint(1, max_n)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    lists = []
    for _ in range(n):
        mask = 0
        for c in range(5):
            if rng.random() < include:
                mask |= 1 << c
        lists.append(mask)
    return Instance(Graph(n, edges), 5, tuple(lists))


def biased_instance(rng):
    """Sparse graphs whose lists have size 2 or 3, often exactly {1,2,3}."""
    n = rng.randint(3, 8)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35]
    lists = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.3:
            mask = 0b00111
        elif roll < 0.65:
            mask = mask_from_colors(rng.sample(range(1, 6), 2))
        else:
            mask = mask_from_colors(rng.sample(range(1, 6), 3))
        lists.append(mask)
    return Instance(Graph(n, edges), 5, tuple(lists))


def run_criterion_1():
    """Pipeline verdict equals oracle on 300 packing-free instances."""
    rng = random.Random(101)
    lines = []
    kept = colorable = 0
    started = time.perf_counter()
    while kept < 300:
        inst = random_instance(rng, 9)
        if anticomplete_packing(inst.graph, 2, 3) is not None:
            continue
        verdict = solve(inst, SolveOptions(r=2))
        exact = solve_exact(inst)
        ok = (verdict.status == "colorable") == (exact is not None)
        if verdict.status == "colorable":
            ok = ok and verify_coloring(inst, verdict.coloring)
            colorable += 1
        lines.append(
            f"C1 {kept:03d} n={inst.graph.n} m={inst.graph.m} -> {verdict.status}"
        )
        if not ok:
            lines.append(f"C1 FAILURE at {kept}")
            return False, "\n".join(lines), {}
        kept += 1
    elapsed = time.perf_counter() - started
    lines.append(f"C1 agreement 300/300 colorable={colorable}")
    return True, "\n".join(lines), {"elapsed": elapsed}


def run_criterion_2():
    """Some profile element is frugally feasible whenever the input is feasible."""
    rng = random.Random(202)
    lines = []
    kept = 0
    while kept < 100:
        inst = random_instance(rng, 7)
        if anticomplete_packing(inst.graph, 2, 3) is not None:
            continue
        if solve_exact(inst) is None:
            continue
        hit = None
        for idx, element in enumerate(frugal_profile(inst, 2)):
            if solve_exact_frugal(element) is not None:
                hit = idx
                break
        lines.append(f"C2 {kept:03d} n={inst.graph.n} element={hit}")
        if hit is None:
            lines.append(f"C2 FAILURE at {kept}")
            return False, "\n".join(lines), {}
        kept += 1
    lines.append("C2 hits 100/100")
    return True, "\n".join(lines), {}


def run_criterion_3():
    """Elimination outputs are clean and keep frugal feasibility reachable."""
    rng = random.Random(303)
    lines = []
    for i in range(100):
        inst = random_instance(rng, 7)
        feasible = solve_exact_frugal(inst) is not None
        outputs = 0
        transfer = None
        for out in eliminate_good_p3(inst, 2):
            if find_good_p3(out) is not None:
                lines.append(f"C3 FAILURE at {i}: good P3 survived")
                return False, "\n".join(lines), {}
            if feasible and transfer is None:
                if solve_exact_frugal(out) is not None:
                    transfer = outputs
            outputs += 1
        status = "n/a" if not feasible else f"transfer={transfer}"
        lines.append(f"C3 {i:03d} outputs={outputs} {status}")
        if feasible and transfer is None:
            lines.append(f"C3 FAILURE at {i}: feasibility lost")
            return False, "\n".join(lines), {}
    lines.append("C3 clean 100/100")
    return True, "\n".join(lines), {}


def run_criteria_4_and_5():
    """One reduction round on stream outputs: contract plus context checks."""
    rng = random.Random(404)
    corpus = []
    while len(corpus) < 200:
        inst = biased_instance(rng)
        for final, _ in itertools.islice(candidate_stream(inst, 2), 8):
            if any(m.bit_count() >= 3 for m in final.lists):
                corpus.append(final)
                if len(corpus) >= 200:
                    break
    lines4 = []
    lines5 = []
    checked = skipped = 0
    for i, cand in enumerate(corpus):
        u0 = next(v for v in range(cand.graph.n) if cand.lists[v].bit_count() >= 3)
        child, step = reduce_once(cand, u0)
        drop = p_value(cand) - p_value(child)
        if drop <= 0:
            lines4.append(f"C4 FAILURE at {i}: potential did not drop")
            return (False, "\n".join(lines4), {}), (False, "\n".join(lines5), {})
        if solve_exact_frugal(cand) is not None and solve_exact_frugal(child) is None:
            lines4.append(f"C4 FAILURE at {i}: frugal feasibility lost")
            return (False, "\n".join(lines4), {}), (False, "\n".join(lines5), {})
        phi = solve_exact(child)
        lifted = "n/a"
        if phi is not None:
            if not verify_coloring(cand, lift([step], phi)):
                lines4.append(f"C4 FAILURE at {i}: lift did not verify")
                return (False, "\n".join(lines4), {}), (False, "\n".join(lines5), {})
            lifted = "ok"
        lines4.append(
            f"C4 {i:03d} step={step.info['step']} drop={drop} lift={lifted}"
        )
        for v in range(cand.graph.n):
            if cand.lists[v].bit_count() != 3:
                continue
            kind, detail = center_context_report(cand, v)
            if kind == "checked":
                checked += 1
                if detail:
                    lines5.append(f"C5 FAILURE at {i}/{v}: {detail}")
                    return (
                        (True, "\n".join(lines4), {}),
                        (False, "\n".join(lines5), {}),
                    )
            else:
                skipped += 1
    lines4.append("C4 contract 200/200")
    lines5.append(f"C5 checked={checked} skipped={skipped} violations=0")
    ok5 = checked > 0
    return (True, "\n".join(lines4), {}), (ok5, "\n".join(lines5), {})


def run_criterion_6():
    """Binary-list finish agrees with the oracle and scales."""
    rng = random.Random(606)
    lines = []
    for i in range(500):
        n = rng.randint(1, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        lists = []
        for _ in range(n):
            size = rng.choice([0, 1, 2, 2, 2])
            lists.append(mask_from_colors(c + 1 for c in rng.sample(range(5), size)))
        inst = Instance(Graph(n, edges), 5, tuple(lists))
        phi = binary_list_color(inst)
        exact = solve_exact(inst)
        if (phi is None) != (exact is None):
            lines.append(f"C6 FAILURE at {i}: disagreement")
            return False, "\n".join(lines), {}
        if phi is not None and not verify_coloring(inst, phi):
            lines.append(f"C6 FAILURE at {i}: bad coloring")
            return False, "\n".join(lines), {}
        lines.append(f"C6 {i:03d} {'colorable' if phi else 'uncolorable'}")
    n = 10000
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)}
    lists = [
        mask_from_colors(c + 1 for c in rng.sample(range(5), 2)) for _ in range(n)
    ]
    big = Instance(Graph(n, sorted(edges)), 5, tuple(lists))
    started = time.perf_counter()
    phi = binary_list_color(big)
    elapsed = time.perf_counter() - started
    if phi is not None and not verify_coloring(big, phi):
        lines.append("C6 FAILURE: big coloring invalid")
        return False, "\n".join(lines), {}
    lines.append(f"C6 big {'colorable' if phi else 'uncolorable'}")
    return True, "\n".join(lines), {"big_elapsed": elapsed}


def run_criterion_7():
    """Exhaustive cover number never beats the cluster/matching bound."""
    rng = random.Random(707)
    lines = []
    for i in range(200):
        nv = rng.randint(1, 8)
        ne = rng.randint(1, 6)
        edges = tuple(
            frozenset(rng.sample(range(nv), rng.randint(1, nv))) for _ in range(ne)
        )
        nu, tau, lam = hypergraph_stats(Hypergraph(nv, edges))
        bound = cover_bound(lam, nu)
        lines.append(f"C7 {i:03d} nu={nu} tau={tau} lam={lam} bound={bound}")
        if tau > bound:
            lines.append(f"C7 FAILURE at {i}")
            return False, "\n".join(lines), {}
    lines.append("C7 bounded 200/200")
    return True, "\n".join(lines), {}


def run_criterion_8():
    """Gadget graphs stay 2P4-free and mirror formula satisfiability."""
    rng = random.Random(808)
    lines = []
    sat = unsat = 0
    for i in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(0, 2)
        nae = NaeInstance(
            n, tuple(tuple(rng.randint(1, n) for _ in range(3)) for _ in range(m))
        )
        inst = build_hardness_graph(nae)
        if inst.graph.n != 5 + n + 8 * m:
            lines.append(f"C8 FAILURE at {i}: vertex count")
            return False, "\n".join(lines), {}
        if anticomplete_packing(inst.graph, 2, 4) is not None:
            lines.append(f"C8 FAILURE at {i}: 2P4 found")
            return False, "\n".join(lines), {}
        colorable = solve_exact(inst) is not None
        satisfiable = nae_brute(nae) is not None
        if colorable != satisfiable:
            lines.append(f"C8 FAILURE at {i}: equivalence")
            return False, "\n".join(lines), {}
        if satisfiable:
            sat += 1
        else:
            unsat += 1
        lines.append(
            f"C8 {i:02d} n={n} m={m} {'sat' if satisfiable else 'unsat'}"
        )
    lines.append(f"C8 equivalent 50/50 sat={sat} unsat={unsat}")
    return sat > 0 and unsat > 0, "\n".join(lines), {}


def run_battery():
    results = {}
    results[1] = run_criterion_1()
    results[2] = run_criterion_2()
    results[3] = run_criterion_3()
    results[4], results[5] = run_criteria_4_and_5()
    results[6] = run_criterion_6()
    results[7] = run_criterion_7()
    results[8] = run_criterion_8()
    return results


@pytest.fixture(scope="module")
def battery():
    return run_battery(), run_battery()


def report(num, ok):
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}")


def test_criterion_1(battery):
    ok, log, extra = battery[0][1]
    good = ok and extra.get("elapsed", 1e9) < 300.0
    report(1, good)
    assert good, log.splitlines()[-1]


def test_criterion_2(battery):
    ok, log, _ = battery[0][2]
    report(2, ok)
    assert ok, log.splitlines()[-1]


def test_criterion_3(battery):
    ok, log, _ = battery[0][3]
    report(3, ok)
    assert ok, log.splitlines()[-1]


def test_criterion_4(battery):
    ok, log, _ = battery[0][4]
    report(4, ok)
    assert ok, log.splitlines()[-1]


def test_criterion_5(battery):
    ok, log, _ = battery[0][5]
    report(5, ok)
    assert ok, log.splitlines()[-1]


def test_criterion_6(battery):
    ok, log, extra = battery[0][6]
    good = ok and extra.get("big_elapsed", 1e9) < 1.0
    report(6, good)
    assert good, log.splitlines()[-1]


def test_criterion_7(battery):
    ok, log, _ = battery[0][7]
    report(7, ok)
    assert ok, log.splitlines()[-1]


def test_criterion_8(battery):
    ok, log, _ = battery[0][8]
    report(8, ok)
    assert ok, log.splitlines()[-1]


def test_criterion_9(battery):
    first, second = battery
    same = all(first[num][1] == second[num][1] for num in range(1, 9))
    report(9, same)
    assert same
