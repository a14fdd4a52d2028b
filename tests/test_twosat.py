"""Binary-list finish: CNF encoding, implication-graph solving, decoding."""

import itertools
import random

import pytest

from rp3color import (
    CnfFormula,
    InstanceError,
    binary_list_color,
    solve_2sat,
    solve_exact,
    to_2sat,
)

from builders import mk
from instance_reference import verify_coloring


def test_k2_encoding_frozen():
    inst = mk(2, [(0, 1)], [{1, 2}, {1, 2}])
    formula, decode = to_2sat(inst)
    assert formula.nvars == 2
    # "true = smaller color", so forbidding color 1 on both ends is
    # (-1, -2) and forbidding color 2 is (1, 2)
    assert formula.clauses == ((-1, -2), (1, 2))
    assert decode == ((0, 1, 2), (1, 1, 2))
    assignment = solve_2sat(formula)
    assert assignment is not None
    phi = binary_list_color(inst)
    assert phi is not None and verify_coloring(inst, phi)


def test_empty_list_is_immediate_unsat():
    inst = mk(1, [], [set()])
    assert to_2sat(inst) is None
    assert binary_list_color(inst) is None


def test_adjacent_forced_clash_is_immediate_unsat():
    assert to_2sat(mk(2, [(0, 1)], [{1}, {1}])) is None
    assert binary_list_color(mk(2, [(0, 1)], [{1}, {1}])) is None


def test_forced_vertices_keep_their_color():
    inst = mk(2, [(0, 1)], [{1}, {2}])
    formula, decode = to_2sat(inst)
    assert formula.nvars == 0 and formula.clauses == ()
    assert decode == ()
    assert binary_list_color(inst) == (1, 2)


def test_forced_vertex_emits_unit_clause():
    inst = mk(2, [(0, 1)], [{1}, {1, 2}])
    formula, decode = to_2sat(inst)
    assert formula.clauses == ((-1,),)
    assert decode == ((1, 1, 2),)
    assert binary_list_color(inst) == (1, 2)


def test_k3_on_one_pair_is_unsatisfiable():
    inst = mk(3, [(0, 1), (0, 2), (1, 2)], [{1, 2}] * 3)
    formula, _ = to_2sat(inst)
    assert formula.nvars == 3 and len(formula.clauses) == 6
    assert solve_2sat(formula) is None
    assert binary_list_color(inst) is None
    assert solve_exact(inst) is None


def test_oversized_list_rejected():
    with pytest.raises(InstanceError, match="list size 3"):
        to_2sat(mk(1, [], [{1, 2, 3}]))
    with pytest.raises(InstanceError, match="list size 3"):
        binary_list_color(mk(1, [], [{1, 2, 3}]))


def test_formula_validation():
    with pytest.raises(ValueError, match="outside 1..2"):
        CnfFormula(2, ((1, 2, -1),))
    with pytest.raises(ValueError, match="outside 1..2"):
        CnfFormula(1, ((),))
    with pytest.raises(ValueError, match="literal 0"):
        CnfFormula(1, ((0,),))
    with pytest.raises(ValueError, match="literal 3"):
        CnfFormula(2, ((3, -1),))


def test_solve_2sat_examples():
    # (x or y), (not x or y): satisfiable, y must be true
    sat = solve_2sat(CnfFormula(2, ((1, 2), (-1, 2))))
    assert sat is not None and sat[1] is True
    assert solve_2sat(CnfFormula(1, ((1,), (-1,)))) is None
    assert solve_2sat(CnfFormula(0, ())) == ()


def test_solve_2sat_is_deterministic():
    formula = CnfFormula(3, ((1, -2), (2, 3), (-1, 3), (-3, 1)))
    first = solve_2sat(formula)
    assert first is not None
    assert solve_2sat(formula) == first


def test_path_example():
    inst = mk(3, [(0, 1), (1, 2)], [{1, 2}] * 3)
    assert binary_list_color(inst) == (1, 2, 1)


def test_free_vertex_takes_smaller_color():
    assert binary_list_color(mk(1, [], [{2, 5}])) == (2,)


def test_odd_cycle_has_no_coloring():
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    assert binary_list_color(mk(5, c5, [{1, 2}] * 5)) is None


def test_even_cycle_alternates():
    c6 = [(i, (i + 1) % 6) for i in range(6)]
    phi = binary_list_color(mk(6, c6, [{1, 2}] * 6))
    assert phi == (1, 2, 1, 2, 1, 2)


def random_binary_instance(rng, max_n=6, k=5):
    n = rng.randint(1, max_n)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    lists = []
    for _ in range(n):
        size = rng.choice([0, 1, 1, 2, 2, 2, 2])
        lists.append(set(rng.sample(range(1, k + 1), size)))
    return mk(n, edges, lists, k)


def test_agreement_with_oracle_corpus():
    rng = random.Random(20240)
    seen_sat = seen_unsat = 0
    for _ in range(500):
        inst = random_binary_instance(rng)
        phi = binary_list_color(inst)
        exact = solve_exact(inst)
        if phi is None:
            assert exact is None
            seen_unsat += 1
        else:
            assert exact is not None
            assert verify_coloring(inst, phi)
            seen_sat += 1
    assert seen_sat >= 100 and seen_unsat >= 100


def test_large_sparse_instance_smoke():
    rng = random.Random(7)
    n = 4000
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)}
    lists = [set(rng.sample(range(1, 6), 2)) for _ in range(n)]
    inst = mk(n, sorted(edges), lists)
    phi = binary_list_color(inst)
    if phi is not None:
        assert verify_coloring(inst, phi)
