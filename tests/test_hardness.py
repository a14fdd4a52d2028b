"""Not-all-equal formulas and the 5-coloring hardness gadget."""

import random

import pytest

from rp3color import (
    NaeInstance,
    ParseError,
    anticomplete_packing,
    build_hardness_graph,
    check_construction,
    full_mask,
    is_clique,
    is_stable_set,
    nae_brute,
    parse_nae,
    serialize_nae,
)

FIXTURE = """\
# one mixed clause over three variables
p nae 3 1
c 1 2 3
"""


def test_parse_basic():
    nae = parse_nae(FIXTURE)
    assert nae.n == 3 and nae.m == 1
    assert nae.clauses == ((1, 2, 3),)


def test_parse_allows_repeated_variables():
    nae = parse_nae("p nae 1 1\nc 1 1 1\n")
    assert nae.clauses == ((1, 1, 1),)


def test_parse_errors():
    with pytest.raises(ParseError, match="duplicate header") as e:
        parse_nae("p nae 1 0\np nae 2 0\n")
    assert e.value.line_no == 2
    with pytest.raises(ParseError, match="clause before header"):
        parse_nae("c 1 2 3\np nae 3 1\n")
    with pytest.raises(ParseError, match="bad header"):
        parse_nae("p cnf 3 1\nc 1 2 3\n")
    with pytest.raises(ParseError, match="variable 0 out of range") as e:
        parse_nae("p nae 3 1\nc 0 2 3\n")
    assert e.value.line_no == 2
    with pytest.raises(ParseError, match="variable 4 out of range"):
        parse_nae("p nae 3 1\nc 1 2 4\n")
    with pytest.raises(ParseError, match="needs 3 literals"):
        parse_nae("p nae 3 1\nc 1 2\n")
    with pytest.raises(ParseError, match="bad literal"):
        parse_nae("p nae 3 1\nc 1 2 x\n")
    with pytest.raises(ParseError, match="unknown line type 'q'"):
        parse_nae("p nae 3 0\nq 1\n")
    with pytest.raises(ParseError, match="missing header"):
        parse_nae("# nothing here\n")
    with pytest.raises(ParseError, match="claims 2 clauses, found 1"):
        parse_nae("p nae 3 2\nc 1 2 3\n")


def test_nae_validation():
    with pytest.raises(ValueError, match="variable count -1"):
        NaeInstance(-1, ())
    with pytest.raises(ValueError, match="variable 9 outside"):
        NaeInstance(3, ((1, 2, 9),))


def test_serialize_round_trip():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 6)
        clauses = tuple(
            tuple(rng.randint(1, n) for _ in range(3)) for _ in range(rng.randint(0, 4))
        )
        nae = NaeInstance(n, clauses)
        assert parse_nae(serialize_nae(nae)) == nae


def test_nae_brute_examples():
    # binary counting: all-false fails the single clause, then x1 flips
    assert nae_brute(NaeInstance(3, ((1, 2, 3),))) == (True, False, False)
    assert nae_brute(NaeInstance(1, ((1, 1, 1),))) is None
    assert nae_brute(NaeInstance(2, ())) == (False, False)


def test_nae_brute_returns_mixed_assignments():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        clauses = tuple(
            tuple(rng.randint(1, n) for _ in range(3)) for _ in range(rng.randint(1, 5))
        )
        got = nae_brute(NaeInstance(n, clauses))
        if got is None:
            continue
        for i1, i2, i3 in clauses:
            vals = {got[i1 - 1], got[i2 - 1], got[i3 - 1]}
            assert len(vals) == 2


def test_empty_formula_builds_k5():
    inst = build_hardness_graph(NaeInstance(0, ()))
    assert inst.graph.n == 5 and inst.graph.m == 10
    assert is_clique(inst.graph, range(5))
    assert inst.k == 5
    assert all(m == full_mask(5) for m in inst.lists)


def test_gadget_size_frozen():
    inst = build_hardness_graph(parse_nae(FIXTURE))
    assert inst.graph.n == 16
    assert inst.graph.m == 59


def family_counts(nae):
    """Classify every edge of the gadget by the vertex groups it joins."""
    g = build_hardness_graph(nae).graph
    n, m = nae.n, nae.m
    x_lo, yz_lo, u_lo = 5, 5 + n, 5 + n + 2 * m

    def group(v):
        if v < x_lo:
            return "c12" if v < 2 else "c345"
        if v < yz_lo:
            return "x"
        if v < u_lo:
            return "yz"
        return "u"

    counts = {}
    for a, b in g.edges:
        key = tuple(sorted((group(a), group(b))))
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_gadget_edge_families():
    n, m = 3, 1
    counts = family_counts(parse_nae(FIXTURE))
    assert counts[("c12", "c12")] + counts[("c12", "c345")] + counts[("c345", "c345")] == 10
    assert counts[("c345", "x")] == 3 * n
    assert counts[("c12", "yz")] == 4 * m
    assert counts[("c12", "u")] == 6 * m
    assert counts[("c345", "u")] == 12 * m
    assert counts[("x", "yz")] == 2 * n * m
    assert counts[("u", "yz")] == 6 * m
    assert counts[("u", "x")] == 6 * m
    assert sum(counts.values()) == 59


def test_gadget_sizes_scale():
    rng = random.Random(33)
    for _ in range(12):
        n = rng.randint(1, 5)
        m = rng.randint(0, 3)
        nae = NaeInstance(
            n, tuple(tuple(rng.randint(1, n) for _ in range(3)) for _ in range(m))
        )
        inst = build_hardness_graph(nae)
        assert inst.graph.n == 5 + n + 8 * m
        counts = family_counts(nae)
        assert counts.get(("c345", "x"), 0) == 3 * n
        assert counts.get(("c12", "u"), 0) == 6 * m
        assert counts.get(("c345", "u"), 0) == 12 * m
        assert counts.get(("u", "x"), 0) == 6 * m


def test_gadget_structure():
    g = build_hardness_graph(parse_nae(FIXTURE)).graph
    assert is_clique(g, range(5))
    assert is_stable_set(g, range(5, 8))     # variables
    assert is_stable_set(g, range(8, 10))    # guards
    assert is_stable_set(g, range(10, 16))   # selectors
    # selector degree: one clique anchor, two clique blockers, guard, literal
    for v in range(10, 16):
        assert g.adj_mask[v].bit_count() == 5


def test_gadget_lies_outside_the_solver_class():
    g = build_hardness_graph(parse_nae(FIXTURE)).graph
    assert anticomplete_packing(g, 2, 4) is None
    assert anticomplete_packing(g, 2, 3) is not None


def test_check_construction_satisfiable():
    report = check_construction(parse_nae(FIXTURE))
    assert report == {
        "p4_pair_free": True,
        "colorable": True,
        "satisfiable": True,
        "equivalent": True,
    }


def test_check_construction_unsatisfiable():
    report = check_construction(NaeInstance(1, ((1, 1, 1),)))
    assert report["p4_pair_free"] is True
    assert report["colorable"] is False
    assert report["satisfiable"] is False
    assert report["equivalent"] is True


def test_check_construction_vacuous():
    report = check_construction(NaeInstance(0, ()))
    assert all(report.values())


def test_p4_pair_freeness_sweep():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = rng.randint(0, 3)
        nae = NaeInstance(
            n, tuple(tuple(rng.randint(1, n) for _ in range(3)) for _ in range(m))
        )
        g = build_hardness_graph(nae).graph
        assert anticomplete_packing(g, 2, 4) is None
