import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rp3color import (
    Graph,
    Instance,
    ParseError,
    coloring_defect,
    colors_from_mask,
    full_mask,
    mask_from_colors,
    parse_instance,
    serialize_instance,
    solve_exact,
    solve_exact_frugal,
)
from rp3color.instances import MAX_K
from rp3color.profiles import frugal_profile

from instance_reference import (
    find_good_p3,
    frugal_defect,
    list_graph,
    p_value,
    verify_coloring,
)
from profile_reference import is_refinement


def mk(n, edges, lists, k=5):
    return Instance(Graph(n, edges), k, tuple(mask_from_colors(l) for l in lists))


@st.composite
def instances(draw, max_n=6, k=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    lists = tuple(
        draw(st.integers(min_value=0, max_value=full_mask(k))) for _ in range(n)
    )
    return Instance(Graph(n, edges), k, lists)


def test_list_graph():
    assert list_graph(mk(2, [(0, 1)], [{1, 2}, {3, 4}])).edges == ()
    assert list_graph(mk(2, [(0, 1)], [{1}, {1}])).edges == ((0, 1),)
    p3 = mk(3, [(0, 1), (1, 2)], [{1}, {2}, {2}])
    assert list_graph(p3).edges == ((1, 2),)


def test_p_value():
    assert p_value(mk(0, [], [])) == 0
    assert p_value(mk(2, [(0, 1)], [{1, 2}, {1, 2}])) == 6


@given(instances())
def test_p_value_bounded_by_k_plus_one(inst):
    assert p_value(inst) <= 6 * inst.graph.n


def test_is_refinement():
    inst = mk(3, [(0, 1), (1, 2)], [{1, 2}, {2, 3}, {1, 3}])
    assert is_refinement(inst, inst, {0: 0, 1: 1, 2: 2}) == (True, True)

    smaller = mk(2, [(0, 1)], [{1, 2}, {2, 3}])
    assert is_refinement(inst, smaller, {0: 0, 1: 1}) == (True, False)

    enlarged = mk(3, [(0, 1), (1, 2)], [{1, 2, 4}, {2, 3}, {1, 3}])
    ok, _ = is_refinement(inst, enlarged, {0: 0, 1: 1, 2: 2})
    assert not ok

    missing_edge = mk(3, [(0, 1)], [{1, 2}, {2, 3}, {1, 3}])
    ok, _ = is_refinement(inst, missing_edge, {0: 0, 1: 1, 2: 2})
    assert not ok


def test_find_good_p3():
    found = mk(3, [(0, 1), (1, 2)], [{1, 2}, {2, 3}, {1, 3}])
    assert find_good_p3(found) == (0, 1, 2)

    disjoint = mk(3, [(0, 1), (1, 2)], [{1, 2}, {3, 4}, {1, 2}])
    assert find_good_p3(disjoint) is None

    thin = mk(3, [(0, 1), (1, 2)], [{1}, {1, 2}, {1, 2}])
    assert find_good_p3(thin) is None


def test_verify_coloring():
    k2 = mk(2, [(0, 1)], [{1, 2}, {1, 2}])
    assert verify_coloring(k2, (1, 2), frugal=True)
    assert not verify_coloring(k2, (1, 1))
    assert "edge" in coloring_defect(k2, (1, 1))

    star = mk(3, [(0, 1), (0, 2)], [{1, 2}, {2}, {2}])
    assert verify_coloring(star, (1, 2, 2))
    assert not verify_coloring(star, (1, 2, 2), frugal=True)
    assert "neighbors" in frugal_defect(star, (1, 2, 2))

    off_list = mk(1, [], [{2}])
    assert not verify_coloring(off_list, (3,))


FIXTURE = """# three vertices, one constrained list
p glist 3 2 5
e 1 2
e 2 3
l 2 1 3
l 3
"""


def test_parse_fixture():
    inst = parse_instance(FIXTURE)
    assert inst.graph.n == 3
    assert inst.graph.edges == ((0, 1), (1, 2))
    assert inst.k == 5
    assert inst.list_of(0) == (1, 2, 3, 4, 5)
    assert inst.list_of(1) == (1, 3)
    assert inst.list_of(2) == ()


def test_colors_from_mask_covers_every_list():
    for mask in range(1 << MAX_K):
        expected = tuple(c for c in range(1, MAX_K + 1) if mask >> (c - 1) & 1)
        assert colors_from_mask(mask) == expected


def test_roundtrip():
    inst = parse_instance(FIXTURE)
    again = parse_instance(serialize_instance(inst))
    assert again == inst


@given(instances())
def test_roundtrip_random(inst):
    assert parse_instance(serialize_instance(inst)) == inst


def test_parse_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("p glist 1 0 5\nl 1 6\n")
    with pytest.raises(ParseError, match="unknown line tag"):
        parse_instance("p glist 1 0 5\nq 1\n")
    with pytest.raises(ParseError, match="duplicate header"):
        parse_instance("p glist 1 0 5\np glist 1 0 5\n")
    with pytest.raises(ParseError, match="edge before header"):
        parse_instance("e 1 2\n")
    with pytest.raises(ParseError, match="missing header"):
        parse_instance("# nothing\n")
    with pytest.raises(ParseError, match="promises"):
        parse_instance("p glist 2 2 5\ne 1 2\n")
    with pytest.raises(ParseError, match="loop"):
        parse_instance("p glist 2 1 5\ne 1 1\n")
    # a count mismatch names the header's line, a missing header line 1
    with pytest.raises(ParseError, match="line 3: header promises 2 edges"):
        parse_instance("# one\n# two\np glist 2 2 5\ne 1 2\n")
    with pytest.raises(ParseError, match="line 1: missing header"):
        parse_instance("")
    err = None
    try:
        parse_instance("p glist 1 0 5\n\nl 1 9\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line_no == 3


@given(instances())
def test_spanning_spread(inst):
    """Any coloring valid for shrunken lists is valid for the originals."""
    shrunk = Instance(
        inst.graph,
        inst.k,
        tuple(m & 0b10111 for m in inst.lists),
    )
    phi = solve_exact(shrunk)
    if phi is None:
        return
    assert verify_coloring(shrunk, phi)
    assert verify_coloring(inst, phi)


@given(instances(max_n=5))
def test_frugal_spread(inst):
    """A frugal coloring stays frugal on any refinement that keeps its colors."""
    phi = solve_exact_frugal(inst)
    if phi is None:
        return
    keep = [v for v in range(inst.graph.n) if v % 2 == 0]
    from rp3color import induced_subgraph

    sub, remap = induced_subgraph(inst.graph, keep)
    child = Instance(
        sub,
        inst.k,
        tuple(mask_from_colors([phi[v]]) for v in keep),
    )
    restricted = tuple(phi[v] for v in keep)
    assert coloring_defect(child, restricted) is None
    assert frugal_defect(child, restricted) is None


@settings(max_examples=40)
@given(instances(max_n=5))
def test_good_spread_over_profile(inst):
    """Children of the profile stream never reintroduce a good P3."""
    if find_good_p3(inst) is not None:
        return
    for child in itertools.islice(frugal_profile(inst, 1), 40):
        assert find_good_p3(child) is None


@settings(max_examples=50, deadline=None)
@given(instances(max_n=6))
def test_list_graph_equi_feasible(inst):
    thin = Instance(list_graph(inst), inst.k, inst.lists)
    assert (solve_exact(inst) is None) == (solve_exact(thin) is None)
