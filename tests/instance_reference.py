"""Reference checks on graphs, instances and colorings that only the tests use.

is_stable_set and is_clique test a vertex set of a graph.  list_graph
keeps the edges whose endpoint lists meet, p_value is the potential
every reduction round lowers, is_good_triple is the definition of a
good list type (a GoodTriple, as p3_list_type reads it off a path), and
find_good_p3 is the first induced P3 with a good list type, by a plain
scan of the path stream.
verify_coloring accepts a proper list coloring, and with ``frugal`` set
only a frugal one; frugal_defect names the first vertex that sees two
neighbors in one color of its own list.
"""

from typing import Iterable, Optional, Tuple

from rp3color.graphs import Graph, induced_p3_stream
from rp3color.instances import Coloring, Instance, coloring_defect, colors_from_mask

GoodTriple = Tuple[int, int, int]


def is_stable_set(g: Graph, xs: Iterable[int]) -> bool:
    """True iff no two vertices of ``xs`` are adjacent."""
    xs = sorted(set(xs))
    mask = sum(1 << v for v in xs)
    return all(g.adj_mask[v] & mask == 0 for v in xs)


def is_clique(g: Graph, xs: Iterable[int]) -> bool:
    """True iff all pairs from ``xs`` are adjacent."""
    xs = sorted(set(xs))
    mask = sum(1 << v for v in xs)
    for v in xs:
        want = mask & ~(1 << v)
        if g.adj_mask[v] & want != want:
            return False
    return True


def list_graph(inst: Instance) -> Graph:
    """Spanning subgraph keeping only edges whose endpoint lists intersect."""
    lists = inst.lists
    kept = [(u, v) for u, v in inst.graph.edges if lists[u] & lists[v]]
    return Graph(inst.graph.n, kept)


def p_value(inst: Instance) -> int:
    """Potential |V| + sum of list sizes; every reduction round lowers it."""
    return inst.graph.n + sum(m.bit_count() for m in inst.lists)


def is_good_triple(triple: GoodTriple) -> bool:
    """All three sets have size at least 2 and pairwise intersect."""
    a, b, c = triple
    return (
        a.bit_count() >= 2
        and b.bit_count() >= 2
        and c.bit_count() >= 2
        and a & b != 0
        and a & c != 0
        and b & c != 0
    )


def p3_list_type(inst: Instance, p3: Tuple[int, int, int]) -> GoodTriple:
    """Lists along the path in canonical orientation."""
    a, b, c = p3
    return (inst.lists[a], inst.lists[b], inst.lists[c])


def find_good_p3(inst: Instance) -> Optional[Tuple[int, int, int]]:
    """First induced P3 (stream order) whose list type is good, or None.

    Goodness does not depend on the orientation of the path, so the
    canonical orientation is checked.
    """
    for p3 in induced_p3_stream(inst.graph):
        if is_good_triple(p3_list_type(inst, p3)):
            return p3
    return None


def frugal_defect(inst: Instance, phi: Coloring) -> Optional[str]:
    """First vertex with two neighbors sharing a color from its own
    list, or None when the coloring ``phi`` is frugal."""
    g = inst.graph
    holders = [0] * (inst.k + 1)
    for v, c in enumerate(phi):
        holders[c] |= 1 << v
    for v in range(g.n):
        for c in colors_from_mask(inst.lists[v]):
            seen = (g.adj_mask[v] & holders[c]).bit_count()
            if seen >= 2:
                return f"vertex {v} has {seen} neighbors in its listed color {c}"
    return None


def verify_coloring(inst: Instance, phi: Coloring, frugal: bool = False) -> bool:
    if coloring_defect(inst, phi) is not None:
        return False
    return not frugal or frugal_defect(inst, phi) is None
