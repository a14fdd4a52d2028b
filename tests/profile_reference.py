"""Reference helpers that only the tests use.

is_refinement checks that an instance refines another (the contract of
every profile element and good-P3 child), and neighborhood_hypergraph
builds the hypergraph whose cover number bounds the profile's class
sizes.
"""

from typing import Dict, Sequence, Tuple

from rp3color.graphs import Graph, bits, is_stable_set
from rp3color.instances import Instance
from rp3color.oracle import Hypergraph


def is_refinement(
    parent: Instance, child: Instance, mapping: Dict[int, int]
) -> Tuple[bool, bool]:
    """Whether ``child`` refines ``parent`` under the child-to-parent ``mapping``.

    A refinement keeps an induced subgraph (exactly the parent edges
    among mapped vertices) and only shrinks lists.  Returns
    (is_refinement, is_spanning); spanning means the mapping is onto the
    parent's vertex set.
    """
    if child.k != parent.k:
        return False, False
    image = set(mapping.values())
    if len(mapping) != child.graph.n or len(image) != child.graph.n:
        return False, False
    if any(not (0 <= v < parent.graph.n) for v in image):
        return False, False
    for u in range(child.graph.n):
        if child.lists[u] & ~parent.lists[mapping[u]]:
            return False, False
        for v in range(u + 1, child.graph.n):
            if child.graph.has_edge(u, v) != parent.graph.has_edge(
                mapping[u], mapping[v]
            ):
                return False, False
    return True, len(image) == parent.graph.n


def neighborhood_hypergraph(g: Graph, a_side: Sequence[int], b_side: Sequence[int]):
    """Hypergraph on ``a_side`` whose edges are the a-neighborhoods of ``b_side``.

    Requires the two sides to be disjoint stable sets and every b-vertex
    to have at least two neighbors in ``a_side``.  Vertices of the
    hypergraph are ``a_side`` relabelled ascending; duplicate edges stay.
    """
    a_sorted = sorted(set(a_side))
    b_sorted = sorted(set(b_side))
    if set(a_sorted) & set(b_sorted):
        clash = min(set(a_sorted) & set(b_sorted))
        raise ValueError(f"sides share vertex {clash}")
    if not is_stable_set(g, a_sorted):
        raise ValueError("a side is not stable")
    if not is_stable_set(g, b_sorted):
        raise ValueError("b side is not stable")
    remap = {v: i for i, v in enumerate(a_sorted)}
    edges = []
    for b in b_sorted:
        nbrs = frozenset(remap[w] for w in bits(g.adj_mask[b]) if w in remap)
        if len(nbrs) < 2:
            raise ValueError(f"vertex {b} has fewer than 2 neighbors across")
        edges.append(nbrs)
    return Hypergraph(len(a_sorted), tuple(edges))
