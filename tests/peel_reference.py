"""The edge-loop peel that pipeline.peel_order is checked against, and
the greedy color-back that the solve's coloring of peeled vertices is
checked against.

edge_loop_peel_order builds every vertex's list-graph bitmask in one
pass over the edges and counts every vertex's list-graph neighbors.
Each vertex enters the stack once, when its count first drops below its
list size; a removal decrements every list-graph neighbor not removed
yet, queued or not.

greedy_color_back works on neighbor sets built from the edge list.
"""

from typing import List, Sequence, Tuple

from rp3color.instances import Instance


def edge_loop_peel_order(inst: Instance) -> List[int]:
    lists = inst.lists
    gl = [0] * len(lists)
    for u, v in inst.graph.edges:
        if lists[u] & lists[v]:
            gl[u] |= 1 << v
            gl[v] |= 1 << u
    size = list(map(int.bit_count, lists))
    deg = list(map(int.bit_count, gl))
    stack = [v for v, d in enumerate(deg) if d < size[v]]
    alive = (1 << len(lists)) - 1
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        alive ^= 1 << v
        rest = gl[v] & alive
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            deg[w] -= 1
            if deg[w] == size[w] - 1:
                stack.append(w)
    return order


def greedy_color_back(
    inst: Instance, order: Sequence[int], phi: Sequence[int]
) -> Tuple[int, ...]:
    """The kernel (the vertices not in ``order``, ascending) takes the
    colors ``phi``; then each vertex of ``order``, last first, takes the
    smallest color of its list that no colored neighbor holds."""
    n = inst.graph.n
    nbrs = [set() for _ in range(n)]
    for u, v in inst.graph.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    peeled = set(order)
    color = dict(zip([v for v in range(n) if v not in peeled], phi))
    for v in reversed(order):
        taken = {color[w] for w in nbrs[v] if w in color}
        allowed = {c for c in range(1, inst.k + 1) if inst.lists[v] >> (c - 1) & 1}
        color[v] = min(allowed - taken)
    return tuple(color[v] for v in range(n))
