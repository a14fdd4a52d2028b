"""The edge-loop peel that pipeline.peel_order is checked against.

edge_loop_peel_order builds every vertex's list-graph bitmask in one
pass over the edges and counts every vertex's list-graph neighbors.
Each vertex enters the stack once, when its count first drops below its
list size; a removal decrements every list-graph neighbor not removed
yet, queued or not.
"""

from typing import List

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
