"""Instance builders the test modules share.

mk builds an instance from plain color sets, clique the edge list of a
complete graph on 0..n-1, instances a hypothesis strategy for random
instances with arbitrary lists, and load_reference the benchmark's
independent checker, perfbench/reference.py, which imports nothing from
rp3color.  The Graph builders below them (path, cycle, union, join,
complete_multipartite, blow_up, star, wheel, relabel, random_graph)
number vertices from 0 and take no lists.
"""

import importlib.util
import itertools
from pathlib import Path

from hypothesis import strategies as st

from rp3color import Graph, Instance, mask_from_colors

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"


def mk(n, edges, lists, k=5):
    return Instance(Graph(n, edges), k, tuple(mask_from_colors(l) for l in lists))


def clique(n):
    return list(itertools.combinations(range(n), 2))


@st.composite
def instances(draw, max_n=6, k=3):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    lists = tuple(
        draw(st.integers(min_value=0, max_value=(1 << k) - 1)) for _ in range(n)
    )
    return Instance(Graph(n, edges), k, lists)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def union(*parts):
    """The disjoint union, each part numbered after the ones before it."""
    n, edges = 0, []
    for g in parts:
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    return Graph(n, edges)


def join(g, h):
    """The disjoint union plus every edge between g and h."""
    both = union(g, h)
    cross = [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    return Graph(both.n, list(both.edges) + cross)


def complete_multipartite(*sizes):
    out = Graph(0, [])
    for size in sizes:
        out = join(out, Graph(size, []))
    return out


def blow_up(g, h):
    """g with each vertex replaced by an independent set of h vertices."""
    edges = [
        (u * h + x, v * h + y)
        for u, v in g.edges
        for x in range(h)
        for y in range(h)
    ]
    return Graph(g.n * h, edges)


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def wheel(rim):
    """W_rim: a hub, vertex 0, joined to the cycle 1..rim."""
    return join(Graph(1, []), cycle(rim))


def relabel(rng, g):
    perm = rng.sample(range(g.n), g.n)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_graph(rng, n, p):
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
