"""Instance builders the test modules share.

mk builds an instance from plain color sets, clique the edge list of a
complete graph on 0..n-1, instances a hypothesis strategy for random
instances with arbitrary lists, and load_reference the benchmark's
independent checker, perfbench/reference.py, which imports nothing from
rp3color.
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


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
