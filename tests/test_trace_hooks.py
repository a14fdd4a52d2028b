"""The benchmark's per-layer tracer still finds the solver's layers.

perfbench/spans.py times each layer by replacing module attributes
that pipeline, reducer and twosat look up at call time.  A refactor
that renames one of them, or binds it before the call, silently turns
that layer's figures into zeros; this test catches both.
"""

import importlib.util
from pathlib import Path

import rp3color
from rp3color import Graph, Instance, solve

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_every_layer():
    spans = load_spans()
    tracer = spans.Tracer(rp3color)
    before = {
        (mod, attr): getattr(getattr(rp3color, mod), attr, None)
        for mod, attr, *_ in spans.WRAPPED
    }
    tracer.install()
    try:
        # the complement of C_7 with lists {1,2,3,4}: the peel leaves
        # it whole and it does not split, the walk branches on a good
        # triple, then reduces, runs 2-SAT and lifts the coloring
        edges = [(u, v) for u in range(7) for v in range(u + 2, 7) if v - u != 6]
        verdict = solve(Instance(Graph(7, edges), 5, (15,) * 7))
    finally:
        tracer.uninstall()
    assert verdict.status == "colorable"
    # both singleton hooks are stale: singleton removal now runs inside
    # reduce_to_binary, so its time lands in reducer.reduce
    assert tracer.missing == [
        "rp3color.pipeline.eliminate_singletons",
        "rp3color.reducer.eliminate_singletons",
    ]
    names = {span[0] for span in tracer.spans}
    assert {
        "graphs.scan",
        "profiles.profile",
        "goodp3.detect",
        "goodp3.refine",
        "reducer.reduce",
        "twosat.solve",
        "instances.verify",
        "pipeline.lift",
    } <= names
    assert tracer.counts["graphs.scan_calls"] == 1
    assert tracer.counts["goodp3.children"] > 0
    for (mod, attr), original in before.items():
        assert getattr(getattr(rp3color, mod), attr, None) is original
