"""The package's records: validation errors, immutability, fresh
defaults, tuple behavior, and an import path that loads neither
dataclasses nor the hardness generator and no standard-library module
beyond the listed ones."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rp3color
from rp3color import (
    CnfFormula,
    Graph,
    GraphError,
    Instance,
    InstanceError,
    LiftStep,
    NaeInstance,
    ParseError,
    SolveOptions,
    Verdict,
    anticomplete_packing,
    cover_cap,
    induced_subgraph,
    parse_instance,
    parse_nae,
)


def test_import_path_skips_dataclasses_and_hardness():
    script = (
        "import sys, rp3color, rp3color.cli; "
        "print(sorted({'dataclasses', 'rp3color.hardness'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(rp3color.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_imports_only_the_listed_standard_modules():
    # the README's Start-up section lists these six; cli and hardness
    # load on demand, so their imports are left out
    found = set()
    for path in Path(rp3color.__file__).parent.glob("*.py"):
        if path.stem in ("cli", "hardness"):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    found.discard("__future__")
    assert found == {"typing", "collections", "heapq", "itertools", "math", "logging"}


def test_hardness_names_come_from_the_hardness_module():
    import rp3color.hardness as hardness

    for name in ("NaeInstance", "build_hardness_graph", "parse_nae", "serialize_nae"):
        assert getattr(rp3color, name) is getattr(hardness, name)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        rp3color.nope


G2 = Graph(2, [(0, 1)])
BAD = [
    (lambda: Instance(G2, 0, (1, 1)), InstanceError, "k=0 outside 1..8"),
    (lambda: Instance(G2, 9, (1, 1)), InstanceError, "k=9 outside 1..8"),
    (lambda: Instance(G2, 3, (1,)), InstanceError, "1 lists for 2 vertices"),
    (lambda: Instance(G2, 3, (1, 8)), InstanceError, "list of vertex 1 exceeds 1..3"),
    (lambda: SolveOptions(r=0), ValueError, "r=0, need at least 1"),
    (
        lambda: SolveOptions(jobs=2),
        ValueError,
        "jobs=2, need 1: the worker-process pool was removed",
    ),
    (lambda: SolveOptions(budget=0), ValueError, "budget=0, need at least 1"),
    (lambda: CnfFormula(2, ((1, 2, -1),)), ValueError, "clause size 3 outside 1..2"),
    (lambda: CnfFormula(1, ((),)), ValueError, "clause size 0 outside 1..2"),
    (lambda: CnfFormula(1, ((0,),)), ValueError, "literal 0 out of range"),
    (lambda: CnfFormula(2, ((-3, 1),)), ValueError, "literal -3 out of range"),
    (lambda: NaeInstance(-1, ()), ValueError, "variable count -1 negative"),
    (
        lambda: NaeInstance(3, ((1, 2),)),
        ValueError,
        "clause (1, 2) does not have 3 literals",
    ),
    (lambda: NaeInstance(3, ((0, 1, 2),)), ValueError, "variable 0 outside 1..3"),
    # _replace validates like the constructor
    (
        lambda: Instance(G2, 3, (1, 4))._replace(k=2),
        InstanceError,
        "list of vertex 1 exceeds 1..2",
    ),
    (lambda: SolveOptions()._replace(r=0), ValueError, "r=0, need at least 1"),
    (
        lambda: CnfFormula(1, ())._replace(clauses=((2,),)),
        ValueError,
        "literal 2 out of range",
    ),
    (
        lambda: NaeInstance(0, ())._replace(n=-2),
        ValueError,
        "variable count -2 negative",
    ),
    (lambda: Graph(-1), GraphError, "negative vertex count -1"),
    (lambda: induced_subgraph(G2, [0, 2]), GraphError, "vertex 2 out of range"),
    (lambda: induced_subgraph(G2, [-1]), GraphError, "vertex -1 out of range"),
    # a path length below 2 is refused by the path enumeration
    (lambda: anticomplete_packing(G2, 1, 1), GraphError, "path length 1 below 2"),
    (lambda: anticomplete_packing(G2, 0, 3), GraphError, "packing size 0 below 1"),
    (lambda: cover_cap(0), ValueError, "packing parameter 0 below 1"),
    (
        lambda: parse_nae("p nae three 1\n"),
        ParseError,
        "line 1: bad header counts 'p nae three 1'",
    ),
    (lambda: parse_nae("p nae 3 -1\n"), ParseError, "line 1: negative counts"),
] + [
    (lambda text=text: parse_instance(text), ParseError, message)
    for text, message in [
        ("p glist 2 1 5\ne 1\n", "line 2: bad edge line 'e 1'"),
        ("p glist 2 1 5\ne 1 x\n", "line 2: non-integer endpoint in 'e 1 x'"),
        ("p glist 2 1 5\ne 1 3\n", "line 2: endpoint outside 1..2"),
        ("l 1 2\np glist 2 0 5\n", "line 1: list before header"),
        ("p glist 2 0 5\nl\n", "line 2: list line without vertex"),
        ("p glist 2 0 5\nl x 1\n", "line 2: non-integer in 'l x 1'"),
        ("p glist 2 0 5\nl 1 2 y\n", "line 2: non-integer in 'l 1 2 y'"),
        ("p glist 2 0 5\nl 3 1\n", "line 2: vertex 3 outside 1..2"),
        ("p glist 2 0 5\nl 1 1\nl 1 2\n", "line 3: duplicate list for vertex 1"),
        ("p list 2 0 5\n", "line 1: bad header 'p list 2 0 5'"),
        ("p glist 2 0\n", "line 1: bad header 'p glist 2 0'"),
        ("p glist 2 x 5\n", "line 1: non-integer header field in 'p glist 2 x 5'"),
        ("p glist -1 0 5\n", "line 1: header out of range: n=-1 m=0 k=5"),
        ("p glist 2 0 9\n", "line 1: header out of range: n=2 m=0 k=9"),
    ]
]


@pytest.mark.parametrize("make, kind, text", BAD)
def test_bad_input_keeps_its_error_type_and_text(make, kind, text):
    with pytest.raises(ValueError) as exc:
        make()
    assert exc.type is kind
    assert str(exc.value) == text


RECORDS = [
    Instance(G2, 3, (1, 2)),
    SolveOptions(),
    Verdict("colorable", coloring=(1, 2)),
    LiftStep({"step": 4}, {0: 3}),
    CnfFormula(1, ((1,),)),
    NaeInstance(1, ((1, 1, 1),)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_cannot_be_changed(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_default_dicts_are_fresh():
    assert Verdict("aborted").stats == {}
    assert Verdict("aborted").stats is not Verdict("aborted").stats
    first, second = LiftStep(), LiftStep()
    assert first == ({}, {}, None)
    assert first.info is not second.info
    assert first.lists is not second.lists


def test_records_are_tuples():
    assert SolveOptions(r=2, jobs=1) == SolveOptions() == (2, False, 1, None)
    assert repr(SolveOptions()) == "SolveOptions(r=2, force=False, jobs=1, budget=None)"
    status, coloring, _, _, stats = Verdict("colorable", coloring=(1, 2))
    assert (status, coloring, stats) == ("colorable", (1, 2), {})
    assert len(NaeInstance(2, ())) == 2 and NaeInstance(2, ((1, 2, 2),)).m == 1
    assert repr(Instance(G2, 3, (1, 2))) == "Instance(n=2, k=3)"
