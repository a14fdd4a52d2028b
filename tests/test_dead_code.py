"""The package ships only what the solver, the CLI and the benchmark run.

Every top-level function or class of src/rp3color must be referenced
somewhere in the package outside its own definition and __init__.py;
code that only the tests need lives in tests/.  Two names are public
library entry points with no caller of their own.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rp3color"
ENTRY_POINTS = {"reduce_once", "serialize_nae"}


def _definitions_and_references():
    """Top-level defs as (module, name), and every name each module uses
    outside the top-level def of the same name."""
    defs, refs = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            used = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    used.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    used.add(sub.attr)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.name, node.name))
                used.discard(node.name)
            for name in used:
                refs.setdefault(name, set()).add(path.name)
    return defs, refs


def unreferenced():
    defs, refs = _definitions_and_references()
    return sorted(name for _, name in defs if name not in refs)


def test_scan_sees_the_package():
    defs, refs = _definitions_and_references()
    names = {name for _, name in defs}
    assert {"solve", "reduce_to_binary", "WorkingInstance", "main"} <= names
    assert "pipeline.py" in refs["reduce_to_binary"]


def test_no_unreferenced_top_level_code():
    extra = sorted(set(unreferenced()) - ENTRY_POINTS)
    assert not extra, f"unreferenced in the package, move to tests/ or delete: {extra}"
