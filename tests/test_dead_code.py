"""The package ships only what the solver, the CLI and the benchmark run.

Every top-level function or class of src/rp3color must be referenced
somewhere in the package outside its own definition and __init__.py;
code that only the tests need lives in tests/.  Two names are public
library entry points with no caller of their own.  The same holds for
every method of a package class, dunders and one argparse override
aside.  Every parameter of
every function in the package is read in that function's body, and
every name a module imports is used in that module.
"""

import ast
import pathlib
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rp3color"
ENTRY_POINTS = {"reduce_once", "serialize_nae"}
# argparse calls ArgumentParser.error itself
CALLED_BY_LIBRARY = {("cli.py", "_Parser", "error")}


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



def _uses(node):
    """How often each name is loaded or read as an attribute in ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _unreferenced_methods(trees):
    """(module, class, method) for every method of a top-level class in
    the modules ``trees`` (file name to tree) whose name appears nowhere
    outside the method's own body; dunders are exempt."""
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                dunder = fn.name.startswith("__") and fn.name.endswith("__")
                if not dunder and total[fn.name] == _uses(fn)[fn.name]:
                    out.append((module, cls.name, fn.name))
    return out


def test_method_scan_on_a_sample():
    sample = (
        "class A:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def used(self):\n"
        "        return self.rec()\n"
        "    def rec(self):\n"
        "        return self.rec()\n"
        "    def unused(self):\n"
        "        return self.used()\n"
    )
    other = "def f(a):\n    return a.used()\n"
    trees = {"a.py": ast.parse(sample), "b.py": ast.parse(other)}
    assert _unreferenced_methods(trees) == [("a.py", "A", "unused")]


def test_no_unreferenced_method():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    extra = sorted(set(_unreferenced_methods(trees)) - CALLED_BY_LIBRARY)
    assert not extra, f"methods nothing in the package calls, delete them: {extra}"


def _unread(tree):
    """(function, parameter) for every parameter of a function in
    ``tree`` that its body never reads.  ``self`` and ``cls`` are
    exempt."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        read = {
            sub.id
            for stmt in fn.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        out += [
            (fn.name, p.arg)
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls")
        ]
    return out


def test_unread_scan_on_a_sample():
    sample = (
        "def f(a, b, *rest, c, **kw):\n"
        "    def g(self):\n"
        "        return a, kw\n"
        "    b = 1\n"
        "    return g\n"
    )
    assert _unread(ast.parse(sample)) == [("f", "b"), ("f", "c"), ("f", "rest")]


def test_every_parameter_is_read():
    unread = [
        (path.name, *found)
        for path in sorted(PACKAGE.glob("*.py"))
        for found in _unread(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not unread, f"parameters never read, drop them: {unread}"


def _unused_imports(tree):
    """Names that an import in ``tree`` binds and the module never
    loads; ``from __future__ import annotations`` is exempt."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    loaded = {
        sub.id
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }
    return [name for name in bound if name not in loaded and name != "annotations"]


def test_unused_import_scan_on_a_sample():
    sample = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import List, Tuple\n"
        "def f(x: Tuple[int, ...]):\n"
        "    from math import sqrt\n"
        "    return os.path.join(str(x))\n"
    )
    assert _unused_imports(ast.parse(sample)) == ["js", "List", "sqrt"]


def test_every_import_is_used():
    unused = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not unused, f"imported but never used, drop them: {unused}"
