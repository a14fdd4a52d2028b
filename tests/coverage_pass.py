"""Print every statement of src/rp3color that the test suite never runs.

Run from the repository root:

    python tests/coverage_pass.py [extra pytest arguments]

It runs the suite in this process under sys.settrace (several times
slower than a plain run), then lists each package statement none of
whose executable lines produced a line event, as ``module:line: text``.
A statement counts as run when any line of its header does: the whole
statement for a simple one, the lines before its body for a compound
one.  Lines the compiler emits no code for (``try:``, ``else:``, a bare
docstring in a function) cannot be missed.  Code the suite runs in a
subprocess, such as the CLI tests' ``python -m rp3color``, is not seen.

test_solve_leaves_few_reference_cycles is deselected: it counts the
objects the garbage collector frees, and the tracer's own closures add
to them.  A test with a time bound, such as criterion 6's big 2-SAT
run, may fail under the tracer; its statements still count as run.
The file's name keeps pytest from collecting it.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rp3color"
DESELECT = "tests/test_pipeline.py::test_solve_leaves_few_reference_cycles"


def executable_lines(path):
    """Lines that some code object compiled from ``path`` reports."""
    out = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        out.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def statements(tree):
    """(first line, header lines) of every statement in ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            last = body[0].lineno - 1
        else:
            last = node.end_lineno
        yield first, range(first, last + 1)


def unexecuted(hits):
    """``module:line: text`` for every package statement not in ``hits``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        code = executable_lines(path)
        ran = hits.get(str(path), set())
        for first, header in statements(ast.parse(text)):
            mine = code.intersection(header)
            if mine and not mine & ran:
                out.append((path.name, first, lines[first - 1].strip()))
    return [f"{name}:{first}: {text}" for name, first, text in sorted(set(out))]


def main(argv):
    hits = {}
    prefix = str(PACKAGE)

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen = hits.setdefault(name, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        seen.add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--deselect", DESELECT, *argv]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = unexecuted(hits)
    print(f"{len(missed)} package statements never ran (pytest exit {int(code)}):")
    for line in missed:
        print(line)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
