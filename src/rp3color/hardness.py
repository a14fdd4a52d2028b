"""Hardness gadgets: monotone not-all-equal 3-SAT to 5-coloring.

Each formula maps to a graph on a 5-clique C, variable vertices X,
clause guards Y, and clause selectors U such that the graph is
5-colorable exactly when the formula has an assignment making every
clause mixed (not all three literals equal).  All generated graphs are
free of two anticomplete induced four-vertex paths, which is what makes
the family a hardness frontier.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Optional, Tuple

from .graphs import Graph
from .instances import Instance, ParseError, full_mask


class NaeInstance(namedtuple("NaeInstance", "n clauses")):
    """Monotone formula: clauses are triples of 1-based variable ids.

    Repeats inside a clause are allowed; (x, x, x) is the smallest
    unsatisfiable formula under not-all-equal semantics.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, clauses: Tuple[Tuple[int, int, int], ...]):
        if n < 0:
            raise ValueError(f"variable count {n} negative")
        for clause in clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} does not have 3 literals")
            for i in clause:
                if not 1 <= i <= n:
                    raise ValueError(f"variable {i} outside 1..{n}")
        return super().__new__(cls, n, clauses)

    @property
    def m(self) -> int:
        return len(self.clauses)


def parse_nae(text: str) -> NaeInstance:
    """Parse the `p nae <n> <m>` / `c <i1> <i2> <i3>` format.

    Comment lines start with '#'.  Malformed input raises ParseError
    with the offending line number; a clause count that does not match
    the header names the header's line, a missing header line 1.
    """
    header: Optional[Tuple[int, int]] = None
    clauses: List[Tuple[int, int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise ParseError(line_no, "duplicate header")
            if len(parts) != 4 or parts[1] != "nae":
                raise ParseError(line_no, f"bad header {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(line_no, f"bad header counts {line!r}")
            if n < 0 or m < 0:
                raise ParseError(line_no, "negative counts")
            header, header_line = (n, m), line_no
        elif parts[0] == "c":
            if header is None:
                raise ParseError(line_no, "clause before header")
            if len(parts) != 4:
                raise ParseError(line_no, f"clause needs 3 literals: {line!r}")
            try:
                triple = tuple(int(x) for x in parts[1:])
            except ValueError:
                raise ParseError(line_no, f"bad literal in {line!r}")
            for i in triple:
                if not 1 <= i <= header[0]:
                    raise ParseError(line_no, f"variable {i} out of range")
            clauses.append(triple)
        else:
            raise ParseError(line_no, f"unknown line type {parts[0]!r}")
    if header is None:
        raise ParseError(1, "missing header")
    if len(clauses) != header[1]:
        raise ParseError(
            header_line, f"header claims {header[1]} clauses, found {len(clauses)}"
        )
    return NaeInstance(header[0], tuple(clauses))


def serialize_nae(nae: NaeInstance) -> str:
    lines = [f"p nae {nae.n} {nae.m}"]
    for clause in nae.clauses:
        lines.append("c " + " ".join(str(i) for i in clause))
    return "\n".join(lines) + "\n"


def build_hardness_graph(nae: NaeInstance) -> Instance:
    """The gadget graph as a full-list 5-coloring instance.

    Vertex order: the clique c1..c5, the variables x1..xn, then per
    clause the guard pair yj, zj, then per clause the selector block
    uj1, uj2, uj3, wj1, wj2, wj3.  Colors 1 and 2 on a variable vertex
    encode true and false; the guards force every clause to see both.
    """
    n, m = nae.n, nae.m
    c = list(range(5))
    x = [5 + i for i in range(n)]
    y = [5 + n + 2 * j for j in range(m)]
    z = [5 + n + 2 * j + 1 for j in range(m)]
    ubase = 5 + n + 2 * m

    def u(j: int, k: int) -> int:  # j, k are 1-based
        return ubase + 6 * (j - 1) + (k - 1)

    def w(j: int, k: int) -> int:
        return ubase + 6 * (j - 1) + 3 + (k - 1)

    edges = []
    for i in range(5):
        for i2 in range(i + 1, 5):
            edges.append((c[i], c[i2]))
    for xi in x:
        for ci in (c[2], c[3], c[4]):
            edges.append((ci, xi))
    for j in range(m):
        for guard in (y[j], z[j]):
            edges.append((c[0], guard))
            edges.append((c[1], guard))
    for j in range(1, m + 1):
        for k in (1, 2, 3):
            edges.append((c[0], u(j, k)))
            edges.append((c[1], w(j, k)))
    for j in range(1, m + 1):
        for i in (3, 4, 5):
            for k in (1, 2, 3):
                if i == k + 2:
                    continue
                edges.append((c[i - 1], u(j, k)))
                edges.append((c[i - 1], w(j, k)))
    for xi in x:
        for j in range(m):
            edges.append((xi, y[j]))
            edges.append((xi, z[j]))
    for j in range(1, m + 1):
        for k in (1, 2, 3):
            edges.append((y[j - 1], u(j, k)))
            edges.append((z[j - 1], w(j, k)))
    for j, clause in enumerate(nae.clauses, start=1):
        for k in (1, 2, 3):
            xi = x[clause[k - 1] - 1]
            edges.append((xi, u(j, k)))
            edges.append((xi, w(j, k)))

    nv = 5 + n + 8 * m
    g = Graph(nv, edges)
    return Instance(g, 5, tuple(full_mask(5) for _ in range(nv)))
