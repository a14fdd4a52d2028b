"""List-coloring instances: a graph plus a color list per vertex.

Color lists are subsets of {1..k} stored as bitmasks (bit c-1 set means
color c is allowed).  k is at most 8.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterable, List, Optional, Tuple

from .graphs import Graph

MAX_K = 8

Coloring = Tuple[int, ...]


class InstanceError(ValueError):
    """Raised for malformed instances."""


class ParseError(ValueError):
    """Raised for malformed instance text, with a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def mask_from_colors(colors: Iterable[int]) -> int:
    out = 0
    for c in colors:
        out |= 1 << (c - 1)
    return out


# the colors of every list mask a valid Instance can hold, by mask
_COLORS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(c + 1 for c in range(mask.bit_length()) if (mask >> c) & 1)
    for mask in range(1 << MAX_K)
)


def colors_from_mask(mask: int) -> Tuple[int, ...]:
    """The colors of the list ``mask``, ascending; ``mask`` must be below
    2**MAX_K."""
    return _COLORS[mask]


def full_mask(k: int) -> int:
    return (1 << k) - 1


class Instance(namedtuple("Instance", "graph k lists")):
    """A list-coloring instance (graph, k, per-vertex color lists)."""

    __slots__ = ()
    # _replace builds through _make, so it validates too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, graph: Graph, k: int, lists: Tuple[int, ...]):
        if not (1 <= k <= MAX_K):
            raise InstanceError(f"k={k} outside 1..{MAX_K}")
        if len(lists) != graph.n:
            raise InstanceError(f"{len(lists)} lists for {graph.n} vertices")
        full = full_mask(k)
        for v, mask in enumerate(lists):
            if mask & ~full:
                raise InstanceError(f"list of vertex {v} exceeds 1..{k}")
        return super().__new__(cls, graph, k, lists)

    def __repr__(self) -> str:
        return f"Instance(n={self.graph.n}, k={self.k})"


def coloring_defect(inst: Instance, phi: Coloring) -> Optional[str]:
    """First violated coloring constraint, or None if ``phi`` is valid.

    Checks, in order: length, color range, list membership, and
    properness along edges.
    """
    g, k, lists = inst
    if len(phi) != g.n:
        return f"coloring has {len(phi)} entries for {g.n} vertices"
    for v in range(g.n):
        c = phi[v]
        if not (1 <= c <= k):
            return f"vertex {v} has color {c} outside 1..{k}"
        if not (lists[v] >> (c - 1)) & 1:
            return f"vertex {v} colored {c} outside its list"
    for u, v in g.edges:
        if phi[u] == phi[v]:
            return f"edge ({u}, {v}) is monochromatic in color {phi[u]}"
    return None


def parse_instance(text: str) -> Instance:
    """Parse the instance text format.

    Grammar: optional '#' comment lines, one header ``p glist n m k``,
    exactly m edge lines ``e u v`` (1-based), and optional list lines
    ``l v c1 c2 ...`` (a bare ``l v`` means the empty list).  Vertices
    without a list line get the full list {1..k}.  A ParseError names
    the offending line; an edge count that does not match the header
    names the header's line, a missing header line 1.
    """
    header_line = None  # where the header was read
    edges: List[Tuple[int, int]] = []
    lists: Dict[int, int] = {}
    n = m = k = 0
    color_bit: Dict[str, int] = {}  # token "c" -> list bit, for 1 <= c <= k
    # the common edge and list lines are tested first; raw.strip() is
    # built only for a header or an error message, and list colors go
    # through int() only when a token is not in color_bit
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "e":
            if header_line is None:
                raise ParseError(line_no, "edge before header")
            if len(fields) != 3:
                raise ParseError(line_no, f"bad edge line {raw.strip()!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(line_no, f"non-integer endpoint in {raw.strip()!r}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"endpoint outside 1..{n}")
            if u == v:
                raise ParseError(line_no, f"loop at vertex {u}")
            edges.append((u - 1, v - 1))
        elif tag == "l":
            if header_line is None:
                raise ParseError(line_no, "list before header")
            if len(fields) < 2:
                raise ParseError(line_no, "list line without vertex")
            mask: Optional[int] = 0
            try:
                for f in fields[2:]:
                    mask |= color_bit[f]
            except KeyError:
                mask = None
            try:
                v = int(fields[1])
                if mask is None:
                    colors = [int(f) for f in fields[2:]]
            except ValueError:
                raise ParseError(line_no, f"non-integer in {raw.strip()!r}")
            if not (1 <= v <= n):
                raise ParseError(line_no, f"vertex {v} outside 1..{n}")
            if v - 1 in lists:
                raise ParseError(line_no, f"duplicate list for vertex {v}")
            if mask is None:
                if any(not (1 <= c <= k) for c in colors):
                    raise ParseError(line_no, f"color outside 1..{k} in {raw.strip()!r}")
                mask = mask_from_colors(colors)
            lists[v - 1] = mask
        elif tag.startswith("#"):
            continue
        elif tag == "p":
            line = raw.strip()
            if header_line is not None:
                raise ParseError(line_no, "duplicate header")
            if len(fields) != 5 or fields[1] != "glist":
                raise ParseError(line_no, f"bad header {line!r}")
            try:
                n, m, k = int(fields[2]), int(fields[3]), int(fields[4])
            except ValueError:
                raise ParseError(line_no, f"non-integer header field in {line!r}")
            if n < 0 or m < 0 or not (1 <= k <= MAX_K):
                raise ParseError(line_no, f"header out of range: n={n} m={m} k={k}")
            header_line = line_no
            color_bit = {str(c): 1 << (c - 1) for c in range(1, k + 1)}
        else:
            raise ParseError(line_no, f"unknown line tag {tag!r}")
    if header_line is None:
        raise ParseError(1, "missing header")
    if len(edges) != m:
        raise ParseError(
            header_line, f"header promises {m} edges, found {len(edges)}"
        )
    full = full_mask(k)
    return Instance(Graph(n, edges), k, tuple(lists.get(v, full) for v in range(n)))


def serialize_instance(inst: Instance) -> str:
    """Inverse of parse_instance; full lists are left implicit."""
    g = inst.graph
    out = [f"p glist {g.n} {g.m} {inst.k}"]
    for u, v in g.edges:
        out.append(f"e {u + 1} {v + 1}")
    full = full_mask(inst.k)
    for v in range(g.n):
        if inst.lists[v] != full:
            colors = " ".join(str(c) for c in colors_from_mask(inst.lists[v]))
            out.append(f"l {v + 1} {colors}".rstrip())
    return "\n".join(out) + "\n"
