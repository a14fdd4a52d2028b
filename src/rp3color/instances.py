"""List-coloring instances: a graph plus a color list per vertex.

Color lists are subsets of {1..k} stored as bitmasks (bit c-1 set means
color c is allowed).  k is at most 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .graphs import Graph

MAX_K = 8

Coloring = Tuple[int, ...]
GoodTriple = Tuple[int, int, int]


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


@dataclass(frozen=True)
class Instance:
    """A list-coloring instance (graph, k, per-vertex color lists)."""

    graph: Graph
    k: int
    lists: Tuple[int, ...]

    def __post_init__(self):
        if not (1 <= self.k <= MAX_K):
            raise InstanceError(f"k={self.k} outside 1..{MAX_K}")
        if len(self.lists) != self.graph.n:
            raise InstanceError(
                f"{len(self.lists)} lists for {self.graph.n} vertices"
            )
        full = full_mask(self.k)
        for v, mask in enumerate(self.lists):
            if mask & ~full:
                raise InstanceError(f"list of vertex {v} exceeds 1..{self.k}")

    def __repr__(self) -> str:
        return f"Instance(n={self.graph.n}, k={self.k})"


def is_good_triple(triple: GoodTriple) -> bool:
    """All three sets have size at least 2 and pairwise intersect."""
    a, b, c = triple
    return (
        a.bit_count() >= 2
        and b.bit_count() >= 2
        and c.bit_count() >= 2
        and a & b != 0
        and a & c != 0
        and b & c != 0
    )


def p3_list_type(inst: Instance, p3: Tuple[int, int, int]) -> GoodTriple:
    """Lists along the path in canonical orientation."""
    a, b, c = p3
    return (inst.lists[a], inst.lists[b], inst.lists[c])


def coloring_defect(inst: Instance, phi: Coloring) -> Optional[str]:
    """First violated coloring constraint, or None if ``phi`` is valid.

    Checks, in order: length, color range, list membership, and
    properness along edges.
    """
    g = inst.graph
    if len(phi) != g.n:
        return f"coloring has {len(phi)} entries for {g.n} vertices"
    for v in range(g.n):
        c = phi[v]
        if not (1 <= c <= inst.k):
            return f"vertex {v} has color {c} outside 1..{inst.k}"
        if not (inst.lists[v] >> (c - 1)) & 1:
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
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
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
        elif tag == "e":
            if header_line is None:
                raise ParseError(line_no, "edge before header")
            if len(fields) != 3:
                raise ParseError(line_no, f"bad edge line {line!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(line_no, f"non-integer endpoint in {line!r}")
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
            try:
                v = int(fields[1])
                colors = [int(f) for f in fields[2:]]
            except ValueError:
                raise ParseError(line_no, f"non-integer in {line!r}")
            if not (1 <= v <= n):
                raise ParseError(line_no, f"vertex {v} outside 1..{n}")
            if v - 1 in lists:
                raise ParseError(line_no, f"duplicate list for vertex {v}")
            if any(not (1 <= c <= k) for c in colors):
                raise ParseError(line_no, f"color outside 1..{k} in {line!r}")
            lists[v - 1] = mask_from_colors(colors)
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
