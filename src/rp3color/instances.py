"""List-coloring instances: a graph plus a color list per vertex.

Color lists are subsets of {1..k} stored as bitmasks (bit c-1 set means
color c is allowed).  k is at most 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .graphs import Graph, GraphError, induced_p3_stream

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


def colors_from_mask(mask: int) -> Tuple[int, ...]:
    return tuple(c + 1 for c in range(mask.bit_length()) if (mask >> c) & 1)


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

    def list_of(self, v: int) -> Tuple[int, ...]:
        return colors_from_mask(self.lists[v])

    def __repr__(self) -> str:
        return f"Instance(n={self.graph.n}, k={self.k})"


def list_holders(inst: Instance, c: int) -> Tuple[int, ...]:
    """Vertices whose list contains color ``c``, ascending."""
    bit = 1 << (c - 1)
    return tuple(v for v in range(inst.graph.n) if inst.lists[v] & bit)


def list_graph(inst: Instance) -> Graph:
    """Spanning subgraph keeping only edges whose endpoint lists intersect."""
    lists = inst.lists
    kept = [(u, v) for u, v in inst.graph.edges if lists[u] & lists[v]]
    return Graph(inst.graph.n, kept)


def p_value(inst: Instance) -> int:
    """Potential |V| + sum of list sizes; every reduction round lowers it."""
    return inst.graph.n + sum(m.bit_count() for m in inst.lists)


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


def triple_weight(triple: GoodTriple) -> int:
    return sum(m.bit_count() for m in triple)


def p3_list_type(inst: Instance, p3: Tuple[int, int, int]) -> GoodTriple:
    """Lists along the path in canonical orientation."""
    a, b, c = p3
    return (inst.lists[a], inst.lists[b], inst.lists[c])


def find_good_p3(inst: Instance) -> Optional[Tuple[int, int, int]]:
    """First induced P3 (stream order) whose list type is good, or None.

    Goodness does not depend on the orientation of the path, so the
    canonical orientation is checked.
    """
    for p3 in induced_p3_stream(inst.graph):
        if is_good_triple(p3_list_type(inst, p3)):
            return p3
    return None


def coloring_defect(
    inst: Instance, phi: Coloring, frugal: bool = False
) -> Optional[str]:
    """First violated coloring constraint, or None if ``phi`` is valid.

    Checks, in order: length, color range, list membership, properness
    along edges, and (if ``frugal``) that no vertex has two neighbors
    sharing a color from its own list.
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
    if frugal:
        holders = [0] * (inst.k + 1)
        for v, c in enumerate(phi):
            holders[c] |= 1 << v
        for v in range(g.n):
            for c in colors_from_mask(inst.lists[v]):
                seen = (g.adj_mask[v] & holders[c]).bit_count()
                if seen >= 2:
                    return f"vertex {v} has {seen} neighbors in its listed color {c}"
    return None


def verify_coloring(inst: Instance, phi: Coloring, frugal: bool = False) -> bool:
    return coloring_defect(inst, phi, frugal) is None


def parse_instance(text: str) -> Instance:
    """Parse the instance text format.

    Grammar: optional '#' comment lines, one header ``p glist n m k``,
    exactly m edge lines ``e u v`` (1-based), and optional list lines
    ``l v c1 c2 ...`` (a bare ``l v`` means the empty list).  Vertices
    without a list line get the full list {1..k}.
    """
    header = None
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
            if header is not None:
                raise ParseError(line_no, "duplicate header")
            if len(fields) != 5 or fields[1] != "glist":
                raise ParseError(line_no, f"bad header {line!r}")
            try:
                n, m, k = int(fields[2]), int(fields[3]), int(fields[4])
            except ValueError:
                raise ParseError(line_no, f"non-integer header field in {line!r}")
            if n < 0 or m < 0 or not (1 <= k <= MAX_K):
                raise ParseError(line_no, f"header out of range: n={n} m={m} k={k}")
            header = (n, m, k)
        elif tag == "e":
            if header is None:
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
            if header is None:
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
    if header is None:
        raise ParseError(1, "missing header")
    if len(edges) != m:
        raise ParseError(1, f"header promises {m} edges, found {len(edges)}")
    try:
        graph = Graph(n, edges)
    except GraphError as exc:
        raise ParseError(1, str(exc))
    full = full_mask(k)
    return Instance(graph, k, tuple(lists.get(v, full) for v in range(n)))


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
