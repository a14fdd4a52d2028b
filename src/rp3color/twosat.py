"""Binary-list coloring through 2-SAT.

Once every list has at most two colors, list coloring is a 2-SAT
instance: one variable per two-color vertex (true picks the smaller
color), one clause per edge and shared color forbidding that both
endpoints take it.  Linear-time strong connectivity decides it, so this
scales to tens of thousands of vertices.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional, Tuple

from .instances import Coloring, Instance, InstanceError, colors_from_mask

# A literal is a nonzero int: +v or -v for 1-based variable v.
Clause = Tuple[int, ...]


class CnfFormula(namedtuple("CnfFormula", "nvars clauses")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, nvars: int, clauses: Tuple[Clause, ...]):
        for clause in clauses:
            if not (1 <= len(clause) <= 2):
                raise ValueError(f"clause size {len(clause)} outside 1..2")
            for lit in clause:
                if lit == 0 or abs(lit) > nvars:
                    raise ValueError(f"literal {lit} out of range")
        return super().__new__(cls, nvars, clauses)


DecodeEntry = Tuple[int, int, int]  # vertex, smaller color, larger color


def to_2sat(
    inst: Instance,
) -> Optional[Tuple[CnfFormula, Tuple[DecodeEntry, ...]]]:
    """Encode an instance with list sizes <= 2, or None if trivially infeasible.

    None is returned when some list is empty or two adjacent forced
    vertices share their single color.  Variables are numbered by
    ascending vertex id over the two-color vertices; the decode table
    maps each variable to (vertex, smaller, larger).
    """
    g = inst.graph
    lists = inst.lists
    if any(m == 0 for m in lists):
        return None
    var_of: Dict[int, int] = {}
    decode: List[DecodeEntry] = []
    for v in range(g.n):
        size = lists[v].bit_count()
        if size > 2:
            raise InstanceError(f"vertex {v} has list size {size}")
        if size == 2:
            var_of[v] = len(decode)
            lo, hi = colors_from_mask(lists[v])
            decode.append((v, lo, hi))

    def against(v: int, c: int) -> int:
        # literal asserting that v does NOT take color c
        var = var_of[v] + 1
        lo = decode[var_of[v]][1]
        return -var if c == lo else var

    clauses: List[Clause] = []
    for u, v in g.edges:
        shared = lists[u] & lists[v]
        for c in colors_from_mask(shared):
            u_forced = lists[u].bit_count() == 1
            v_forced = lists[v].bit_count() == 1
            if u_forced and v_forced:
                return None
            if u_forced:
                clauses.append((against(v, c),))
            elif v_forced:
                clauses.append((against(u, c),))
            else:
                clauses.append((against(u, c), against(v, c)))
    return CnfFormula(len(decode), tuple(clauses)), tuple(decode)


def _node(lit: int) -> int:
    v = abs(lit) - 1
    return 2 * v if lit > 0 else 2 * v + 1


def _scc(nnodes: int, adj: List[List[int]]) -> List[int]:
    """Tarjan components, iteratively; ids come out in reverse
    topological order of the condensation."""
    index = [0] * nnodes
    low = [0] * nnodes
    comp = [-1] * nnodes
    on_stack = bytearray(nnodes)
    stack: List[int] = []
    counter = 1
    ncomp = 0
    for root in range(nnodes):
        if index[root]:
            continue
        work: List[List[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            v, ptr = frame
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            advanced = False
            edges = adj[v]
            while ptr < len(edges):
                w = edges[ptr]
                ptr += 1
                if not index[w]:
                    frame[1] = ptr
                    work.append([w, 0])
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


def solve_2sat(formula: CnfFormula) -> Optional[Tuple[bool, ...]]:
    """Satisfying assignment or None, via implication-graph components.

    Deterministic: nodes are explored in index order, so the returned
    assignment is a function of the formula alone.
    """
    nnodes = 2 * formula.nvars
    adj: List[List[int]] = [[] for _ in range(nnodes)]
    for clause in formula.clauses:
        if len(clause) == 1:
            (l1,) = clause
            adj[_node(-l1)].append(_node(l1))
        else:
            l1, l2 = clause
            adj[_node(-l1)].append(_node(l2))
            adj[_node(-l2)].append(_node(l1))
    comp = _scc(nnodes, adj)
    out = []
    for v in range(formula.nvars):
        pos, neg = comp[2 * v], comp[2 * v + 1]
        if pos == neg:
            return None
        # smaller component id = later in topological order = chosen
        out.append(pos < neg)
    return tuple(out)


def binary_list_color(inst: Instance) -> Optional[Coloring]:
    """Color an instance whose lists have at most two entries, or None.

    Composes to_2sat and solve_2sat and decodes the assignment; forced
    vertices keep their single color.
    """
    encoded = to_2sat(inst)
    if encoded is None:
        return None
    formula, decode = encoded
    assignment = solve_2sat(formula)
    if assignment is None:
        return None
    phi = [0] * inst.graph.n
    for v in range(inst.graph.n):
        mask = inst.lists[v]
        if mask.bit_count() == 1:
            phi[v] = mask.bit_length()
    for var, (v, lo, hi) in enumerate(decode):
        phi[v] = lo if assignment[var] else hi
    return tuple(phi)
