"""Reference structure checks around a reduction center.

center_context builds the second-neighborhood structure of a center
whose list is {1, 2, 3}, and check_center_context lists the structure
assertions it violates.  The sets are computed here from the list graph
with plain set operations, so they share no code with the reducer's
own context computation that they check.
"""

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from rp3color.graphs import Graph, is_clique
from rp3color.instances import (
    Instance,
    InstanceError,
    colors_from_mask,
    find_good_p3,
    list_graph,
)

FOUR = 1 << 3
FIVE = 1 << 4


@dataclass(frozen=True)
class CenterContext:
    """Second-neighborhood structure around a center with list {1,2,3}.

    All sets live in the list graph ``gl``: ``ring`` is the center's
    neighborhood, ``second`` the vertices at distance exactly two.
    ``four_side`` / ``five_side`` are ring vertices whose list holds
    color 4 / 5; ``four_outer`` / ``five_outer`` are second-ring
    vertices with a list-graph neighbor on the matching side.
    """

    center: int
    gl: Graph
    ring: Tuple[int, ...]
    second: Tuple[int, ...]
    four_side: Tuple[int, ...]
    five_side: Tuple[int, ...]
    four_outer: Tuple[int, ...]
    five_outer: Tuple[int, ...]


def _neighbors(gl: Graph, v: int) -> Set[int]:
    return {w for w in range(gl.n) if w != v and gl.has_edge(v, w)}


def center_context(inst: Instance, u0: int) -> CenterContext:
    """Build the second-neighborhood context, validating its hypotheses.

    Requires k = 5, every list size in {0, 2, 3}, the center list equal
    to {1, 2, 3}, and no good P3.
    """
    if inst.k != 5:
        raise InstanceError(f"k={inst.k}, need 5")
    for v, mask in enumerate(inst.lists):
        if mask.bit_count() not in (0, 2, 3):
            raise InstanceError(f"vertex {v} has list size {mask.bit_count()}")
    if inst.lists[u0] != 0b00111:
        raise InstanceError(
            f"center list {colors_from_mask(inst.lists[u0])} is not (1, 2, 3)"
        )
    bad = find_good_p3(inst)
    if bad is not None:
        raise InstanceError(f"good P3 at {bad}")
    gl = list_graph(inst)
    ring = _neighbors(gl, u0)
    second = set().union(*(_neighbors(gl, v) for v in ring)) - ring - {u0}
    four_side = {v for v in ring if inst.lists[v] & FOUR}
    five_side = {v for v in ring if inst.lists[v] & FIVE}
    four_outer = {w for w in second if _neighbors(gl, w) & four_side}
    five_outer = {w for w in second if _neighbors(gl, w) & five_side}
    return CenterContext(
        u0,
        gl,
        *(
            tuple(sorted(s))
            for s in (ring, second, four_side, five_side, four_outer, five_outer)
        ),
    )


def _complete_or_anticomplete(gl: Graph, w: int, side: Sequence[int]) -> bool:
    others = [v for v in side if v != w]
    if not others:
        return True
    hits = sum(1 for v in others if gl.has_edge(w, v))
    return hits == 0 or hits == len(others)


def check_center_context(ctx: CenterContext, inst: Instance) -> List[str]:
    """Violated structure assertions for the context, empty when sound.

    The assertions: closed second ball has list sizes {2,3}; second ring
    lists are exactly {4,5}; the second ring is covered by the two outer
    sets; each side and each outer set is a list-graph clique; every
    closed-ball vertex is complete or anticomplete to each side; and
    when the second ring has two or more vertices while both outer sets
    have at most one, the outer sets are disjoint singletons, the sides
    are nonempty disjoint with pairwise disjoint lists, and each outer
    vertex is anticomplete (in the input graph) to the opposite side.
    """
    gl = ctx.gl
    out: List[str] = []
    ball = sorted({ctx.center} | set(ctx.ring) | set(ctx.second))
    if any(inst.lists[u].bit_count() not in (2, 3) for u in ball):
        out.append("ball-list-sizes")
    if any(inst.lists[w] != (FOUR | FIVE) for w in ctx.second):
        out.append("second-ring-lists")
    if set(ctx.second) != set(ctx.four_outer) | set(ctx.five_outer):
        out.append("second-ring-cover")
    if not is_clique(gl, ctx.four_side) or not is_clique(gl, ctx.five_side):
        out.append("side-cliques")
    for w in ball:
        if not _complete_or_anticomplete(gl, w, ctx.four_side):
            out.append("side-attachment")
            break
        if not _complete_or_anticomplete(gl, w, ctx.five_side):
            out.append("side-attachment")
            break
    if not is_clique(gl, ctx.four_outer) or not is_clique(gl, ctx.five_outer):
        out.append("outer-cliques")
    if (
        len(ctx.second) >= 2
        and len(ctx.four_outer) <= 1
        and len(ctx.five_outer) <= 1
    ):
        ok = (
            len(ctx.four_outer) == 1
            and len(ctx.five_outer) == 1
            and not (set(ctx.four_outer) & set(ctx.five_outer))
            and ctx.four_side
            and ctx.five_side
            and not (set(ctx.four_side) & set(ctx.five_side))
        )
        if ok:
            g = inst.graph
            if any(
                g.has_edge(w, b)
                for w in ctx.four_outer
                for b in ctx.five_side
            ) or any(
                g.has_edge(w, a)
                for w in ctx.five_outer
                for a in ctx.four_side
            ):
                ok = False
        if ok and any(
            inst.lists[a] & inst.lists[b]
            for a in ctx.four_side
            for b in ctx.five_side
        ):
            ok = False
        if not ok:
            out.append("pinched-ring")
    return out


def center_context_report(inst: Instance, u0: int):
    """('checked', violations) or ('skipped', reason) when hypotheses fail."""
    try:
        ctx = center_context(inst, u0)
    except InstanceError as exc:
        return "skipped", str(exc)
    return "checked", check_center_context(ctx, inst)
