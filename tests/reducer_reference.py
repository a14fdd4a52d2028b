"""Reference structure checks around a reduction center.

center_context builds the second-neighborhood structure of a center
whose list is {1, 2, 3}, and check_center_context lists the structure
assertions it violates.  The sets are computed here from the list graph
with plain set operations, so they share no code with the reducer's
own context computation that they check.  eliminate_singletons gives
the singleton-free instance that tests of the reduction rounds start
from.

An undo record holds only its step number and the lists it saved.
record_kind, record_vertex, outcome, step5_ball and step11_roles read
back from those, and from the instance the round ran on, what tests ask
of a record: its provenance, the vertex it deletes, the step-5 outcome,
ball and boundary, and the step-11 roles.  lift_by_brute_force undoes
a trace by pipeline.lift's rule, enumerating each record's colorings.
"""

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from rp3color.graphs import Graph
from rp3color.instances import (
    Instance,
    InstanceError,
    colors_from_mask,
)
from rp3color.working import LiftStep, ReductionTrace, WorkingInstance

from instance_reference import find_good_p3, is_clique, list_graph

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


def eliminate_singletons(inst: Instance) -> Tuple[Instance, ReductionTrace]:
    """``inst`` with each vertex of a one-color list deleted in turn,
    lowest id first, and its color taken from the neighbor lists
    (WorkingInstance.eliminate_singletons): the renumbered output, which
    may keep empty lists, and its closed singleton-removal trace."""
    ws = WorkingInstance(inst)
    ws.eliminate_singletons()
    return ws.finish()


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


# the step numbers of records that only shrink lists and save none
SPANNING = {3, 6, 7, 8, 9, 10}
SAVES = {4: 1, 11: 4}  # saved lists of a step-4 or step-11 record


def record_kind(step: LiftStep) -> str:
    """The provenance of an undo record, read off its step number and
    whether it saved lists: 'singleton-removal', 'spanning' (steps 3,
    5b and 6-10), 'step4-removal', 'step5c-removal' or
    'step11-contraction'.  Raises AssertionError on a record whose saved
    lists do not fit its step."""
    n = step.info.get("step")
    saved = len(step.lists)
    if n is None:
        assert step.info == {} and saved == 1, step
        return "singleton-removal"
    assert n in SPANNING | {4, 5, 11}, step
    if n in SPANNING or (n == 5 and not saved):
        assert not saved, step
        return "spanning"
    assert saved and saved == SAVES.get(n, saved), step
    return {4: "step4-removal", 5: "step5c-removal", 11: "step11-contraction"}[n]


def record_vertex(step: LiftStep) -> int:
    """The vertex a singleton or step-4 record deletes: the one vertex
    whose list it saved."""
    (v,) = step.lists
    return v


def outcome(step: LiftStep):
    """'5b' for a step-5 record that saved no lists (the ball has no
    frugal coloring), '5c' for one that did, None for any other step."""
    if step.info.get("step") != 5:
        return None
    return "5c" if step.lists else "5b"


def _closed(gl: Graph, v: int) -> Set[int]:
    return _neighbors(gl, v) | {v}


def step5_ball(inst: Instance, step: LiftStep) -> Tuple[Tuple[int, ...], ...]:
    """(ball, boundary) of a step-5c record on ``inst``, the instance
    its round ran on.  The record saved the closed list-graph one-ball
    of its vertex; the ball is that vertex's closed two-ball and the
    boundary its vertices at distance exactly two."""
    gl = list_graph(inst)
    removed = set(step.lists)
    if not any(_closed(gl, u) == removed for u in removed):
        raise AssertionError(f"{sorted(removed)} is no closed one-ball")
    ball = set().union(*(_closed(gl, v) for v in removed))
    return tuple(sorted(ball)), tuple(sorted(ball - removed))


def step11_roles(inst: Instance, step: LiftStep) -> Dict[str, int]:
    """The center, anchors a and b, third ring vertex c, outer vertices
    a_outer and b_outer, and anchor colors i and j of a step-11 record on
    ``inst``, the instance its round ran on, whose center list must be
    {1, 2, 3}.  The center is the saved vertex list-adjacent to the
    other three; the rest follows from its CenterContext by the role
    rule: i (j) is the smallest color the center shares with its four
    (five) side, a (b) the lowest vertex of that side whose list holds
    it, and c the ring vertex left over."""
    gl = list_graph(inst)
    saved = set(step.lists)
    (center,) = [v for v in saved if saved - {v} <= _neighbors(gl, v)]
    ctx = center_context(inst, center)
    lists = inst.lists

    def anchor(side):
        color = min(
            c for v in side for c in colors_from_mask(lists[v] & lists[center])
        )
        return color, min(v for v in side if (lists[v] >> (color - 1)) & 1)

    (i, a), (j, b) = anchor(ctx.four_side), anchor(ctx.five_side)
    (c,) = set(ctx.ring) - {a, b}
    (a_outer,), (b_outer,) = ctx.four_outer, ctx.five_outer
    return {
        "center": center,
        "a": a,
        "b": b,
        "c": c,
        "a_outer": a_outer,
        "b_outer": b_outer,
        "i": i,
        "j": j,
    }


def lift_by_brute_force(
    trace: ReductionTrace, phi
) -> Optional[Tuple[Tuple[int, ...], int]]:
    """The lift of ``phi`` through ``trace`` by pipeline.lift's rule, and
    how many vertices a record recolored away from the color they held
    when it was undone; None when some record has no such coloring.

    Records go newest-first.  Each one's vertices, in record order with
    colors ascending, take the first assignment from their saved lists
    that is proper among them and avoids every color held by a neighbor
    outside the record (0, none, for one not colored yet).  The colors
    the record's own vertices hold are ignored.  Neighbor sets come from
    the edge list.
    """
    source, keep = trace[-1].closing
    g = source.graph
    near: List[Set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        near[u].add(v)
        near[v].add(u)
    out = [0] * g.n
    for child, v in enumerate(keep):
        out[v] = phi[child]
    recolored = 0
    for step in reversed(trace):
        vertices = tuple(step.lists)
        options = []
        for v in vertices:
            taken = {out[w] for w in near[v] if w not in step.lists}
            listed = colors_from_mask(step.lists[v])
            options.append([c for c in listed if c not in taken])
        pairs = [
            (i, j)
            for i, j in itertools.combinations(range(len(vertices)), 2)
            if vertices[j] in near[vertices[i]]
        ]
        colors = next(
            (
                combo
                for combo in itertools.product(*options)
                if all(combo[i] != combo[j] for i, j in pairs)
            ),
            None,
        )
        if colors is None:
            return None
        for v, c in zip(vertices, colors):
            recolored += out[v] not in (0, c)
            out[v] = c
    return tuple(out), recolored
