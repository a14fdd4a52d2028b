"""The list-shrinking reduction toward binary lists.

One round targets a vertex u0 with at least three allowed colors and
either removes vertices or shrinks lists, strictly lowering the
potential |V| + sum of list sizes.  Rounds assume k = 5, no singleton
lists and no good P3; under those hypotheses frugal colorability
survives forward and any coloring of the output lifts back: a round's
record saves the old lists of the vertices it deletes or recolors, and
pipeline.lift colors those again around their neighbors' colors.

Steps 6-11 name colors by their role around u0: roles 1-3 are the three
smallest colors of L(u0) and roles 4 and 5 the other two, each group
ascending.  Lists stay in the input colors; where a step takes the
smallest color of a set, it takes the first in role order.  The ring of
u0 in the list graph splits into a four side and a five side by the
colors in roles 4 and 5, and their attachments in u0's second ring drive
these steps.

A reduce_to_binary call first deletes the input's one-color lists, then
runs its rounds, all on one WorkingInstance over the input's vertex ids,
and leaves local undo records.  reduce_once is a single round on a fresh
one.
"""

from __future__ import annotations

import logging
from itertools import combinations
from typing import Sequence, Tuple

from .graphs import bits, local_adjacency
from .instances import Instance, InstanceError, colors_from_mask
from .oracle import colorings
from .working import LiftStep, ReductionTrace, WorkingInstance, second_ring

log = logging.getLogger("rp3color")


def _roles(u0_mask: int) -> Tuple[int, ...]:
    """The input colors playing roles 1-5 around a center with list
    ``u0_mask``: its three smallest colors ascending, then the other two
    colors ascending."""
    low = colors_from_mask(u0_mask)[:3]
    return low + tuple(c for c in range(1, 6) if c not in low)


def _first_in(order: Sequence[int], mask: int) -> int:
    """First color of ``order`` that ``mask`` holds."""
    for c in order:
        if (mask >> (c - 1)) & 1:
            return c
    raise RuntimeError("color pool empty")


def _context_sets(lists, adj, u0: int, four: int, five: int):
    """ring (u0's neighbors), the four and five sides (ring vertices
    whose list holds bit ``four`` / ``five``) and the four and five
    outer sets (vertices at distance exactly two with a neighbor on that
    side), all in the list graph with neighbor bitmasks ``adj``."""
    ring = tuple(bits(adj[u0]))
    second = tuple(bits(second_ring(adj, u0)))
    four_side = tuple(v for v in ring if lists[v] & four)
    five_side = tuple(v for v in ring if lists[v] & five)
    f4 = sum(1 << v for v in four_side)
    f5 = sum(1 << v for v in five_side)
    four_outer = tuple(w for w in second if adj[w] & f4)
    five_outer = tuple(w for w in second if adj[w] & f5)
    return ring, four_side, five_side, four_outer, five_outer


def reduce_once(inst: Instance, u0: int) -> Tuple[Instance, LiftStep]:
    """One reduction round centered at u0 (list size >= 3).

    Requires k = 5 and no singleton lists; correctness further assumes
    no good P3 (not checked here, the pipeline establishes it).  Steps
    6-11 choose colors by their role around u0 (see the module
    docstring); every list read and written is in the input colors.
    The returned LiftStep carries the fired step number in
    info['step'].
    """
    if inst.k != 5:
        raise InstanceError(f"k={inst.k}, need 5")
    if any(m.bit_count() == 1 for m in inst.lists):
        v = next(v for v, m in enumerate(inst.lists) if m.bit_count() == 1)
        raise InstanceError(f"vertex {v} has a singleton list")
    if inst.lists[u0].bit_count() < 3:
        raise InstanceError(f"center {u0} has list size below 3")
    ws = WorkingInstance(inst)
    _round(ws, u0)
    out, trace = ws.finish()
    return out, trace[0]


def _round(ws: WorkingInstance, u0: int) -> None:
    """One reduction round centered at u0 on the working instance.

    Appends the round's record to the trace.  Witnesses are the lowest
    alive ids, as on the renumbered instance the round stands for.
    """
    lists = ws.lists

    # step 3: a vertex with five list-graph neighbors forces failure
    witness = ws.first_wide()
    if witness is not None:
        ws.record("spanning", {"step": 3, "witness": witness})
        ws.clear_lists()
        return

    # step 4: a vertex with fewer list-graph neighbors than list colors
    # is always colorable last, so drop it
    witness = ws.first_low()
    if witness is not None:
        ws.kill(witness)
        ws.record(
            "step4-removal",
            {"step": 4, "vertex": witness},
            {witness: lists[witness]},
        )
        return

    # step 5: a vertex whose list-graph 2-ball has at most one boundary
    # vertex can be colored locally; record what the boundary may take
    witness = ws.first_local()
    if witness is not None:
        _step5(ws, witness)
        return

    # steps 6-11 name colors by role: "4" and "5" are the colors in
    # roles 4 and 5, the two outside the three smallest of L(u0)
    roles = _roles(lists[u0])
    four, five = 1 << (roles[3] - 1), 1 << (roles[4] - 1)
    sets = _context_sets(lists, ws.gl, u0, four, five)
    ring, a_side, b_side, a_outer, b_outer = sets

    # step 6 / 7: two attachments on one side strip {4,5} from that side
    for step, outer, side in ((6, a_outer, a_side), (7, b_outer, b_side)):
        if len(outer) >= 2:
            ws.record("spanning", {"step": step, "center": u0})
            for v in side:
                ws.set_list(v, lists[v] & ~(four | five))
            return

    # step 8 / 9: twin two-lists on a side pin the outer attachment
    for step, side, outer, bit in (
        (8, a_side, a_outer, four),
        (9, b_side, b_outer, five),
    ):
        pair = next(
            (
                (v1, v2)
                for v1, v2 in combinations(side, 2)
                if lists[v1] == lists[v2] and lists[v1].bit_count() == 2
            ),
            None,
        )
        if pair is not None:
            ws.record("spanning", {"step": step, "center": u0, "twins": pair})
            for w in outer:
                ws.set_list(w, lists[w] & ~bit)
            return

    # step 10: four or more ring vertices pin both outer attachments
    if len(ring) >= 4:
        ws.record("spanning", {"step": 10, "center": u0})
        for w in a_outer:
            ws.set_list(w, lists[w] & ~four)
        for w in b_outer:
            ws.set_list(w, lists[w] & ~five)
        return

    _step11(ws, roles, u0, ring, a_side, b_side, a_outer, b_outer)


def _step5(ws: WorkingInstance, u: int) -> None:
    """Step 5 on the input colors: no outcome depends on their names."""
    lists = ws.lists
    second = second_ring(ws.gl, u)
    removed = ws.gl[u] | (1 << u)
    ball = tuple(bits(removed | second))
    boundary = tuple(bits(second))
    local = [lists[v] for v in ball]
    adj = local_adjacency(ws.graph, ball)
    watch = (1 << len(ball)) - 1  # frugal at every ball vertex

    # the boundary colors some frugal ball coloring realizes; with no
    # boundary, bit 0 records that the ball has one at all
    pos = ball.index(boundary[0]) if boundary else None
    full = 1 if pos is None else local[pos]
    realized = 0
    for phi in colorings(adj, local, watch):
        realized |= 1 if pos is None else 1 << (phi[pos] - 1)
        if realized == full:
            break

    if not realized:
        # step 5b: the ball itself cannot be frugally colored
        info = {"step": 5, "witness": u, "outcome": "5b"}
        ws.record("spanning", info)
        ws.clear_lists()
        return

    # step 5c: delete the closed one-ball, restrict the boundary list to
    # the colors the local enumeration realized there; the lift recolors
    # the one-ball around the boundary's color
    info = {
        "step": 5,
        "vertex": u,
        "ball": ball,
        "boundary": boundary,
        "outcome": "5c",
    }
    ws.record("step5c-removal", info, {v: lists[v] for v in bits(removed)})
    if boundary:
        ws.set_list(boundary[0], realized)
    for v in bits(removed):
        ws.kill(v)


def _step11(ws, roles, u0, ring, a_side, b_side, a_outer, b_outer) -> None:
    if len(a_outer) != 1 or len(b_outer) != 1 or len(ring) != 3:
        raise InstanceError(
            f"degenerate structure at center {u0}: "
            f"ring={ring} outer={a_outer}/{b_outer}"
        )
    lists = ws.lists
    i_pool = 0
    for a in a_side:
        i_pool |= lists[a]
    i_pool &= lists[u0]
    j_pool = 0
    for b in b_side:
        j_pool |= lists[b]
    j_pool &= lists[u0]
    if not i_pool or not j_pool:
        raise InstanceError(f"center {u0} has no anchor colors")
    i, j = _first_in(roles, i_pool), _first_in(roles, j_pool)
    if i == j:
        raise InstanceError(f"anchor colors coincide at {i}")
    a = next(v for v in a_side if (lists[v] >> (i - 1)) & 1)
    b = next(v for v in b_side if (lists[v] >> (j - 1)) & 1)
    third = [v for v in ring if v not in (a, b)]
    if len(third) != 1:
        raise InstanceError(f"ring {ring} minus anchors is {third}")
    c = third[0]

    info = {
        "step": 11,
        "center": u0,
        "a": a,
        "b": b,
        "c": c,
        "a_outer": a_outer[0],
        "b_outer": b_outer[0],
        "i": i,
        "j": j,
    }
    ws.record("step11-contraction", info, {v: lists[v] for v in (u0, a, b, c)})
    ws.kill(c)
    ws.set_list(u0, (1 << (i - 1)) | (1 << (j - 1)))
    ws.set_list(a, (1 << (i - 1)) | (1 << (roles[3] - 1)))
    ws.set_list(b, (1 << (j - 1)) | (1 << (roles[4] - 1)))


def reduce_to_binary(inst: Instance) -> Tuple[Instance, ReductionTrace]:
    """Delete the one-color lists, then alternate reduction rounds and
    singleton elimination to a fixpoint.

    Requires k = 5; correctness assumes no good P3.  An input with no
    list of three or more colors comes back unchanged with an empty
    trace, one-color lists and all (to_2sat reads them as forced
    vertices).  Otherwise the result has every list size in {0, 2} and
    the trace, in the vertex ids of ``inst``, first deletes the vertices
    with one-color lists (WorkingInstance.eliminate_singletons) and then
    replays the rounds in order.  pipeline.lift reads only each
    record's saved lists and the closing data on the last one.  All of
    it runs on one working instance, so a round costs time near the size
    of the neighborhood it changes, not of the whole instance.
    """
    if inst.k != 5:
        raise InstanceError(f"k={inst.k}, need 5")
    if all(m.bit_count() < 3 for m in inst.lists):
        return inst, []  # no round to run; skip building the list graph
    ws = WorkingInstance(inst)
    ws.eliminate_singletons()
    debug = log.isEnabledFor(logging.DEBUG)
    while True:
        u0 = ws.first_big()
        if u0 is None:
            return ws.finish()
        before = ws.potential
        fired = len(ws.trace)
        _round(ws, u0)
        ws.eliminate_singletons()
        if debug:
            log.debug(
                "round: step %d at center %d, p %d -> %d",
                ws.trace[fired].info["step"],
                u0,
                before,
                ws.potential,
            )
        if ws.potential >= before:
            raise RuntimeError(
                f"potential failed to drop: {before} -> {ws.potential}"
            )
