"""The list-shrinking reduction toward binary lists.

One round targets a vertex u0 with at least three allowed colors and
either removes vertices or shrinks lists, strictly lowering the
potential p_value.  Rounds assume k = 5, no singleton lists and no good
P3; under those hypotheses frugal colorability survives forward and any
coloring of the output lifts back (the lift functions at the bottom).
The structure of u0's second neighborhood in the list graph drives the
later steps; center_context exposes it for direct inspection.

The rounds of one reduce_to_binary call all run on one WorkingInstance
over the input's vertex ids, and leave local undo records; reduce_once
is a single round on a fresh one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence, Tuple

from .graphs import Graph, bits, is_clique, local_adjacency
from .instances import (
    Instance,
    InstanceError,
    colors_from_mask,
    find_good_p3,
    list_graph,
)
from .oracle import colorings
from .working import LiftStep, ReductionTrace, WorkingInstance, second_ring

log = logging.getLogger("rp3color")

_BIT4 = 1 << 3
_BIT5 = 1 << 4


def _remap_mask(mask: int, mapping: Sequence[int]) -> int:
    out = 0
    for c in range(1, len(mapping) + 1):
        if (mask >> (c - 1)) & 1:
            out |= 1 << (mapping[c - 1] - 1)
    return out


def invert_perm(perm: Sequence[int]) -> Tuple[int, ...]:
    out = [0] * len(perm)
    for old, new in enumerate(perm, start=1):
        out[new - 1] = old
    return tuple(out)


def _perm_for(u0_mask: int, k: int) -> Tuple[int, ...]:
    """Color permutation sending the three smallest colors of the mask
    to 1, 2, 3 (ascending) and the remaining two colors to 4, 5."""
    low = list(colors_from_mask(u0_mask))[:3]
    rest = [c for c in range(1, k + 1) if c not in low]
    perm = [0] * k
    for new, old in enumerate(low, start=1):
        perm[old - 1] = new
    for new, old in enumerate(rest, start=4):
        perm[old - 1] = new
    return tuple(perm)


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


def _context_sets(lists, adj, u0: int):
    """ring, second, four_side, five_side, four_outer, five_outer of
    CenterContext, from list-graph neighbor bitmasks ``adj`` and renamed
    lists (both indexed by vertex; ``lists`` needs only the ring)."""
    ring = tuple(bits(adj[u0]))
    second = tuple(bits(second_ring(adj, u0)))
    four_side = tuple(v for v in ring if lists[v] & _BIT4)
    five_side = tuple(v for v in ring if lists[v] & _BIT5)
    f4 = sum(1 << v for v in four_side)
    f5 = sum(1 << v for v in five_side)
    four_outer = tuple(w for w in second if adj[w] & f4)
    five_outer = tuple(w for w in second if adj[w] & f5)
    return ring, second, four_side, five_side, four_outer, five_outer


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
    return CenterContext(u0, gl, *_context_sets(inst.lists, gl.adj_mask, u0))


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
    if any(inst.lists[w] != (_BIT4 | _BIT5) for w in ctx.second):
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


def reduce_once(inst: Instance, u0: int) -> Tuple[Instance, LiftStep]:
    """One reduction round centered at u0 (list size >= 3).

    Requires k = 5 and no singleton lists; correctness further assumes
    no good P3 (not checked here, the pipeline establishes it).  Steps
    3-5 run on the input colors; steps 6-11 first rename the colors so
    the three smallest of L(u0) become {1,2,3}, and rename output lists
    back.  The returned LiftStep carries the fired step number in
    info['step'].
    """
    if inst.k != 5:
        raise InstanceError(f"k={inst.k}, need 5")
    if any(m.bit_count() == 1 for m in inst.lists):
        v = next(v for v, m in enumerate(inst.lists) if m.bit_count() == 1)
        raise InstanceError(f"vertex {v} has a singleton list")
    if inst.lists[u0].bit_count() < 3:
        raise InstanceError(f"center {u0} has list size below 3")
    ws = WorkingInstance(inst, list_graph=True)
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
        info = {
            "step": 4,
            "vertex": witness,
            "gl_neighbors": tuple(bits(ws.gl[witness])),
        }
        ws.record("step4-removal", info, {witness: lists[witness]})
        ws.kill(witness)
        return

    # step 5: a vertex whose list-graph 2-ball has at most one boundary
    # vertex can be colored locally; record what the boundary may take
    witness = ws.first_local()
    if witness is not None:
        _step5(ws, witness)
        return

    # steps 6-11 read colors 1-5 in the renamed palette
    perm = _perm_for(lists[u0], 5)
    inv = invert_perm(perm)

    def work(v: int) -> int:
        return _remap_mask(lists[v], perm)

    def put(v: int, mask: int) -> None:
        ws.set_list(v, _remap_mask(mask, inv))

    wl = {v: work(v) for v in bits(ws.gl[u0])}
    wl[u0] = work(u0)
    ring, _, a_side, b_side, a_outer, b_outer = _context_sets(wl, ws.gl, u0)

    # step 6 / 7: two attachments on one side strip {4,5} from that side
    for step, outer, side in ((6, a_outer, a_side), (7, b_outer, b_side)):
        if len(outer) >= 2:
            ws.record("spanning", {"step": step, "center": u0, "perm": perm})
            for v in side:
                put(v, wl[v] & ~(_BIT4 | _BIT5))
            return

    # step 8 / 9: twin two-lists on a side pin the outer attachment
    for step, side, outer, bit in (
        (8, a_side, a_outer, _BIT4),
        (9, b_side, b_outer, _BIT5),
    ):
        pair = next(
            (
                (v1, v2)
                for v1, v2 in combinations(side, 2)
                if wl[v1] == wl[v2] and wl[v1].bit_count() == 2
            ),
            None,
        )
        if pair is not None:
            info = {"step": step, "center": u0, "twins": pair, "perm": perm}
            ws.record("spanning", info)
            for w in outer:
                put(w, work(w) & ~bit)
            return

    # step 10: four or more ring vertices pin both outer attachments
    if len(ring) >= 4:
        ws.record("spanning", {"step": 10, "center": u0, "perm": perm})
        for w in a_outer:
            put(w, work(w) & ~_BIT4)
        for w in b_outer:
            put(w, work(w) & ~_BIT5)
        return

    _step11(ws, perm, u0, wl, ring, a_side, b_side, a_outer, b_outer)


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

    realized = 0
    feasible = False
    if boundary:
        cpos = ball.index(boundary[0])
        want = local[cpos]
        for phi in colorings(adj, local, watch):
            feasible = True
            realized |= 1 << (phi[cpos] - 1)
            if realized == want:
                break
    else:
        feasible = next(colorings(adj, local, watch), None) is not None

    if not feasible:
        # step 5b: the ball itself cannot be frugally colored
        info = {"step": 5, "witness": u, "outcome": "5b"}
        ws.record("spanning", info)
        ws.clear_lists()
        return

    # step 5c: delete the closed one-ball, restrict the boundary list to
    # the colors the local enumeration realized there
    info = {
        "step": 5,
        "vertex": u,
        "ball": ball,
        "boundary": boundary,
        "outcome": "5c",
    }
    ws.record("step5c-removal", info, {v: lists[v] for v in ball})
    if boundary:
        ws.set_list(boundary[0], realized)
    for v in bits(removed):
        ws.kill(v)


def _step11(ws, perm, u0, wl, ring, a_side, b_side, a_outer, b_outer) -> None:
    if len(a_outer) != 1 or len(b_outer) != 1 or len(ring) != 3:
        raise InstanceError(
            f"degenerate structure at center {u0}: "
            f"ring={ring} outer={a_outer}/{b_outer}"
        )
    u0_mask = wl[u0]
    i_pool = 0
    for a in a_side:
        i_pool |= wl[a]
    i_pool &= u0_mask
    j_pool = 0
    for b in b_side:
        j_pool |= wl[b]
    j_pool &= u0_mask
    if not i_pool or not j_pool:
        raise InstanceError(f"center {u0} has no anchor colors")
    i = colors_from_mask(i_pool)[0]
    j = colors_from_mask(j_pool)[0]
    if i == j:
        raise InstanceError(f"anchor colors coincide at {i}")
    a = next(v for v in a_side if (wl[v] >> (i - 1)) & 1)
    b = next(v for v in b_side if (wl[v] >> (j - 1)) & 1)
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
        "perm": perm,
    }
    lists = ws.lists
    ws.record("step11-contraction", info, {v: lists[v] for v in (u0, a, b, c)})
    inv = invert_perm(perm)
    ws.kill(c)
    ws.set_list(u0, _remap_mask((1 << (i - 1)) | (1 << (j - 1)), inv))
    ws.set_list(a, _remap_mask((1 << (i - 1)) | _BIT4, inv))
    ws.set_list(b, _remap_mask((1 << (j - 1)) | _BIT5, inv))


def reduce_to_binary(inst: Instance) -> Tuple[Instance, ReductionTrace]:
    """Alternate reduction rounds and singleton elimination to a fixpoint.

    Requires k = 5 and no singleton lists; correctness assumes no good
    P3.  The result has every list size in {0, 2} and the trace replays
    the rounds in order, with the vertex ids of ``inst``.  All rounds
    run on one working instance, so a round costs time near the size of
    the neighborhood it changes, not of the whole instance.
    """
    if inst.k != 5:
        raise InstanceError(f"k={inst.k}, need 5")
    if any(m.bit_count() == 1 for m in inst.lists):
        raise InstanceError("singleton list present")
    if all(m.bit_count() < 3 for m in inst.lists):
        return inst, []  # no round to run; skip building the list graph
    ws = WorkingInstance(inst, list_graph=True)
    while True:
        u0 = ws.first_big()
        if u0 is None:
            return ws.finish()
        before = ws.potential
        fired = len(ws.trace)
        _round(ws, u0)
        ws.eliminate_singletons()
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


def lift_step4(step: LiftStep, out: List[int], g: Graph) -> None:
    u = step.info["vertex"]
    taken = {out[w] for w in step.info["gl_neighbors"]}
    free = [c for c in colors_from_mask(step.lists[u]) if c not in taken]
    if not free:
        raise RuntimeError(f"no free color when restoring vertex {u}")
    out[u] = free[0]


def lift_step5c(step: LiftStep, out: List[int], g: Graph) -> None:
    ball = step.info["ball"]
    boundary = step.info["boundary"]
    cpos = ball.index(boundary[0]) if boundary else None
    want = out[boundary[0]] if boundary else None
    local = [step.lists[v] for v in ball]
    chosen = None
    for cand in colorings(local_adjacency(g, ball), local, (1 << len(ball)) - 1):
        if want is None or cand[cpos] == want:
            chosen = cand
            break
    if chosen is None:
        raise RuntimeError(
            f"no local coloring matches the boundary color {want}"
        )
    for v, col in zip(ball, chosen):
        out[v] = col


def _first_color(mask: int) -> int:
    if not mask:
        raise RuntimeError("color pool empty during lift")
    return (mask & -mask).bit_length()


def _smallest_pair(amask: int, bmask: int) -> Tuple[int, int]:
    """Lexicographically smallest (x, y), x from amask, y from bmask, x != y."""
    for x in colors_from_mask(amask):
        for y in colors_from_mask(bmask):
            if x != y:
                return x, y
    raise RuntimeError("no distinct color pair available")


def lift_step11(step: LiftStep, out: List[int], g: Graph) -> None:
    info = step.info
    perm = info["perm"]
    inv = invert_perm(perm)
    u0, a, b, c = info["center"], info["a"], info["b"], info["c"]

    pa, pb = (
        perm[out[v] - 1] if out[v] else 0
        for v in (info["a_outer"], info["b_outer"])
    )
    if pa not in (4, 5) or pb not in (4, 5):
        raise RuntimeError(f"outer colors {pa}, {pb} escape {{4, 5}}")
    if pa == 4 and pb == 5:
        raise RuntimeError("outer colors 4/5 contradict the contraction")

    la, lb, lc = (_remap_mask(step.lists[v], perm) for v in (a, b, c))
    no45 = ~(_BIT4 | _BIT5)
    hat = {}
    if pa == 4 and pb == 4:
        hat[b] = 5
        if lc & _BIT4:  # c sits on the four side
            kk, ll = _smallest_pair(la & ~_BIT4, lc & ~_BIT4)
        else:
            kk = _first_color(la & no45)
            ll = _first_color(lc & no45 & ~(1 << (kk - 1)))
        hat[a] = kk
        hat[c] = ll
        hat[u0] = min({1, 2, 3} - {kk, ll})
    elif pa == 5 and pb == 5:
        hat[a] = 4
        if lc & _BIT5:  # c sits on the five side
            kk, ll = _smallest_pair(lb & ~_BIT5, lc & ~_BIT5)
        else:
            kk = _first_color(lb & no45)
            ll = _first_color(lc & no45 & ~(1 << (kk - 1)))
        hat[b] = kk
        hat[c] = ll
        hat[u0] = min({1, 2, 3} - {kk, ll})
    else:  # pa == 5, pb == 4
        hat[a] = 4
        hat[b] = 5
        kk = _first_color(lc & no45)
        hat[c] = kk
        hat[u0] = min({1, 2, 3} - {kk})
    for v, col in hat.items():
        out[v] = inv[col - 1]
