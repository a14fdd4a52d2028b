"""Solver orchestration: root checks, peeling, branch search, lifting.

solve() runs the full decision procedure.  An optional packing check
rejects inputs outside the supported graph class.  A clique Hall check
on the input lists then refutes many uncolorable inputs at the root,
with a refutation that is verified before it is returned.  Next the
input is peeled to its list-degenerate kernel: a vertex with fewer
list-graph neighbors than colors can always be colored last, so it is
removed, repeatedly, and only the kernel is searched.  A kernel whose
complement is disconnected is a join of its co-components, which must
take pairwise disjoint color sets; it is split, and each co-component is
decided on its own color set by the same path, one level deeper.
candidate_stream walks the kernel's profile elements and their good-P3
branching depth-first, once per searched kernel, pruning repeated nodes
by their multi-color lists; each leaf is reduced to a binary-list
instance and handed to 2-SAT.  The first feasible leaf is lifted back
through its reduction trace, the co-components' colorings are put
together, the peeled vertices are colored again in reverse peel order,
and the result is verified against the original instance, so a
colorable verdict is trustworthy no matter what internal shortcuts the
search took.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .goodp3 import _earliest_good, pivot_refinements
from .graphs import (
    Graph,
    anticomplete_packing,
    bits,
    co_components,
    induced_p3_stream,
    induced_subgraph,
    local_adjacency,
)
from .instances import (
    MAX_K,
    Coloring,
    Instance,
    InstanceError,
    coloring_defect,
    colors_from_mask,
)
from .oracle import colorings
from .profiles import frugal_profile
from .reducer import reduce_to_binary
from .twosat import binary_list_color
from .working import LiftStep, ReductionTrace

log = logging.getLogger("rp3color")

# candidate_stream's bytes.translate key table; a list mask fits a byte
_MULTI_COLOR = bytes(m if m & (m - 1) else 0 for m in range(1 << MAX_K))

# (vertices, colors): a clique whose lists all lie inside the colors,
# with more vertices than colors
Refutation = Tuple[Tuple[int, ...], Tuple[int, ...]]


class SolveOptions(namedtuple("SolveOptions", "r force jobs budget")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls,
        r: int = 2,
        force: bool = False,
        # kept only while perfbench/worker.py still passes jobs=1
        jobs: int = 1,
        budget: Optional[int] = None,
    ):
        if r < 1:
            raise ValueError(f"r={r}, need at least 1")
        if jobs != 1:
            raise ValueError(
                f"jobs={jobs}, need 1: the worker-process pool was removed"
            )
        if budget is not None and budget < 1:
            raise ValueError(f"budget={budget}, need at least 1")
        return super().__new__(cls, r, force, jobs, budget)


class Verdict(namedtuple("Verdict", "status coloring witness refutation stats")):
    """Solver outcome.

    status is one of "colorable", "not-colorable", "not-rp3-free",
    "aborted".  A colorable verdict carries a coloring verified against
    the original instance; not-rp3-free carries the witness packing.  A
    not-colorable verdict decided by the root clique Hall check carries
    its verified refutation; one decided by the search or the split of a
    join kernel carries none.
    """

    __slots__ = ()

    def __new__(
        cls,
        status: str,
        coloring: Optional[Coloring] = None,
        witness: Optional[Tuple[Tuple[int, ...], ...]] = None,
        refutation: Optional[Refutation] = None,
        stats: Optional[Dict[str, int]] = None,
    ):
        stats = {} if stats is None else stats
        return super().__new__(cls, status, coloring, witness, refutation, stats)


def _color_each(neighbors, out, vertices: Iterable[int], lists) -> None:
    """Give each of ``vertices``, in order, the lowest color of lists[v]
    that no neighbor on its tuple neighbors[v] holds in ``out``; bit c of
    ``taken`` stands for color c, so an uncolored neighbor (0) blocks
    nothing.  No free color is an internal bug: RuntimeError."""
    for v in vertices:
        taken = 0
        for w in neighbors[v]:
            taken |= 1 << out[w]
        free = lists[v] & ~(taken >> 1)
        if not free:
            raise RuntimeError(f"no free color when restoring vertex {v}")
        out[v] = (free & -free).bit_length()


def _name(step: LiftStep) -> str:
    """``step 11`` for a reduction round, ``singleton removal`` otherwise."""
    return f"step {step.info['step']}" if "step" in step.info else "singleton removal"


def lift(trace: ReductionTrace, phi: Coloring) -> Coloring:
    """Pull a coloring of the trace's output back to its input.

    ``trace`` is one trace, closed by its last record; an empty trace
    lifts to ``phi`` itself.  Records are undone newest-first by one
    rule.  A record's vertices are set to 0, so that their stale colors
    block nothing, as a vertex not lifted yet does.  The free colors of
    each are those of its saved list that no neighbor holds, read on its
    neighbor tuple.  A single vertex takes its lowest free color (the
    first coloring oracle.colorings would give), several the first
    coloring of oracle.colorings over theirs; each step's lift argument
    says one exists.  They are then checked against their lists and
    neighbors, and the lifted coloring is verified in full against the
    trace's input.  A defect is an internal bug and raises RuntimeError.
    """
    if not trace:
        return phi
    if trace[-1].closing is None:
        raise ValueError("trace does not end with a closing record")
    source, keep = trace[-1].closing
    g = source.graph
    nbrs = g.neighbors
    out = [0] * g.n
    for child, v in enumerate(keep):
        out[v] = phi[child]
    for step in reversed(trace):
        saved = step.lists
        for v in saved:
            out[v] = 0  # a stale color blocks nothing
        if len(saved) == 1:
            _color_each(nbrs, out, saved, saved)
        elif saved:
            vertices = tuple(saved)
            allowed = []
            for v in vertices:
                taken = 0
                for w in nbrs[v]:
                    taken |= 1 << out[w]
                allowed.append(saved[v] & ~(taken >> 1))
            colors = next(colorings(local_adjacency(g, vertices), allowed, 0), None)
            if colors is None:
                raise RuntimeError(
                    f"no free coloring when restoring vertices {vertices}"
                )
            for v, c in zip(vertices, colors):
                out[v] = c
        for v, mask in saved.items():
            c = out[v]
            if not (c >= 1 and (mask >> (c - 1)) & 1):
                raise RuntimeError(
                    f"lift failed after {_name(step)}: vertex {v} colored {c} "
                    "outside its list"
                )
            for w in nbrs[v]:
                if out[w] == c:
                    raise RuntimeError(
                        f"lift failed after {_name(step)}: edge ({v}, {w}) is "
                        f"monochromatic in color {c}"
                    )
    lifted = tuple(out)
    defect = coloring_defect(source, lifted)
    if defect is not None:
        raise RuntimeError(f"lift failed: {defect}")
    return lifted


class _BudgetExceeded(Exception):
    pass


class _Budget:
    """Search counters with an optional hard cap on visited nodes, the
    number of vertices peeled before the search and the number of
    (co-component, color set) pairs a split decided with no empty cut
    list."""

    __slots__ = ("limit", "elements", "nodes", "leaves", "pruned", "peeled", "split")

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self.elements = 0
        self.nodes = 0
        self.leaves = 0
        self.pruned = 0
        self.peeled = 0
        self.split = 0

    def node(self):
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise _BudgetExceeded

    def as_dict(self) -> Dict[str, int]:
        return {
            "elements": self.elements,
            "nodes": self.nodes,
            "leaves": self.leaves,
            "pruned": self.pruned,
            "peeled": self.peeled,
            "split": self.split,
        }


def candidate_stream(
    inst: Instance, r: int, budget: Optional[_Budget] = None
) -> Iterator[Instance]:
    """All branch candidates: propagated refinements with no good P3.

    One depth-first walk per searched kernel over a stack of streams:
    the bottom one is frugal_profile (each propagated list tuple once,
    nothing when propagating the input empties a list), each one above
    it the pivot_refinements of a node's earliest good P3
    (_earliest_good).  Every node is a unit-propagation fixpoint with no
    empty list on the input graph, so a one-color list shares its color
    with no neighbor's list.  A node's key is its lists with every
    one-color list set to 0, as bytes; a node whose key was met before
    in this walk is pruned but counts toward the budget.  It differs
    from the earlier node only in one-color lists, which the pivot
    choice ignores and the refinements pass through, so its subtree
    repeats earlier keys in order, and no prune hides a feasible leaf.
    Each leaf is a spanning refinement of the input that may keep
    one-color lists; the input is feasible exactly when some leaf is,
    and a leaf coloring is an input coloring.  ``budget`` collects the
    search counters and enforces its node cap; with INFO logging on,
    they are logged as each element starts.
    """
    if budget is None:
        budget = _Budget()
    info = log.isEnabledFor(logging.INFO)
    p3s = tuple(induced_p3_stream(inst.graph))
    seen: Set[bytes] = set()
    stack = [frugal_profile(inst, r)]
    while stack:
        cur = next(stack[-1], None)
        if cur is None:
            stack.pop()
            continue
        if len(stack) == 1:
            budget.elements += 1
            if info:
                log.info(
                    "element %d (nodes=%d leaves=%d pruned=%d)",
                    budget.elements,
                    budget.nodes,
                    budget.leaves,
                    budget.pruned,
                )
        budget.node()
        key = bytes(cur.lists).translate(_MULTI_COLOR)
        if key in seen:
            budget.pruned += 1
            continue
        seen.add(key)
        pivot = _earliest_good(cur, p3s)
        if pivot is not None:
            stack.append(pivot_refinements(cur, pivot))
            continue
        yield cur


def _first_coloring(
    candidates: Iterator[Instance], budget: _Budget
) -> Optional[Coloring]:
    """Reduce and 2-SAT each leaf until one is colorable.

    The leaf's one trace (singleton removal, then reduction rounds)
    lifts the 2-SAT coloring to the leaf, which has the graph and vertex
    set of the original instance.
    """
    for leaf in candidates:
        budget.leaves += 1
        reduced, trace = reduce_to_binary(leaf)
        phi = binary_list_color(reduced)
        if phi is not None:
            return lift(trace, phi)
    return None


def peel_order(inst: Instance) -> List[int]:
    """The vertices removed by peeling the input to its list-degenerate
    kernel, in removal order; the vertices not listed are the kernel.

    A vertex is removed while it has fewer list-graph neighbors (graph
    neighbors whose lists meet its own) left than colors in its list.
    Colored after the kernel and after every vertex removed later, it
    then sees fewer colored list-graph neighbors than it has colors, so
    a free color is left for it (degree choosability, Erdős–Rubin–
    Taylor).  A vertex with an empty list is never removed.  Each vertex
    enters the stack once, when its count first drops below its list
    size, and no count is read after that.  So a vertex with fewer graph
    neighbors than colors (its neighbor tuple is shorter than its list)
    goes on the stack at once, uncounted; the others count their
    list-graph neighbors on their neighbor tuples, and those that cannot
    go on the stack yet are flagged as ``waiting``.  A removal walks the
    neighbor tuple and updates only the vertices still waiting, and once
    none waits, the rest of the stack, last first, ends the order.
    """
    lists = inst.lists
    nbrs = inst.graph.neighbors
    size = list(map(int.bit_count, lists))
    deg = [0] * len(lists)
    stack = []
    waiting = bytearray(len(lists))
    left = 0
    for v, vs in enumerate(nbrs):
        if len(vs) >= size[v]:
            mask = lists[v]
            d = 0
            for w in vs:
                if lists[w] & mask:
                    d += 1
            if d >= size[v]:
                deg[v] = d
                waiting[v] = 1
                left += 1
                continue
        stack.append(v)
    order = []
    while left and stack:
        v = stack.pop()
        order.append(v)
        mask = lists[v]
        for w in nbrs[v]:
            if waiting[w] and lists[w] & mask:
                deg[w] -= 1
                if deg[w] < size[w]:
                    stack.append(w)
                    waiting[w] = 0
                    left -= 1
    order += reversed(stack)
    return order


def clique_hall_refutation(inst: Instance) -> Optional[Refutation]:
    """A clique Q and a color set C with every list of Q inside C and
    more vertices than colors, read off the input lists; or None.

    Such a pair proves the instance uncolorable: Q needs |Q| distinct
    colors, all from C (Hall's condition).  The check is sound and
    incomplete.  A member v of a violating Q has |L(v)| <= |C| < |Q| <=
    deg(v) + 1, so only vertices with |L(v)| <= deg(v) take part, deg(v)
    being the length of v's neighbor tuple.  From each of them it grows
    one greedy maximal clique among them, lowest vertex first.  A clique
    whose members take distinct colors greedily is skipped; otherwise
    the members with |L(v)| >= |Q| are dropped until none is left.  A
    clique of more than k vertices fails as a whole; a smaller one is
    tested subset by subset, in bitmask order.
    """
    adj = inst.graph.adj_mask
    nbrs = inst.graph.neighbors
    lists = inst.lists
    small = 0
    for v, mask in enumerate(lists):
        if mask.bit_count() <= len(nbrs[v]):
            small |= 1 << v
    tried: Set[int] = set()
    rest = small
    while rest:
        low = rest & -rest
        rest ^= low
        clique = low
        common = adj[low.bit_length() - 1] & small
        while common:
            low = common & -common
            clique |= low
            common &= adj[low.bit_length() - 1]
        if clique in tried:
            continue
        tried.add(clique)
        # distinct colors picked greedily, one per member, rule out a
        # violation; most cliques of colorable inputs stop here
        used = 0
        walk = clique
        while walk:
            low = walk & -walk
            free = lists[low.bit_length() - 1] & ~used
            if not free:
                break
            used |= free & -free
            walk ^= low
        else:
            continue
        members = []
        while clique:
            low = clique & -clique
            members.append(low.bit_length() - 1)
            clique ^= low
        q = len(members)
        while True:
            members = [v for v in members if lists[v].bit_count() < q]
            if len(members) == q:
                break
            q = len(members)
        if q > inst.k:
            union = 0
            for v in members:
                union |= lists[v]
            return tuple(members), colors_from_mask(union)
        unions = [0] * (1 << q)
        for subset in range(1, 1 << q):
            low = subset & -subset
            union = unions[subset ^ low] | lists[members[low.bit_length() - 1]]
            if union.bit_count() < subset.bit_count():
                vertices = tuple(v for i, v in enumerate(members) if subset >> i & 1)
                return vertices, colors_from_mask(union)
            unions[subset] = union
    return None


def refutation_defect(inst: Instance, refutation: Refutation) -> Optional[str]:
    """Why ``refutation`` fails to prove ``inst`` uncolorable, or None.

    Checks, on the instance's own edges and lists, that the vertices
    are distinct and pairwise adjacent, that the colors lie in 1..k and
    hold every vertex's list, and that the vertices outnumber the
    colors.
    """
    vertices, colors = refutation
    g = inst.graph
    if len(set(vertices)) != len(vertices):
        return f"vertices {vertices} repeat a vertex"
    if len(vertices) <= len(colors):
        return f"{len(vertices)} vertices for {len(colors)} colors"
    allowed = 0
    for c in colors:
        if not 1 <= c <= inst.k:
            return f"color {c} outside 1..{inst.k}"
        allowed |= 1 << (c - 1)
    for i, u in enumerate(vertices):
        if not 0 <= u < g.n:
            return f"vertex {u} outside 0..{g.n - 1}"
        if inst.lists[u] & ~allowed:
            return f"list of vertex {u} is not inside colors {colors}"
        for v in vertices[:i]:
            if not g.has_edge(u, v):
                return f"vertices {v} and {u} are not adjacent"
    return None


def _certify(inst: Instance, phi: Coloring, stats: Dict[str, int]) -> Verdict:
    defect = coloring_defect(inst, phi)
    if defect is not None:
        raise RuntimeError(f"certificate failed verification: {defect}")
    return Verdict("colorable", coloring=tuple(phi), stats=stats)


def _decide(
    inst: Instance, r: int, budget: _Budget, depth: int = 0
) -> Optional[Coloring]:
    """A coloring of ``inst``, which passed the clique Hall check, or
    None when it has none.

    The input is peeled (peel_order) to its kernel, an induced subgraph
    and so still rP3-free.  A kernel with two or more co-components is
    split (_split); any other nonempty kernel is searched through its
    candidate stream, identity element first.  The kernel's coloring is
    extended to the peeled vertices in reverse peel order; a vertex then
    walks all its neighbors, and those peeled before it hold no color
    yet.  When every vertex peeled, no kernel is built.  ``depth``
    counts the splits above this call; the root call (depth 0) records
    and logs the number of vertices peeled.
    """
    g = inst.graph
    order = peel_order(inst)
    if not depth:
        budget.peeled = len(order)
        log.info("peeled %d of %d vertices", len(order), g.n)
    keep: Sequence[int] = ()
    phi: Optional[Coloring] = ()
    if len(order) < g.n:
        keep = range(g.n)
        kernel = inst
        if order:
            peeled = set(order)
            keep = [v for v in keep if v not in peeled]
            graph, _ = induced_subgraph(g, keep)
            kernel = Instance(graph, inst.k, tuple(inst.lists[v] for v in keep))
        parts = co_components(kernel.graph)
        if len(parts) > 1:
            phi = _split(kernel, parts, r, budget, depth)
        else:
            phi = _first_coloring(candidate_stream(kernel, r, budget), budget)
    if phi is None or not order:
        return phi
    out = [0] * g.n
    for v, c in zip(keep, phi):
        out[v] = c
    _color_each(g.neighbors, out, reversed(order), inst.lists)
    return tuple(out)


def _split(
    kernel: Instance, parts: List[int], r: int, budget: _Budget, depth: int
) -> Optional[Coloring]:
    """Color a kernel whose complement has the components ``parts``
    (vertex bitmasks), or return None when it has no coloring.

    Every vertex of one part is adjacent to every vertex of another, so
    the parts take pairwise disjoint color sets: the kernel is colorable
    exactly when some disjoint sets S_i let each part be colored from
    its lists cut to S_i.  Deciding one part on one set is memoized on
    (part, S).  A part with no internal edge is colorable from S exactly
    when every cut list is nonempty, and takes the lowest color of each.
    Any other part is a sub-solve: its induced instance (still rP3-free,
    built when first needed) with its lists cut to S goes through the
    clique Hall check and then _decide one level deeper.

    Parts go by size, ties by lowest vertex, so the largest comes last.
    A depth-first choice of pairwise disjoint sets stops at the first
    one under which the last part, given every color the others leave,
    is colorable.  An earlier part, given the colors ``used`` before it,
    tries the subsets of its list union in (size, mask) order, skipping
    those that meet ``used``, leave fewer colors than there are parts
    after it, or hold a set it already found feasible; so it takes
    exactly its minimal feasible sets disjoint from ``used``, and
    recurses on each as soon as it is found.  Each sub-solve's colors
    are a proper subset of the kernel's, so splits nest at most k deep.
    """
    g = kernel.graph
    lists = kernel.lists
    colors = 0
    for mask in lists:
        colors |= mask
    parts = sorted(parts, key=lambda q: (q.bit_count(), q & -q))
    log.info(
        "split kernel of %d vertices into %d co-components",
        g.n,
        len(parts),
    )
    members = [tuple(bits(q)) for q in parts]
    edgeless = [
        not any(g.adj_mask[v] & q for v in vs) for q, vs in zip(parts, members)
    ]
    graphs: Dict[int, Graph] = {}
    memo: Dict[Tuple[int, int], Optional[Coloring]] = {}

    def sub(i: int, mask: int) -> Optional[Coloring]:
        if (i, mask) not in memo:
            cut = tuple(lists[v] & mask for v in members[i])
            phi = None
            if all(cut):
                budget.split += 1
                if edgeless[i]:
                    phi = tuple((m & -m).bit_length() for m in cut)
                else:
                    if i not in graphs:
                        graphs[i] = induced_subgraph(g, members[i])[0]
                    part = Instance(graphs[i], kernel.k, cut)
                    if clique_hall_refutation(part) is None:
                        phi = _decide(part, r, budget, depth + 1)
            memo[i, mask] = phi
        return memo[i, mask]

    by_size = sorted(
        (s for s in range(1, colors + 1) if not s & ~colors),
        key=lambda s: (s.bit_count(), s),
    )
    last = len(parts) - 1
    candidates = []
    for vs in members[:last]:
        union = 0
        for v in vs:
            union |= lists[v]
        candidates.append([s for s in by_size if not s & ~union])

    def pick(i: int, used: int) -> Optional[List[Coloring]]:
        if i == last:
            phi = sub(i, colors & ~used)
            return None if phi is None else [phi]
        room = (colors & ~used).bit_count() - (last - i)
        found: List[int] = []
        for s in candidates[i]:
            if s.bit_count() > room:
                break
            if s & used or any(not f & ~s for f in found):
                continue
            phi = sub(i, s)
            if phi is not None:
                found.append(s)
                rest = pick(i + 1, used | s)
                if rest is not None:
                    return [phi] + rest
        return None

    chosen = pick(0, 0)
    if chosen is None:
        return None
    out = [0] * g.n
    for vs, phi in zip(members, chosen):
        for v, c in zip(vs, phi):
            out[v] = c
    return tuple(out)


def solve(inst: Instance, opts: Optional[SolveOptions] = None) -> Verdict:
    """Decide list-5-colorability and certify the answer.

    Unless opts.force is set, the input graph is first checked for a
    packing of opts.r anticomplete induced three-vertex paths; finding
    one returns not-rp3-free with the packing as witness.  The search
    then runs the clique Hall check on the input lists; a refutation is
    verified by refutation_defect and returned on a not-colorable
    verdict with zero search counters.  Otherwise _decide peels the
    input, splits a kernel with two or more co-components and searches
    the rest.  A colorable verdict always carries a verified coloring of
    the original instance.  The search reports not-colorable only after
    every stream was exhausted; exceeding opts.budget visited nodes,
    counted over all sub-solves, aborts instead.  stats holds the search
    counters, "peeled", the number of vertices peeled at the root, and
    "split", the number of (co-component, color set) pairs decided with
    no empty cut list, inline or by a sub-solve.
    """
    if opts is None:
        opts = SolveOptions()
    if inst.k != 5:
        raise InstanceError(f"k={inst.k}, need 5")
    if not opts.force:
        packing = anticomplete_packing(inst.graph, opts.r, 3)
        if packing is not None:
            log.info("packing found: %s", packing)
            return Verdict("not-rp3-free", witness=packing, stats={})

    budget = _Budget(opts.budget)
    refutation = clique_hall_refutation(inst)
    if refutation is not None:
        defect = refutation_defect(inst, refutation)
        if defect is not None:
            raise RuntimeError(f"refutation failed verification: {defect}")
        log.info("clique Hall refutation: vertices %s, colors %s", *refutation)
        return Verdict(
            "not-colorable", refutation=refutation, stats=budget.as_dict()
        )

    try:
        phi = _decide(inst, opts.r, budget)
    except _BudgetExceeded:
        log.info("budget of %d nodes exceeded", opts.budget)
        return Verdict("aborted", stats=budget.as_dict())
    if phi is None:
        return Verdict("not-colorable", stats=budget.as_dict())
    return _certify(inst, phi, budget.as_dict())
