"""Reference answers computed apart from the solver under test.

Nothing here imports rp3color.  An instance is a ``Ref`` tuple
(n, edges, lists) with 0-based vertices, edges as (u, v) pairs with
u < v, and each list a frozenset of colors from 1..5.  The module holds
the instance text writer and reader, the certificate checker, an exact
list-coloring solver, and the brute-force 2P3-freeness test.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

K = 5


class Ref(NamedTuple):
    n: int
    edges: Tuple[Tuple[int, int], ...]
    lists: Tuple[FrozenSet[int], ...]


def make(n: int, edges, lists) -> Ref:
    norm = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return Ref(n, tuple(norm), tuple(frozenset(l) for l in lists))


def write_text(inst: Ref) -> str:
    """The ``p glist`` instance format, every list written out."""
    out = [f"p glist {inst.n} {len(inst.edges)} {K}"]
    out += [f"e {u + 1} {v + 1}" for u, v in inst.edges]
    for v, lst in enumerate(inst.lists):
        out.append(" ".join(["l", str(v + 1)] + [str(c) for c in sorted(lst)]))
    return "\n".join(out) + "\n"


def read_text(text: str) -> Ref:
    """Read what write_text writes; a vertex with no list line gets 1..5."""
    n = m = None
    edges: List[Tuple[int, int]] = []
    lists = {}
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "p":
            n, m = int(fields[2]), int(fields[3])
            if int(fields[4]) != K:
                raise ValueError(f"k={fields[4]}, need {K}")
        elif fields[0] == "e":
            edges.append((int(fields[1]) - 1, int(fields[2]) - 1))
        elif fields[0] == "l":
            lists[int(fields[1]) - 1] = frozenset(int(c) for c in fields[2:])
        else:
            raise ValueError(f"unknown line {line!r}")
    if n is None or len(edges) != m:
        raise ValueError("missing header or wrong edge count")
    full = frozenset(range(1, K + 1))
    return make(n, edges, [lists.get(v, full) for v in range(n)])


def certificate_defect(inst: Ref, phi: Sequence[int]) -> Optional[str]:
    """First reason ``phi`` is not a list coloring of ``inst``, or None."""
    if len(phi) != inst.n:
        return f"coloring has {len(phi)} entries for {inst.n} vertices"
    for v, c in enumerate(phi):
        if c not in inst.lists[v]:
            return f"vertex {v + 1} colored {c}, not in its list"
    for u, v in inst.edges:
        if phi[u] == phi[v]:
            return f"edge {u + 1}-{v + 1} is monochromatic in color {phi[u]}"
    return None


def outcome_defect(
    inst: Ref, expected: str, status: str, phi: Optional[Sequence[int]]
) -> Optional[str]:
    """Why a solver outcome is wrong, or None when it is right.

    ``expected`` and ``status`` are "colorable" or "not-colorable" (the
    solver may also say "aborted" or "not-rp3-free", which are always
    wrong here).  A colorable outcome must carry a valid coloring.
    """
    if status != expected:
        return f"verdict {status}, expected {expected}"
    if status == "colorable":
        if phi is None:
            return "colorable verdict without a coloring"
        return certificate_defect(inst, phi)
    return None


def list_colorings(inst: Ref) -> Iterator[Tuple[int, ...]]:
    """Every list coloring of ``inst``, each exactly once.

    Backtracking with forward checking: each assignment removes its
    color from the uncolored neighbours' domains and backs up as soon as
    one empties.  The next vertex is the uncolored one with the smallest
    domain, ties broken by most uncolored neighbours, then lowest id
    (after Brelaz 1979).  Iterative, so deep instances do not recurse.
    """
    n = inst.n
    adj = _adjacency(inst)
    domain = [set(l) for l in inst.lists]
    if any(not d for d in domain):
        return
    color = [0] * n

    def pick() -> int:
        best, key = -1, None
        for v in range(n):
            if color[v]:
                continue
            k = (len(domain[v]), -sum(1 for w in adj[v] if not color[w]), v)
            if key is None or k < key:
                best, key = v, k
        return best

    v = pick()
    if v < 0:
        yield ()
        return
    # each frame: vertex, colors still to try, vertices the try pruned
    stack: List[Tuple[int, List[int], List[int]]] = [(v, sorted(domain[v]), [])]
    while stack:
        v, todo, removed = stack[-1]
        for w in removed:
            domain[w].add(color[v])
        removed.clear()
        color[v] = 0
        if not todo:
            stack.pop()
            continue
        c = todo.pop(0)
        color[v] = c
        wiped = False
        for w in adj[v]:
            if not color[w] and c in domain[w]:
                domain[w].discard(c)
                removed.append(w)
                wiped = wiped or not domain[w]
        if wiped:
            continue
        nxt = pick()
        if nxt < 0:
            yield tuple(color)
        else:
            stack.append((nxt, sorted(domain[nxt]), []))


def exact_coloring(inst: Ref) -> Optional[Tuple[int, ...]]:
    """A list coloring of ``inst``, or None when it has none."""
    return next(list_colorings(inst), None)


def is_frugal(inst: Ref, phi: Sequence[int]) -> bool:
    """No vertex has two neighbours sharing a color from its own list."""
    adj = _adjacency(inst)
    for v in range(inst.n):
        seen = set()
        for w in adj[v]:
            if phi[w] in inst.lists[v] and phi[w] in seen:
                return False
            seen.add(phi[w])
    return True


def _adjacency(inst: Ref) -> List[set]:
    adj: List[set] = [set() for _ in range(inst.n)]
    for u, v in inst.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def induced_p3s(inst: Ref) -> List[Tuple[int, int, int]]:
    """Every induced path a-m-b (a < b, a and b not adjacent)."""
    adj = _adjacency(inst)
    return [
        (a, m, b)
        for m in range(inst.n)
        for a, b in combinations(sorted(adj[m]), 2)
        if b not in adj[a]
    ]


def has_2p3(inst: Ref) -> bool:
    """Whether two induced P3s are vertex-disjoint with no edge between."""
    adj = _adjacency(inst)
    paths = induced_p3s(inst)
    closed = [set(p).union(*(adj[x] for x in p)) for p in paths]
    for i, j in combinations(range(len(paths)), 2):
        if not closed[i] & set(paths[j]):
            return True
    return False
