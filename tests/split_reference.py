"""The eager co-component split that the solver's on-demand split is
checked against.

eager_split has the signature of pipeline._split.  Every part before
the last enumerates its minimal feasible sets in full, subsets of its
list union in (size, mask) order and up to the widest size that leaves
one color for each other part, before any set is chosen; every (part,
set) pair with no empty cut list is decided by a sub-solve, edgeless
parts included.  A depth-first choice over those lists then takes the
first pairwise disjoint sets under which the last part is colorable.
Installed over pipeline._split, it is used at every split level, since
pipeline._decide looks the split up when it runs.
"""

from typing import Dict, List, Optional, Tuple

from rp3color import pipeline
from rp3color.graphs import bits, induced_subgraph
from rp3color.instances import Coloring, Instance


def eager_split(kernel, parts, r, budget, depth) -> Optional[Coloring]:
    lists = kernel.lists
    colors = 0
    for mask in lists:
        colors |= mask
    parts = sorted(parts, key=lambda q: (q.bit_count(), q & -q))
    members = [tuple(bits(q)) for q in parts]
    graphs = [induced_subgraph(kernel.graph, vs)[0] for vs in members]
    memo: Dict[Tuple[int, int], Optional[Coloring]] = {}

    def sub(i: int, mask: int) -> Optional[Coloring]:
        if (i, mask) not in memo:
            cut = tuple(lists[v] & mask for v in members[i])
            phi = None
            if all(cut):
                budget.split += 1
                part = Instance(graphs[i], kernel.k, cut)
                if pipeline.clique_hall_refutation(part) is None:
                    phi = pipeline._decide(part, r, budget, depth + 1)
            memo[i, mask] = phi
        return memo[i, mask]

    def minimal(i: int) -> List[int]:
        union = 0
        for v in members[i]:
            union |= lists[v]
        widest = colors.bit_count() - (len(parts) - 1)
        subsets = [s for s in range(1, union + 1) if not s & ~union]
        found: List[int] = []
        for s in sorted(subsets, key=lambda s: (s.bit_count(), s)):
            if s.bit_count() > widest:
                break
            if not any(f & ~s == 0 for f in found) and sub(i, s) is not None:
                found.append(s)
        return found

    last = len(parts) - 1
    feasible: Dict[int, List[int]] = {}

    def pick(i: int, used: int) -> Optional[List[Coloring]]:
        if i == last:
            phi = sub(i, colors & ~used)
            return None if phi is None else [phi]
        if i not in feasible:
            feasible[i] = minimal(i)
        for s in feasible[i]:
            left = colors & ~(used | s)
            if s & used or left.bit_count() < last - i:
                continue
            rest = pick(i + 1, used | s)
            if rest is not None:
                return [memo[i, s]] + rest
        return None

    chosen = pick(0, 0)
    if chosen is None:
        return None
    out = [0] * kernel.graph.n
    for vs, phi in zip(members, chosen):
        for v, c in zip(vs, phi):
            out[v] = c
    return tuple(out)
