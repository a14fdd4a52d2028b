"""Reference checks on the hardness gadgets that only the tests use.

nae_brute decides a not-all-equal formula by trying every assignment,
and check_construction validates one gadget against it and the
exhaustive coloring oracle.  Both are exponential: desk scale only.
"""

from typing import Dict, Optional, Tuple

from rp3color.graphs import anticomplete_packing
from rp3color.hardness import NaeInstance, build_hardness_graph
from rp3color.oracle import solve_exact


def nae_brute(nae: NaeInstance) -> Optional[Tuple[bool, ...]]:
    """First satisfying assignment in binary-counting order, or None.

    Bit i of the counter is variable i+1, so the all-false assignment
    comes first.  A clause is satisfied when its literals are not all
    equal.  Exhaustive, for small n only.
    """
    for word in range(1 << nae.n):
        ok = True
        for i1, i2, i3 in nae.clauses:
            v1 = (word >> (i1 - 1)) & 1
            v2 = (word >> (i2 - 1)) & 1
            v3 = (word >> (i3 - 1)) & 1
            if v1 == v2 == v3:
                ok = False
                break
        if ok:
            return tuple(bool((word >> i) & 1) for i in range(nae.n))
    return None


def check_construction(nae: NaeInstance) -> Dict[str, bool]:
    """Desk-scale validation of one gadget.

    Reports whether the generated graph contains no two anticomplete
    induced four-vertex paths and whether exhaustive 5-colorability
    agrees with exhaustive not-all-equal satisfiability.  Oracle-driven,
    so keep n and m small.
    """
    inst = build_hardness_graph(nae)
    packing = anticomplete_packing(inst.graph, 2, 4)
    colorable = solve_exact(inst) is not None
    satisfiable = nae_brute(nae) is not None
    return {
        "p4_pair_free": packing is None,
        "colorable": colorable,
        "satisfiable": satisfiable,
        "equivalent": colorable == satisfiable,
    }
