"""List-5-coloring of graphs without large anticomplete path packings.

The public surface: graph and instance models with file formats, an
exhaustive oracle, the frugality profile and good-P3 elimination
streams, the 11-step reduction with certificate lifting, the 2-SAT
finish, the solver pipeline, and the hardness gadget generator.
"""

from .graphs import (
    Graph,
    GraphError,
    anticomplete_packing,
    dist_neighborhood,
    induced_p3_stream,
    induced_subgraph,
    is_clique,
    is_stable_set,
)
from .instances import (
    Coloring,
    Instance,
    InstanceError,
    ParseError,
    coloring_defect,
    colors_from_mask,
    full_mask,
    list_graph,
    mask_from_colors,
    p_value,
    parse_instance,
    serialize_instance,
    verify_coloring,
)
from .oracle import frugal_colorings, solve_exact, solve_exact_frugal
from .profiles import (
    LiftStep,
    ReductionTrace,
    cover_cap,
    eliminate_singletons,
    frugal_profile,
)
from .goodp3 import (
    good_triples,
    pivot_refinements,
)
from .reducer import reduce_once, reduce_to_binary
from .twosat import CnfFormula, binary_list_color, solve_2sat, to_2sat
from .pipeline import SolveOptions, Verdict, candidate_stream, lift, solve
from .hardness import (
    NaeInstance,
    build_hardness_graph,
    check_construction,
    nae_brute,
    parse_nae,
    serialize_nae,
)

__version__ = "0.1.0"
