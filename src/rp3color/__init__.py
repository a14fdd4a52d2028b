"""List-5-coloring of graphs without large anticomplete path packings.

The public surface: graph and instance models with file formats, an
exhaustive oracle, the frugality profile and good-P3 elimination
streams, the 11-step reduction with certificate lifting, the 2-SAT
finish, the solver pipeline, and the hardness gadget generator, which
loads on first use because no solve needs it.
"""

from .graphs import (
    Graph,
    GraphError,
    anticomplete_packing,
    induced_p3_stream,
    induced_subgraph,
)
from .instances import (
    Coloring,
    Instance,
    InstanceError,
    ParseError,
    coloring_defect,
    colors_from_mask,
    full_mask,
    mask_from_colors,
    parse_instance,
    serialize_instance,
)
from .oracle import frugal_colorings, solve_exact, solve_exact_frugal
from .profiles import cover_cap, frugal_profile
from .working import LiftStep, ReductionTrace
from .goodp3 import pivot_refinements
from .reducer import reduce_once, reduce_to_binary
from .twosat import CnfFormula, binary_list_color, solve_2sat, to_2sat
from .pipeline import SolveOptions, Verdict, candidate_stream, lift, solve

__version__ = "0.1.0"

_HARDNESS = {"NaeInstance", "build_hardness_graph", "parse_nae", "serialize_nae"}


def __getattr__(name):
    """The hardness generator's public names, imported on first use."""
    if name in _HARDNESS:
        from . import hardness

        return getattr(hardness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
