"""
Exact computations in the Brauer monoid and the twisted Brauer monoid.

The core value types are :class:`BrauerDiagram` (a perfect matching on
n top and n bottom points) and :class:`TwistedElement` (a diagram tagged
with a natural-number twist counting accumulated floating components).
On top of them sit Green's relations and pre-orders with constructive
witnesses, the ideal lattice with its counting formulas and minimal
generating sets, enumeration and closure oracles, and Graham-Houghton
graph analysis of the regular D-classes.
"""

from .diagram import (
    BrauerDiagram,
    DiagramError,
    PreconditionError,
    diagram_from_json,
    diagram_from_json_obj,
    identity,
    make_diagram,
    multiply,
    parse_diagram,
    permutation_diagram,
    transposition,
)
from .twisted import (
    TwistedElement,
    as_twisted,
    is_idempotent_plain,
    is_idempotent_twisted,
    star,
    star_chain,
)
from .green import (
    ClassDescription,
    canonical_idempotent,
    factor_left,
    factor_right,
    factor_two_sided,
    green_class,
    is_regular,
    leq_J,
    leq_L,
    leq_R,
    same_class,
    twisted_leq,
)
from .ideals import (
    IdealRank,
    IdealSpec,
    delta,
    ideal_contains,
    ideal_equal,
    ideal_normalize,
    ideal_subset,
    idempotent_factor_sigma,
    index_set,
    lemma_rank_drop,
    lemma_twist_keep,
    lemma_twist_raise,
    parse_ideal,
    rank_of_ideal,
    rho,
)
from .enumeration import (
    ClosureResult,
    DivisibilityOracle,
    all_diagrams,
    bounded_closure,
    d_class,
    idempotents,
    plain_closure,
    random_diagram,
)
from .structure import (
    GeneratingSet,
    GHGraph,
    GHReport,
    build_gh_graph,
    factor_into_idempotents,
    generating_set,
    idempotent_generating_set,
    ig_subsemigroup_rank,
    in_idempotent_generated,
    perfect_matching,
    rank_idrank_report,
    singular_generating_set,
    singular_rank,
    strong_hall_check,
    strong_hall_subset_oracle,
    verify_rank_idrank,
)

__version__ = "0.1.0"
