"""Exact general position invariants of finite connected graphs.

Four maximization problems over vertex subsets, differing in which
pairs of vertices a set must leave unobstructed: the classic one
(pairs inside the set), the total one (all pairs), the outer one
(pairs meeting the set), and the dual one (pairs inside plus pairs
outside).  Solvers return certified witnesses; an exhaustive oracle,
family generators, the strong resolving graph, and a suite of
machine-checkable laws round out the package.
"""

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptySetError,
    GenerationError,
    GenposError,
    LoopError,
    NotAnEdgeError,
    SizeError,
    SpecError,
)
from .families import (
    FAMILIES,
    PRODUCT_KINDS,
    FamilySpec,
    generate,
    join,
    product,
    random_connected,
    random_tree,
)
from .graphs import (
    Graph,
    VertexSet,
    is_connected,
    maximum_clique,
)
from .laws import (
    LawReport,
    check_dual_not_hereditary,
    check_families,
    check_products,
    check_structural,
    check_sufficient,
    run_suite,
)
from .metric import (
    DistMatrix,
    all_pairs_distances,
    girth,
    interval_masks,
    is_convex,
    is_p4_inner_isometric,
    simplicial_set,
)
from .position import (
    VARIANTS,
    Certificate,
    brute_force,
    is_variant_set,
    solve,
    variant_feasibility,
)
from .srg import strong_resolving_graph

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "DisconnectedError",
    "DistMatrix",
    "DuplicateEdgeError",
    "EmptySetError",
    "FAMILIES",
    "FamilySpec",
    "GenerationError",
    "GenposError",
    "Graph",
    "LawReport",
    "LoopError",
    "NotAnEdgeError",
    "PRODUCT_KINDS",
    "SizeError",
    "SpecError",
    "VARIANTS",
    "VertexSet",
    "all_pairs_distances",
    "brute_force",
    "check_dual_not_hereditary",
    "check_families",
    "check_products",
    "check_structural",
    "check_sufficient",
    "generate",
    "girth",
    "interval_masks",
    "is_connected",
    "is_convex",
    "is_p4_inner_isometric",
    "is_variant_set",
    "join",
    "maximum_clique",
    "product",
    "random_connected",
    "random_tree",
    "run_suite",
    "simplicial_set",
    "solve",
    "strong_resolving_graph",
    "variant_feasibility",
]
