"""Grundy domination toolkit: exact sequence solvers, graph products, bounds."""

from .errors import CapacityError, InvariantError, ParameterError, ParseError
from .graphs import (
    Graph,
    canonical_code,
    caterpillar,
    complete,
    cycle,
    enumerate_connected_graphs,
    make_graph,
    path,
    star,
)
from .products import ProductDescriptor, product
from .sequences import SequenceReport, check_sequence
from .solver import SolveResult, grundy, grundy_bruteforce, lex_grundy
from .theory import (
    BoundaryBound,
    BoundsReport,
    IsoReport,
    ScanRecord,
    ScanReport,
    boundary_sufficient_bound,
    conjecture_scan,
    construct_complete_grid_witness,
    construct_odd_torus_witness,
    construct_product_witness,
    edge_clique_cover_number,
    formula_value,
    isoperimetric_check,
    product_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryBound",
    "BoundsReport",
    "CapacityError",
    "Graph",
    "InvariantError",
    "IsoReport",
    "ParameterError",
    "ParseError",
    "ProductDescriptor",
    "ScanRecord",
    "ScanReport",
    "SequenceReport",
    "SolveResult",
    "boundary_sufficient_bound",
    "canonical_code",
    "caterpillar",
    "check_sequence",
    "complete",
    "conjecture_scan",
    "construct_complete_grid_witness",
    "construct_odd_torus_witness",
    "construct_product_witness",
    "cycle",
    "edge_clique_cover_number",
    "enumerate_connected_graphs",
    "formula_value",
    "grundy",
    "grundy_bruteforce",
    "isoperimetric_check",
    "lex_grundy",
    "make_graph",
    "path",
    "product",
    "product_bounds",
    "star",
]
