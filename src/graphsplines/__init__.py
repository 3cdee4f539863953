"""Exact computation for generalized splines on edge-labeled graphs.

Vertex vectors whose differences across edges are divisible by the edge
labels form a module over the label ring; this package computes that
module's invariants, constructs distinguished splines, and decides the
determinant-based basis criterion, all in exact arithmetic over the
integers or over integer polynomials.
"""

from .rings import (
    DOMAINS,
    ExactDivisionError,
    IntPoly,
    RingParseError,
    ZZ,
    ZZX,
)
from .graphs import (
    DEFAULT_TRAIL_LIMIT,
    Edge,
    GraphDocumentError,
    LabeledGraph,
    Trail,
    TrailLimitError,
    completion,
    load_graph,
    zero_trails,
)
from .splines import (
    DisconnectedGraphError,
    Selection,
    SplineConstructionError,
    determinant_target,
    first_violation,
    induced_spline,
    is_spline,
    leading_value,
    leading_values,
    minimal_selection,
    minimal_selections,
    selection_from_labels,
    selection_spline,
    single_vertex_spline,
    top_spline,
)
from .basis import (
    BasisVerdict,
    InternalConsistencyError,
    check_basis,
    determinant,
    flowup_basis,
    span_coordinates,
    spline_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BasisVerdict",
    "DEFAULT_TRAIL_LIMIT",
    "DOMAINS",
    "DisconnectedGraphError",
    "Edge",
    "ExactDivisionError",
    "GraphDocumentError",
    "IntPoly",
    "InternalConsistencyError",
    "LabeledGraph",
    "RingParseError",
    "Selection",
    "SplineConstructionError",
    "Trail",
    "TrailLimitError",
    "ZZ",
    "ZZX",
    "check_basis",
    "completion",
    "determinant",
    "determinant_target",
    "first_violation",
    "flowup_basis",
    "induced_spline",
    "is_spline",
    "leading_value",
    "leading_values",
    "load_graph",
    "minimal_selection",
    "minimal_selections",
    "selection_from_labels",
    "selection_spline",
    "single_vertex_spline",
    "span_coordinates",
    "spline_matrix",
    "top_spline",
    "zero_trails",
]
