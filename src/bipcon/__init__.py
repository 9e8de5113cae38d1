"""Connectivity of bipartite graphs and their bipartite complements.

Exact vertex/edge connectivity with certificates, Bi-Cayley and extremal
witness constructions, closed-form bounds on connectivity sums and products
over a graph/complement pair, and an exhaustive desk-scale verifier for all
of it.
"""

from .bigraph import (
    BipartiteGraph,
    DegreeSummary,
    add_left_vertex,
    add_right_vertex,
    bipartite_complement,
    degrees,
    format_edge_list,
    graph_from_json,
    graph_to_json,
    new_graph,
    parse_edge_list,
)
from .bounds import (
    BoundSet,
    M_upper,
    N_upper,
    ParameterTriple,
    delta_bounds,
    sum_lower_sized,
)
from .connectivity import (
    ConnectivityResult,
    brute_force_edge_connectivity,
    brute_force_vertex_connectivity,
    edge_connectivity,
    is_connected,
    vertex_connectivity,
)
from .constructions import (
    BoundGoal,
    CayleySubset,
    WitnessFamilyId,
    bi_cayley,
    build_witness,
    claimed_edge_connectivity_pair,
    dispatch_witness,
    witness_notes,
)
from .errors import (
    BadSubset,
    BipconError,
    DuplicateEdge,
    EmptyGraph,
    EmptyPart,
    IndexOutOfRange,
    InvalidTriple,
    NoWitness,
    PreconditionViolated,
    TooLarge,
    TooSmall,
    UnknownTheorem,
)
from .verifier import (
    AttainmentRecord,
    ExtremalResult,
    TheoremReport,
    THEOREM_IDS,
    Violation,
    check_theorem,
    check_theorems,
    extremal_scan,
    metric_value,
    shape_sweep,
    shapes_within,
)

__version__ = "0.1.0"
