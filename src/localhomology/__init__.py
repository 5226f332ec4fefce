"""Local homology of abstract simplicial complexes.

The package computes Alexandrov-topology set operators (star, closure,
link, frontier), exact relative simplicial homology over the rationals,
local Betti numbers via excision, neighborhood filtrations with induced
restriction maps, stratification detection, and Pearson correlation tables
of graph invariants against local Betti numbers on flag complexes.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType
from .complexes import (
    Simplex,
    SimplexSet,
    SimplicialComplex,
    complex_from_json_dict,
    complex_to_json_dict,
    dump_complex,
    load_complex,
)
from .errors import (
    DisconnectedGraphError,
    LocalHomologyError,
    MalformedInputError,
    MalformedSimplexError,
    NotClosedError,
    NotOpenError,
    PreconditionError,
    UnknownSimplexError,
    UnknownVertexError,
)
from .linalg import (
    ExactMatrix,
    kernel_basis,
    rank,
    solve_in_image,
)
from .homology import (
    BettiVector,
    ChainComplexRep,
    HomologyBasis,
    betti,
    global_betti,
    homology_basis,
    induced_map_matrix,
    induced_map_rank,
    local_betti,
    local_betti_at,
    local_betti_direct,
    reduced_betti,
    relative_chain_complex,
)
from .graphs import (
    Graph,
    flag_complex,
    format_edge_list,
    maximal_cliques,
    parse_edge_list,
    read_edge_list,
)
from .invariants import (
    EdgeScores,
    VertexScores,
    betweenness_edge,
    betweenness_vertex,
    clustering_scores,
    closeness_centrality,
    degree_centrality,
    maximal_clique_count,
    random_walk_betweenness,
)
from .analysis import (
    LocalProfile,
    NeighborhoodFiltration,
    classify,
    filtration_persistence,
    generalized_degree,
    is_homology_n_manifold,
    local_profile,
    neighborhood,
    neighborhood_filtration,
    profile_many,
    profiles_to_csv,
)
from .stats import (
    CorrelationReport,
    barabasi_albert_graph,
    correlation_table,
    edge_aggregate,
    erdos_renyi_graph,
    karate_graph,
    pearson,
    planar_grid_graph,
)

# The imports above also bind each submodule's name; `*` exports only the other public names.
__all__ = [name for name, value in sorted(globals().items()) if not (name.startswith("_") or isinstance(value, _ModuleType))]
