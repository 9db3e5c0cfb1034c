"""Structural correlation pattern mining for attributed graphs.

Quantifies how vertex attribute sets correlate with quasi-clique membership,
normalizes the correlation against null models, and enumerates the top-k
largest/densest patterns per significant attribute set.
"""

__version__ = "0.1.0"

from .graph import (
    AttributeDictionary,
    AttributedGraph,
    GraphFormatError,
    GraphView,
    induced_view,
    load_graph,
    z_core,
)
from .index import (
    AttributeIndex,
    build_index,
    frequent_attributes,
    vertex_set,
)
from .quasiclique import (
    DEFAULT_EXPANSION_BUDGET,
    QuasiClique,
    QuasiCliqueParams,
    SearchBudgetExceeded,
    SearchStats,
    covered_vertices,
    enumerate_maximal,
    is_gamma_dense,
    pattern_sort_key,
    top_k_patterns,
    vertex_prune,
)
from .nullmodel import (
    ANALYTICAL,
    SIMULATION,
    ExpectedCorrelation,
    NullModel,
    NullModelConfig,
    binomial_term,
    max_eps_exp,
    normalized_delta,
    sample_prob,
    sim_eps_exp,
)
from .miner import (
    CorrelationRecord,
    MinerConfig,
    MinerStats,
    MiningResult,
    PatternRecord,
    prune_extension,
    run_naive,
    run_scpm,
    structural_correlation,
)
