"""Sampling and expressivity labs for sparse graphs.

Random walks and randomized depth-first searches with positional
encodings, coverage statistics and sample-size bounds, color refinement
(classic and walk-based), exact DFS-distribution enumeration with
isomorphism-invariance checks, and graph reconstruction from search
samples.
"""

from .coverage import (
    BoundQuery,
    CoverageReport,
    CoverTimeReport,
    EdgeInclusionReport,
    EscapeSet,
    bound_check_report,
    bound_query,
    cover_time_estimate,
    coverage_curve,
    coverage_report,
    edge_inclusion_probs,
    escape_set,
    full_coverage_probability,
    sample_bound_m,
)
from .encodings import (
    AnonSequence,
    TagMap,
    adjacency_encoding,
    anonymous_encoding,
    anonymous_tags,
    identity_encoding,
)
from .graphs import (
    DegreeStats,
    Graph,
    GraphParseError,
    complete_graph,
    cycle_graph,
    degree_stats,
    disjoint_union,
    er_connected,
    gen_family,
    hex_chain,
    load_edge_list,
    path_graph,
    random_permutation,
    random_tree,
    relabel,
    save_edge_list,
    star_graph,
)
from .invariance import (
    InvarianceSampleReport,
    SequenceDistribution,
    dfs_distribution,
    invariance_exact,
    invariance_sampled,
    pushforward,
)
from .reconstruct import (
    ReconstructionReport,
    reconstruct_from_searches,
    verify_reconstruction,
)
from .samplers import (
    DfsOutcome,
    EnumerationBudgetError,
    SampleSet,
    SearchRecord,
    WalkRecord,
    derive_rng,
    enumerate_dfs,
    sample_dfs,
    sample_set,
    sample_walk,
    validate_search_record,
)
from .wl import (
    DistinguishVerdict,
    Partition,
    RefinementGuardError,
    RefinementRun,
    UnfoldingTree,
    distinguish,
    leaf_paths,
    partition_of,
    partition_refines,
    terminating_walks,
    unfolding_tree,
    wl_refine,
    wwl_refine,
)

__version__ = "0.1.0"
