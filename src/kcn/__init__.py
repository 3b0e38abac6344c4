"""Keyword co-occurrence network analysis for bibliographic corpora.

Builds weighted keyword co-occurrence graphs from article metadata and
analyzes them at three levels: whole-graph structure, modularity-based
communities, and per-keyword centrality trends over time.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .corpus import (
    ArticleRecord,
    Corpus,
    FilterReport,
    concat_corpora,
    filter_eligible,
    load_corpus,
)
from .errors import (
    ConfigError,
    CorpusError,
    FitError,
    GraphError,
    KcnError,
    LexiconError,
    NormalizationError,
    StageError,
)
from .normalize import (
    NormalizationLexicon,
    apply_abbrev_map,
    expand_parenthetical,
    fold_case_hyphens,
    load_lexicon,
    merge_synonyms,
    normalize_corpus,
    similarity,
    singularize,
)
from .graph import (
    SliceSpec,
    WeightedGraph,
    build_kcn,
    largest_component,
    to_dot,
    to_edge_csv,
    to_graphml,
    write_graphml,
)
from .structure import (
    DegreeBin,
    NodeProfile,
    PowerLawFit,
    StructuralSummary,
    assortativity,
    average_clustering,
    ccdf,
    fit_power_law,
    profile_nodes,
    summarize,
    weighted_annd,
    weighted_annd_ratio,
    weighted_clustering,
)
from .communities import (
    ClusterProfile,
    MergeStep,
    Partition,
    cluster_profiles,
    fast_greedy,
    in_group_degree,
    modularity,
    name_clusters,
)
from .trends import (
    CentralityTable,
    EgoView,
    EmergingKeyword,
    detect_emerging,
    ego_network,
    frequency_table,
    top_k_table,
    weighted_betweenness,
)
from .config import RunConfig, load_config
from .pipeline import run_pipeline

__all__ = [
    "ArticleRecord",
    "CentralityTable",
    "ClusterProfile",
    "ConfigError",
    "Corpus",
    "CorpusError",
    "DegreeBin",
    "EgoView",
    "EmergingKeyword",
    "FilterReport",
    "FitError",
    "GraphError",
    "KcnError",
    "LexiconError",
    "MergeStep",
    "NodeProfile",
    "NormalizationError",
    "NormalizationLexicon",
    "Partition",
    "PowerLawFit",
    "RunConfig",
    "SliceSpec",
    "StageError",
    "StructuralSummary",
    "WeightedGraph",
    "apply_abbrev_map",
    "assortativity",
    "average_clustering",
    "build_kcn",
    "ccdf",
    "cluster_profiles",
    "concat_corpora",
    "detect_emerging",
    "ego_network",
    "expand_parenthetical",
    "fast_greedy",
    "filter_eligible",
    "fit_power_law",
    "fold_case_hyphens",
    "frequency_table",
    "in_group_degree",
    "largest_component",
    "load_config",
    "load_corpus",
    "load_lexicon",
    "merge_synonyms",
    "modularity",
    "name_clusters",
    "normalize_corpus",
    "profile_nodes",
    "run_pipeline",
    "similarity",
    "singularize",
    "summarize",
    "to_dot",
    "to_edge_csv",
    "to_graphml",
    "top_k_table",
    "weighted_annd",
    "weighted_annd_ratio",
    "weighted_betweenness",
    "weighted_clustering",
    "write_graphml",
]
