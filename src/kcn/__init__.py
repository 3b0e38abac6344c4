"""Keyword co-occurrence network analysis for bibliographic corpora.

Builds weighted keyword co-occurrence graphs from article metadata and
analyzes them at three levels: whole-graph structure, modularity-based
communities, and per-keyword centrality trends over time.
"""

__version__ = "0.1.0"
