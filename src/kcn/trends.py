"""Micro-level keyword trend analysis.

Ranks keywords by weighted betweenness centrality (Brandes accumulation
over shortest paths with edge distance ``1/weight``), detects keywords that
newly enter the top ranks of later time slices, and extracts ego networks
around chosen keywords.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .corpus import Corpus
from .errors import GraphError
from .graph import WeightedGraph


@dataclass(frozen=True)
class CentralityTable:
    """Top-``k`` betweenness ranking for one slice."""

    label: str
    k: int
    rows: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class EmergingKeyword:
    """A keyword first entering the top ranks in ``first_year``."""

    keyword: str
    first_year: str
    value: float


@dataclass(frozen=True)
class EgoView:
    """A keyword's neighborhood: the induced subgraph on ego plus alters."""

    ego: str
    alters: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]
    labeled_alters: tuple[str, ...]
    graph: WeightedGraph


def weighted_betweenness(g: WeightedGraph) -> dict[str, float]:
    """Unnormalized weighted betweenness centrality of every node.

    Shortest paths minimize the summed edge distance ``1/weight``; all
    shortest-path multiplicities count (Brandes accumulation). Endpoint
    pairs in different components contribute nothing. Each unordered pair
    is counted once. When all weights are integers, distances are scaled
    to exact integers (shortest paths are invariant under uniform scaling),
    so tie detection never depends on floating-point rounding.
    """
    n = g.n
    if n == 0:
        raise GraphError("betweenness of an empty graph is undefined")
    adj = g.adjacency()
    weights = [w for nbrs in adj for w in nbrs.values()]
    if all(isinstance(w, int) for w in weights):
        scale = math.lcm(*weights) if weights else 1
        dist_of = [
            {j: scale // w for j, w in nbrs.items()} for nbrs in adj
        ]
        zero = 0
    else:
        dist_of = [{j: 1.0 / w for j, w in nbrs.items()} for nbrs in adj]
        zero = 0.0

    bc = [0.0] * n
    for source in range(n):
        dist: list = [None] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[source] = zero
        sigma[source] = 1
        done = [False] * n
        order: list[int] = []
        heap = [(zero, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            order.append(u)
            du = dist[u]
            for v, step in dist_of[u].items():
                nd = du + step
                dv = dist[v]
                if dv is None or nd < dv:
                    dist[v] = nd
                    sigma[v] = sigma[u]
                    preds[v] = [u]
                    heapq.heappush(heap, (nd, v))
                elif nd == dv:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = [0.0] * n
        for u in reversed(order):
            coeff = (1.0 + delta[u]) / sigma[u]
            for p in preds[u]:
                delta[p] += sigma[p] * coeff
            if u != source:
                bc[u] += delta[u]
    labels = g.labels()
    # each unordered pair was visited from both endpoints
    return {labels[i]: bc[i] / 2.0 for i in range(n)}


def top_k_table(
    g: WeightedGraph,
    k: int,
    label: str,
    values: dict[str, float] | None = None,
) -> CentralityTable:
    """Top-``k`` nodes by betweenness, ties broken by label.

    Precomputed ``values`` may be passed to avoid recomputation.
    """
    if k < 1:
        raise GraphError(f"table size must be at least 1, got {k}")
    if values is None:
        values = weighted_betweenness(g)
    ranked = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    return CentralityTable(label=label, k=k, rows=tuple(ranked[:k]))


def detect_emerging(tables: Sequence[CentralityTable]) -> list[EmergingKeyword]:
    """Keywords first entering the top ranks after the earliest slice.

    ``tables`` must be in chronological order and share one ``k``. A
    keyword is emerging if it appears in some table while absent from
    every earlier one; it keeps that debut annotation even if it later
    drops out again. Results are ordered by debut slice, then descending
    debut value, then label.
    """
    if len(tables) < 2:
        raise GraphError("emerging detection needs at least two tables")
    ks = {t.k for t in tables}
    if len(ks) != 1:
        raise GraphError(f"tables disagree on k: {sorted(ks)}")
    seen = {kw for kw, _ in tables[0].rows}
    out: list[EmergingKeyword] = []
    for table in tables[1:]:
        debut = [
            EmergingKeyword(keyword=kw, first_year=table.label, value=value)
            for kw, value in table.rows
            if kw not in seen
        ]
        debut.sort(key=lambda e: (-e.value, e.keyword))
        out.extend(debut)
        seen.update(kw for kw, _ in table.rows)
    return out


def ego_network(
    g: WeightedGraph, ego: str, j: int, degree_scope: str = "ego"
) -> EgoView:
    """Induced subgraph on ``ego`` and its neighbors, with top-``j`` alters.

    Alters are ranked by degree within the ego subgraph (or within the
    full graph when ``degree_scope="full"``), ties broken by edge weight
    to the ego, then label. The ego is in the subgraph but never listed
    as an alter.
    """
    if degree_scope not in ("ego", "full"):
        raise GraphError(f"unknown degree scope: {degree_scope!r}")
    alters = g.neighbors(ego)
    sub = g.subgraph([ego, *alters])
    scope = sub if degree_scope == "ego" else g
    ranked = sorted(
        alters, key=lambda v: (-scope.degree(v), -g.weight(ego, v), v)
    )
    return EgoView(
        ego=ego,
        alters=tuple(alters),
        edges=tuple(sub.edges()),
        labeled_alters=tuple(ranked[: max(j, 0)]),
        graph=sub,
    )


def frequency_table(corpus: Corpus, k: int) -> list[tuple[str, int]]:
    """Top-``k`` keywords by number of articles containing them.

    Ties are broken by label. Intended for a normalized corpus, where
    each record's keyword list is already duplicate-free.
    """
    if k < 1:
        raise GraphError(f"table size must be at least 1, got {k}")
    counts: dict[str, int] = {}
    for record in corpus.records:
        for kw in dict.fromkeys(record.keywords):
            counts[kw] = counts.get(kw, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]
