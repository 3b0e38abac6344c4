"""Micro-level keyword trend analysis.

Ranks keywords by weighted betweenness centrality (Brandes accumulation
over shortest paths with edge distance ``1/weight``), detects keywords that
newly enter the top ranks of later time slices, and extracts ego networks
around chosen keywords. ``weighted_betweenness`` is the one Brandes entry
point: it sums every source of one graph, in source order.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple, Sequence

from .corpus import Corpus
from .errors import GraphError
from .graph import WeightedGraph


# per node, its (neighbour, step) pairs; a step is the edge's distance, the
# lcm of all weights divided by the edge's weight, shifted left by
# _node_bits(n) so that a heap key is one int, (distance << bits) | node
Steps = list[tuple[tuple[int, int], ...]]


class CentralityTable(NamedTuple):
    """Top-``k`` betweenness ranking for one slice."""

    label: str
    k: int
    rows: tuple[tuple[str, float], ...]


class EmergingKeyword(NamedTuple):
    """A keyword first entering the top ranks in ``first_year``."""

    keyword: str
    first_year: str
    value: float


class EgoView(NamedTuple):
    """A keyword's neighborhood: the induced subgraph on ego plus alters."""

    ego: str
    labeled_alters: tuple[str, ...]
    graph: WeightedGraph


def weighted_betweenness(g: WeightedGraph) -> dict[str, float]:
    """Unnormalized weighted betweenness centrality of every node.

    Shortest paths minimize the summed edge distance ``1/weight``; all
    shortest-path multiplicities count (Brandes accumulation). Endpoint
    pairs in different components contribute nothing. Each unordered pair
    is counted once. Weights are ints, so distances are scaled to exact
    integers (shortest paths are invariant under uniform scaling), and
    tie detection never depends on floating-point rounding. The scale is
    the lcm of all the graph's weights, dropped edges' included.

    Dijkstra runs on the distance backbone (see ``_backbone``): an edge
    strictly longer than some two-step path between its ends lies on no
    shortest path, so it is left out. An edge that ties such a path stays,
    since it counts in the path multiplicities. Every distance, path count
    and predecessor list, and so every float addition and every bit of
    the result, is as on the whole graph.
    """
    n = g.n
    if n == 0:
        raise GraphError("betweenness of an empty graph is undefined")
    adj = g.adjacency()
    scale = math.lcm(*(w for row in adj for w in row.values()))
    bits = _node_bits(n)
    nbrs = [
        tuple((j, (scale // w) << bits) for j, w in row.items())
        for row in _backbone(adj)
    ]
    bc = [0.0] * n
    for source in range(n):
        order, delta = _source_delta(nbrs, source)
        for i in range(1, len(order)):
            u = order[i]
            d = delta[u]
            # most dependencies are zero; adding +0.0 changes no bit, since
            # no score is -0.0
            if d:
                bc[u] += d
    labels = g.labels()
    # each unordered pair was visited from both endpoints
    return {labels[i]: bc[i] / 2.0 for i in range(n)}


def _backbone(adj: list[dict[int, int]]) -> list[dict[int, int]]:
    """Per node index, neighbour index -> weight of the edges kept.

    Edge u-v of weight ``w`` is dropped when some common neighbour x is
    strictly closer by two steps: ``1/a + 1/b < 1/w`` with ``a`` and ``b``
    the weights of u-x and x-v, which in ints is ``(a + b) * w < a * b``,
    exact without an lcm. Such an edge is semi-metric (Simas, Correia and
    Rocha, "The distance backbone of complex networks", 2021): every path
    through it has a strictly shorter detour, so no shortest path uses it.
    Each edge is decided once, from its lower endpoint, by walking the
    smaller of the two rows. A longer detour is not looked for; an edge
    kept needlessly costs time, never a byte. The rows need not list
    neighbours in ``adj``'s order: ``_source_delta`` lists predecessors in
    settle order, whatever the order of a row.
    """
    rows: list[dict[int, int]] = [{} for _ in adj]
    for u, row in enumerate(adj):
        for v, w in row.items():
            if v < u:
                continue
            other = adj[v]
            small, large = (row, other) if len(row) <= len(other) else (other, row)
            for x, a in small.items():
                b = large.get(x)
                if b is not None and (a + b) * w < a * b:
                    break
            else:
                rows[u][v] = w
                rows[v][u] = w
    return rows


def _node_bits(n: int) -> int:
    """Bits below the distance in the heap keys of an ``n``-node graph."""
    return (n - 1).bit_length()


def _source_delta(nbrs: Steps, source: int) -> tuple[list[int], list[float]]:
    """Dijkstra from ``source``, then Brandes dependency accumulation.

    Returns the reached nodes in settle order, ``source`` first, and the
    dependency of ``source`` on every node. Only the nodes after the first
    take a score from it. A heap entry is one int, ``(distance << bits) |
    node``: every node index is below ``1 << bits``, so the ints order as
    the ``(distance, node)`` pairs they encode, and nodes settle in the
    same order. Distances stay shifted throughout.
    """
    # looked up per call, so a stand-in for the heapq module is honoured
    heappop = heapq.heappop
    heappush = heapq.heappush
    n = len(nbrs)
    mask = (1 << _node_bits(n)) - 1
    dist: list = [None] * n
    sigma = [0] * n
    preds: dict[int, list[int]] = {}
    dist[source] = 0
    sigma[source] = 1
    done = [False] * n
    order: list[int] = []
    heap = [source]  # at distance 0
    while heap:
        u = heappop(heap) & mask
        if done[u]:
            continue
        done[u] = True
        order.append(u)
        du = dist[u]
        su = sigma[u]
        for v, step in nbrs[u]:
            # a settled neighbour is no farther than u and steps are
            # positive, so it can be neither improved nor tied
            if done[v]:
                continue
            nd = du + step
            dv = dist[v]
            if dv is None or nd < dv:
                dist[v] = nd
                sigma[v] = su
                preds[v] = [u]
                heappush(heap, nd | v)
            elif nd == dv:
                sigma[v] += su
                preds[v].append(u)
    delta = [0.0] * n
    # the source, first in the order, has no predecessors
    for i in range(len(order) - 1, 0, -1):
        u = order[i]
        coeff = (1.0 + delta[u]) / sigma[u]
        for p in preds[u]:
            delta[p] += sigma[p] * coeff
    return order, delta


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
