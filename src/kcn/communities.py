"""Greedy modularity community detection and cluster profiling.

Implements weighted Newman modularity and Clauset-Newman-Moore (CNM)
agglomeration: starting from singleton clusters, repeatedly merge the pair
with the largest modularity gain until one cluster remains, then cut the
merge sequence at the modularity-maximizing step. The full merge trace is
kept so the agglomeration can be audited and exported as a dendrogram.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Mapping

from .errors import GraphError
from .graph import WeightedGraph


@dataclass(frozen=True)
class MergeStep:
    """One agglomeration step: cluster ``b`` was merged into cluster ``a``."""

    a: int
    b: int
    delta_q: float
    q_after: float


@dataclass(frozen=True)
class Partition:
    """A node-to-cluster assignment with its modularity and merge history."""

    assignment: dict[str, int]
    modularity: float
    cluster_names: dict[int, str] = field(default_factory=dict)
    merge_trace: tuple[MergeStep, ...] = ()

    def clusters(self) -> dict[int, list[str]]:
        """Cluster id to member labels, members in assignment order."""
        out: dict[int, list[str]] = {}
        for node, cid in self.assignment.items():
            out.setdefault(cid, []).append(node)
        return out


@dataclass(frozen=True)
class ClusterProfile:
    """Top members of one cluster, ranked by in-cluster weighted degree."""

    cluster_id: int
    name: str
    size: int
    top: tuple[tuple[str, int], ...]


def modularity(g: WeightedGraph, assignment: Mapping[str, int]) -> float:
    """Weighted Newman modularity of a full node-to-cluster assignment.

    ``Q = (1/2W) * sum_ij (w_ij - s_i s_j / 2W) * [c_i == c_j]`` with ``W``
    the total edge weight and ``s`` node strength. The numerator and the
    denominator ``4W^2`` are exact ints, and int true division rounds their
    quotient correctly, so equal inputs give bit-equal results. A graph
    with no edges scores 0. Every node must be assigned.
    """
    labels = g.labels()
    missing = [v for v in labels if v not in assignment]
    if missing:
        raise GraphError(f"assignment is missing {len(missing)} nodes: {missing[:3]}")
    w_total = g.total_weight
    if w_total == 0:
        return 0.0
    intra: dict[int, int] = {}
    strength_sum: dict[int, int] = {}
    for v in labels:
        cid = assignment[v]
        strength_sum[cid] = strength_sum.get(cid, 0) + g.strength(v)
    for u, v, w in g.edges():
        if assignment[u] == assignment[v]:
            cid = assignment[u]
            intra[cid] = intra.get(cid, 0) + w
    numerator = 0
    for cid, s_c in strength_sum.items():
        numerator += 4 * w_total * intra.get(cid, 0) - s_c * s_c
    return numerator / (4 * w_total * w_total)


def fast_greedy(g: WeightedGraph) -> Partition:
    """CNM agglomeration returning the modularity-maximizing partition.

    Each step merges the connected cluster pair with the largest modularity
    gain, ties broken by the lexicographically smallest cluster-id pair
    (the surviving cluster keeps the smaller id). The trace records every
    merge down to a single cluster; the returned assignment is the prefix
    with maximal modularity, renumbered by descending cluster size. The
    reported modularity is recomputed exactly from the assignment.

    Intended for connected graphs (pass the largest component); on a
    disconnected graph the agglomeration simply stops at one cluster per
    component.
    """
    n = g.n
    if n == 0:
        raise GraphError("cannot cluster an empty graph")
    labels = g.labels()
    w2 = 2.0 * g.total_weight
    if w2 == 0.0:
        assignment = {v: i for i, v in enumerate(labels)}
        return Partition(assignment=assignment, modularity=0.0)

    index = {v: i for i, v in enumerate(labels)}
    a = [g.strength(v) / w2 for v in labels]
    dq: dict[int, dict[int, float]] = {i: {} for i in range(n)}
    for u, v, w in g.edges():
        i, j = index[u], index[v]
        gain = 2.0 * (w / w2 - a[i] * a[j])
        dq[i][j] = gain
        dq[j][i] = gain
    heap = _pair_heap(dq)
    live = len(heap)  # connected cluster pairs, one valid heap entry each

    q = -sum(x * x for x in a)
    q_trace = [q]
    trace: list[MergeStep] = []
    alive = n

    while alive > 1 and heap:
        neg_gain, i, j = heapq.heappop(heap)
        current = dq.get(i, {}).get(j)
        if current is None or current != -neg_gain:
            continue  # stale heap entry
        gain = current
        q += gain
        q_trace.append(q)
        trace.append(MergeStep(a=i, b=j, delta_q=gain, q_after=q))
        alive -= 1

        # merge j into i, updating gains toward every touched cluster
        row_i, row_j = dq[i], dq.pop(j)
        del row_i[j]
        live -= 1
        for k, gain_jk in row_j.items():
            if k == i:
                continue
            dq[k].pop(j, None)
            if k in row_i:
                live -= 1
                new = row_i[k] + gain_jk
            else:
                new = gain_jk - 2.0 * a[i] * a[k]
            row_i[k] = new
            dq[k][i] = new
            lo, hi = (i, k) if i < k else (k, i)
            heapq.heappush(heap, (-new, lo, hi))
        for k, gain_ik in row_i.items():
            if k not in row_j:
                new = gain_ik - 2.0 * a[j] * a[k]
                row_i[k] = new
                dq[k][i] = new
                lo, hi = (i, k) if i < k else (k, i)
                heapq.heappush(heap, (-new, lo, hi))
        a[i] += a[j]
        if _heap_is_stale(len(heap), live):
            heap = _pair_heap(dq)

    # cut the agglomeration at the first modularity-maximizing step
    best_steps = max(range(len(q_trace)), key=lambda t: (q_trace[t], -t))
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in trace[:best_steps]:
        parent[find(step.b)] = find(step.a)

    members: dict[int, list[int]] = {}
    for node in range(n):
        members.setdefault(find(node), []).append(node)
    ordered = sorted(members.values(), key=lambda ms: (-len(ms), ms[0]))
    assignment = {
        labels[node]: cid for cid, ms in enumerate(ordered) for node in ms
    }
    q_exact = modularity(g, assignment)
    return Partition(
        assignment=assignment, modularity=q_exact, merge_trace=tuple(trace)
    )


def _pair_heap(dq: dict[int, dict[int, float]]) -> list[tuple[float, int, int]]:
    """One ``(-gain, lo, hi)`` entry per connected cluster pair, heapified.

    Every entry is valid, and the order is the one every merge is picked
    by: largest gain, then the smallest id pair.
    """
    heap = [(-g, x, k) for x, row in dq.items() for k, g in row.items() if x < k]
    heapq.heapify(heap)
    return heap


def _heap_is_stale(size: int, live: int) -> bool:
    """Whether the lazy heap holds enough stale entries to be rebuilt.

    Without a rebuild the stale entries pile up: the 11 slices of the
    ``meso_vocab`` benchmark corpus (seed 1) took 279,500 pops for 2,900
    merges. Rebuilding once the heap holds over four entries per live pair
    keeps the pops near the merges and the heap within a small multiple of
    the live pairs.
    """
    return size > 4 * live + 64


def in_group_degree(g: WeightedGraph, partition: Partition) -> dict[str, int]:
    """Summed edge weight from each node to its own cluster."""
    assignment = partition.assignment
    totals: dict[str, int] = {v: 0 for v in g.labels()}
    for u, v, w in g.edges():
        if assignment[u] == assignment[v]:
            totals[u] += w
            totals[v] += w
    return totals


def name_clusters(g: WeightedGraph, partition: Partition) -> Partition:
    """Name every cluster after the top member of its ``cluster_profiles``."""
    names = {p.cluster_id: p.name for p in cluster_profiles(g, partition, 1)}
    return replace(partition, cluster_names=names)


def cluster_profiles(
    g: WeightedGraph, partition: Partition, k: int
) -> list[ClusterProfile]:
    """Top-``k`` members of every cluster by in-cluster weighted degree.

    Ties go to the more frequent member (article count), then to the
    lexicographically smaller label. Each cluster is named after its top
    member. Profiles are ordered by descending cluster size, ties by
    smallest member label.
    """
    ingroup = in_group_degree(g, partition)
    profiles = []
    clusters = sorted(
        partition.clusters().items(), key=lambda kv: (-len(kv[1]), min(kv[1]))
    )
    for cid, members in clusters:
        ranked = sorted(members, key=lambda v: (-ingroup[v], -g.freq(v), v))
        profiles.append(
            ClusterProfile(
                cluster_id=cid,
                name=ranked[0],
                size=len(members),
                top=tuple((v, ingroup[v]) for v in ranked[:k]),
            )
        )
    return profiles
