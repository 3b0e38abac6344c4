"""Greedy modularity community detection and cluster profiling.

Implements weighted Newman modularity and Clauset-Newman-Moore (CNM)
agglomeration: starting from singleton clusters, repeatedly merge the pair
with the largest modularity gain until one cluster remains, then cut the
merge sequence at the modularity-maximizing step. The full merge trace is
kept so the agglomeration can be audited and exported as a dendrogram.
"""

from __future__ import annotations

import heapq
from typing import Mapping, NamedTuple

from .errors import GraphError
from .graph import WeightedGraph


class MergeStep(NamedTuple):
    """One agglomeration step: cluster ``b`` was merged into cluster ``a``."""

    a: int
    b: int
    delta_q: float
    q_after: float


class Partition(NamedTuple):
    """A node-to-cluster assignment with its modularity and merge history."""

    assignment: dict[str, int]
    modularity: float
    merge_trace: tuple[MergeStep, ...] = ()

    def clusters(self) -> dict[int, list[str]]:
        """Cluster id to member labels, members in assignment order."""
        out: dict[int, list[str]] = {}
        for node, cid in self.assignment.items():
            out.setdefault(cid, []).append(node)
        return out


class ClusterProfile(NamedTuple):
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
    cluster = [assignment[v] for v in labels]
    # per cluster: twice its internal weight, and its strength sum
    intra2: dict[int, int] = {}
    strength_sum: dict[int, int] = {}
    for c, row in zip(cluster, g.adjacency()):
        strength_sum[c] = strength_sum.get(c, 0) + sum(row.values())
        intra2[c] = intra2.get(c, 0) + sum(w for j, w in row.items() if cluster[j] == c)
    numerator = sum(2 * w_total * intra2[c] - s * s for c, s in strength_sum.items())
    return numerator / (4 * w_total * w_total)


def fast_greedy(g: WeightedGraph) -> Partition:
    """CNM agglomeration returning the modularity-maximizing partition.

    Each step merges the connected cluster pair with the largest modularity
    gain, ties broken by the lexicographically smallest cluster-id pair
    (the surviving cluster keeps the smaller id). The trace records every
    merge down to a single cluster; the returned assignment is the prefix
    with maximal modularity, renumbered by descending cluster size. The
    reported modularity is recomputed exactly from the assignment.

    The heap of pair gains is lazy for gains that fall. When ``j`` merges
    into ``i``, a pair ``(i, k)`` with ``k`` not adjacent to ``j`` loses the
    non-negative ``2 a_j a_k``, so as a float its gain can only fall, and
    its entry stays in the heap above it. A merge pushes an entry only for
    a new pair or for a pair whose gain rose, so every connected pair keeps
    an entry at or above its gain. A popped entry of a gone pair, or below
    its pair's gain (one that rose since), is dropped; one above it is
    pushed back at the gain; one equal to it is merged. That is the pair an
    exact heap would pick, so the trace is the same bits.

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

    adj = g.adjacency()
    a = [sum(row.values()) / w2 for row in adj]
    # a[i] * a[j] and a[j] * a[i] are the same float, so dq stays symmetric
    dq: dict[int, dict[int, float]] = {
        i: {j: 2.0 * (w / w2 - a[i] * a[j]) for j, w in row.items()}
        for i, row in enumerate(adj)
    }
    heap = _pair_heap(dq)
    live = len(heap)  # connected cluster pairs

    # from Python 3.12 on, sum() compensates float additions; a loop adds
    # left to right, so q has the same bits on every version
    q = 0.0
    for x in a:
        q -= x * x
    q_trace = [q]
    trace: list[MergeStep] = []
    alive = n

    while alive > 1 and heap:
        neg_gain, i, j = heapq.heappop(heap)
        current = dq.get(i, {}).get(j)
        if current is None or current > -neg_gain:
            continue  # the pair is gone, or its gain rose and was pushed anew
        if current < -neg_gain:
            heapq.heappush(heap, (-current, i, j))  # the gain fell since
            continue
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
            old = row_i.get(k)
            if old is None:
                new = gain_jk - 2.0 * a[i] * a[k]
            else:
                live -= 1
                new = old + gain_jk
            row_i[k] = new
            dq[k][i] = new
            if old is None or new > old:  # a new pair, or a gain that rose
                lo, hi = (i, k) if i < k else (k, i)
                heapq.heappush(heap, (-new, lo, hi))
        for k, gain_ik in row_i.items():
            if k not in row_j:
                # a fall: the pair's entry stays above its gain
                new = gain_ik - 2.0 * a[j] * a[k]
                row_i[k] = new
                dq[k][i] = new
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

    Entries of gone pairs, and entries below a gain that rose, are stale.
    Without a rebuild they pile up: the 11 slices of the ``meso_vocab``
    benchmark corpus (seed 1) took 25,163 pushes and 43,956 pops for 2,900
    merges. Rebuilding once the heap holds over four entries per live pair
    took 24 rebuilds, 23,553 pushes and 11,164 pops, and keeps the heap
    within a small multiple of the live pairs.
    """
    return size > 4 * live + 64


def in_group_degree(g: WeightedGraph, partition: Partition) -> dict[str, int]:
    """Summed edge weight from each node to its own cluster."""
    labels = g.labels()
    cluster = [partition.assignment[v] for v in labels]
    return {
        v: sum(w for j, w in row.items() if cluster[j] == c)
        for v, c, row in zip(labels, cluster, g.adjacency())
    }


def name_clusters(g: WeightedGraph, partition: Partition) -> dict[int, str]:
    """Cluster id to the top member of its ``cluster_profiles``."""
    return {p.cluster_id: p.name for p in cluster_profiles(g, partition, 1)}


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
