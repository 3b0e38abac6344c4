"""Independent reference implementations used to validate the package.

Everything here deliberately takes the slow, obviously-correct route:
memoized recursion instead of dynamic programming tables, exhaustive
path and partition enumeration instead of incremental algorithms, and
exact rational arithmetic instead of floats wherever ties matter. None
of the code under test is imported for the computations themselves;
the only shared type is WeightedGraph, used purely as a container.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from kcn.graph import WeightedGraph

# --- string similarity -----------------------------------------------------


def lcs_len(a: str, b: str) -> int:
    """Longest common subsequence length by memoized recursion."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    result = rec(len(a), len(b))
    rec.cache_clear()
    return result


def indel_similarity(a: str, b: str) -> float:
    if a == b:
        return 100.0
    total = len(a) + len(b)
    dist = total - 2 * lcs_len(a, b)
    return 100.0 * (1.0 - dist / total)


def merge_all_pairs(
    counts: dict[str, int],
    threshold: float,
    allow: Sequence[frozenset[str]] = (),
    deny: Sequence[frozenset[str]] = (),
    exhaustive: bool = False,
) -> list[tuple[str, str, str]]:
    """Synonym merge audit from scoring every pair of distinct forms.

    Pairs share a first character or differ in length by at most 3 unless
    ``exhaustive``; deny-listed pairs are skipped and allow-listed pairs
    joined. Groups are the connected components; each collapses onto its
    most frequent member (then shorter, then lexicographic). Returns the
    ``(variant, canonical, "merge")`` entries ordered by each group's
    smallest key, members in sorted order.
    """
    keys = sorted(counts)
    links: dict[str, set[str]] = {k: set() for k in keys}
    for pair in allow:
        a, b = sorted(pair)
        if a in links and b in links:
            links[a].add(b)
            links[b].add(a)
    for a, b in combinations(keys, 2):
        if not exhaustive and a[0] != b[0] and abs(len(a) - len(b)) > 3:
            continue
        if frozenset((a, b)) in deny:
            continue
        if _pair_similarity(a, b) >= threshold:
            links[a].add(b)
            links[b].add(a)
    audit: list[tuple[str, str, str]] = []
    seen: set[str] = set()
    for key in keys:
        if key in seen:
            continue
        group, stack = {key}, [key]
        while stack:
            for other in links[stack.pop()] - group:
                group.add(other)
                stack.append(other)
        seen |= group
        canonical = min(group, key=lambda k: (-counts[k], len(k), k))
        audit.extend((m, canonical, "merge") for m in sorted(group) if m != canonical)
    return audit


@lru_cache(maxsize=None)
def _pair_similarity(a: str, b: str) -> float:
    # the reference merger rescans the same vocabularies at many thresholds
    return indel_similarity(a, b)


# --- shortest-path betweenness by exhaustive enumeration --------------------


def betweenness_exhaustive(g: WeightedGraph) -> dict[str, float]:
    """Weighted betweenness from all simple paths, exact arithmetic.

    Edge length is 1/weight as an exact Fraction. For every unordered
    pair the shortest simple paths are enumerated outright; interior
    vertices of each collect sigma_st(v)/sigma_st. Only feasible for
    tiny graphs, which is the point.
    """
    labels = g.labels()
    n = g.n
    adj: list[dict[int, Fraction]] = [dict() for _ in range(n)]
    for u, v, w in g.edges():
        iu, iv = g.index_of(u), g.index_of(v)
        length = Fraction(1, w)
        adj[iu][iv] = length
        adj[iv][iu] = length

    score = [Fraction(0)] * n
    for s, t in combinations(range(n), 2):
        best: Fraction | None = None
        shortest: list[tuple[int, ...]] = []
        stack: list[tuple[int, tuple[int, ...], Fraction]] = [(s, (s,), Fraction(0))]
        while stack:
            v, path, dist = stack.pop()
            if best is not None and dist > best:
                continue
            if v == t:
                if best is None or dist < best:
                    best = dist
                    shortest = [path]
                elif dist == best:
                    shortest.append(path)
                continue
            for u, length in adj[v].items():
                if u not in path:
                    stack.append((u, path + (u,), dist + length))
        if best is None:
            continue
        # pruning may have let in a few now-obsolete paths
        shortest = [p for p in shortest if _path_len(p, adj) == best]
        sigma = len(shortest)
        for path in shortest:
            for v in path[1:-1]:
                score[v] += Fraction(1, sigma)
    return {labels[i]: float(score[i]) for i in range(n)}


def _path_len(path: tuple[int, ...], adj: list[dict[int, Fraction]]) -> Fraction:
    return sum((adj[a][b] for a, b in zip(path, path[1:])), Fraction(0))


def betweenness_brandes_serial(g: WeightedGraph) -> list[tuple[str, float]]:
    """Weighted betweenness by the plain Brandes loop, one source at a time.

    Distances ``1/w`` are scaled by the lcm of the weights to exact ints.
    Each node's score takes one float addition per source, in source
    order, so this fixes the bits a faster implementation must match. The
    settle order depends only on (distance, node index), never on how a
    node's neighbours are listed. Every edge is relaxed, those that no
    shortest path can use included, so this is also the reference for
    betweenness on the distance backbone.
    """
    labels = g.labels()
    n = g.n
    adj: list[dict[int, int]] = [dict() for _ in range(n)]
    for u, v, w in g.edges():
        adj[g.index_of(u)][g.index_of(v)] = w
        adj[g.index_of(v)][g.index_of(u)] = w
    weights = [w for _, _, w in g.edges()]
    scale = math.lcm(*weights) if weights else 1
    bc = [0.0] * n
    for source in range(n):
        dist: list[int | None] = [None] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[source] = 0
        sigma[source] = 1
        done = [False] * n
        order: list[int] = []
        heap = [(0, source)]
        while heap:
            _, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            order.append(u)
            for v, w in adj[u].items():
                nd = dist[u] + scale // w
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    sigma[v] = sigma[u]
                    preds[v] = [u]
                    heapq.heappush(heap, (nd, v))
                elif nd == dist[v]:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = [0.0] * n
        for u in reversed(order):
            coeff = (1.0 + delta[u]) / sigma[u]
            for p in preds[u]:
                delta[p] += sigma[p] * coeff
            if u != source:
                bc[u] += delta[u]
    return [(labels[i], bc[i] / 2.0) for i in range(n)]


def source_delta_tuple_keys(
    nbrs: list[tuple[tuple[int, int], ...]], source: int
) -> tuple[list[int], list[float]]:
    """One source of the Brandes kernel with ``(distance, node)`` heap entries.

    ``nbrs[u]`` holds ``(v, distance)`` pairs, the distances exact ints.
    Returns the settle order and the dependency of ``source`` on every
    node. This is the kernel as it stood before its heap entries became
    one int each, kept as the bitwise reference for that encoding.
    """
    n = len(nbrs)
    dist: list = [None] * n
    sigma = [0] * n
    preds: dict[int, list[int]] = {}
    dist[source] = 0
    sigma[source] = 1
    done = [False] * n
    order: list[int] = []
    heap = [(0, source)]
    while heap:
        _, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        order.append(u)
        du = dist[u]
        su = sigma[u]
        for v, step in nbrs[u]:
            if done[v]:
                continue
            nd = du + step
            dv = dist[v]
            if dv is None or nd < dv:
                dist[v] = nd
                sigma[v] = su
                preds[v] = [u]
                heapq.heappush(heap, (nd, v))
            elif nd == dv:
                sigma[v] += su
                preds[v].append(u)
    delta = [0.0] * n
    for i in range(len(order) - 1, 0, -1):
        u = order[i]
        coeff = (1.0 + delta[u]) / sigma[u]
        for p in preds[u]:
            delta[p] += sigma[p] * coeff
    return order, delta


# --- modularity -------------------------------------------------------------


def modularity_bruteforce(g: WeightedGraph, assignment: dict[str, int]) -> float:
    """Q from the textbook double sum over all ordered node pairs."""
    labels = g.labels()
    two_w = 2 * g.total_weight
    if two_w == 0:
        return 0.0
    q = Fraction(0)
    for u in labels:
        for v in labels:
            if assignment[u] != assignment[v]:
                continue
            w_uv = g.weight(u, v) if u != v else 0
            q += Fraction(w_uv) - Fraction(g.strength(u) * g.strength(v), two_w)
    return float(q / two_w)


def cnm_full_scan(g: WeightedGraph) -> list[tuple[int, int, float, float]]:
    """CNM merge trace ``(a, b, delta_q, q_after)`` with no heap.

    Each merge is picked by scanning every connected cluster pair: largest
    gain, then the smallest ``(lo, hi)``. The gains start and change by the
    textbook float operations of Clauset, Newman and Moore (2004), eq. 10,
    so the trace is comparable bit for bit.
    """
    adj = g.adjacency()
    w2 = 2.0 * g.total_weight
    a = [sum(row.values()) / w2 for row in adj]
    gain = {
        (i, j): 2.0 * (w / w2 - a[i] * a[j])
        for i, row in enumerate(adj)
        for j, w in row.items()
        if i < j
    }
    q = -sum(x * x for x in a)
    trace = []
    while gain:
        (i, j), best = min(gain.items(), key=lambda kv: (-kv[1], kv[0]))
        q += best
        trace.append((i, j, best, q))
        del gain[i, j]
        near: dict[int, dict[int, float]] = {i: {}, j: {}}
        for x, y in [p for p in gain if i in p or j in p]:
            value = gain.pop((x, y))
            if x in near:
                near[x][y] = value
            else:
                near[y][x] = value
        row_i, row_j = near[i], near[j]
        for k in row_i.keys() | row_j.keys():
            if k in row_i and k in row_j:
                new = row_i[k] + row_j[k]
            elif k in row_j:
                new = row_j[k] - 2.0 * a[i] * a[k]
            else:
                new = row_i[k] - 2.0 * a[j] * a[k]
            gain[min(i, k), max(i, k)] = new
        a[i] += a[j]
    return trace


def set_partitions(items: Sequence[str]) -> Iterator[list[list[str]]]:
    """Every set partition of ``items`` (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]
        yield [[first]] + partial


def best_modularity_exhaustive(g: WeightedGraph) -> float:
    """Max modularity over every possible partition. Feasible to n=9 or so.

    Uses the per-block form ``sum_b(W_b/W - (S_b/2W)^2)`` so the scan over
    thousands of partitions stays cheap; the double-sum oracle above cross
    checks individual values.
    """
    w = g.total_weight
    if w == 0:
        return 0.0
    strength = {v: g.strength(v) for v in g.labels()}
    pair_w = {frozenset((u, v)): wt for u, v, wt in g.edges()}
    best = -math.inf
    for blocks in set_partitions(g.labels()):
        q = 0.0
        for block in blocks:
            intra = sum(
                pair_w.get(frozenset((a, b)), 0)
                for i, a in enumerate(block)
                for b in block[i + 1 :]
            )
            s_b = sum(strength[v] for v in block)
            q += intra / w - (s_b / (2 * w)) ** 2
        best = max(best, q)
    return best


# --- local structure --------------------------------------------------------


def clustering_unweighted(g: WeightedGraph, v: str) -> float:
    nbrs = g.neighbors(v)
    k = len(nbrs)
    if k < 2:
        return 0.0
    triangles = sum(1 for a, b in combinations(nbrs, 2) if g.weight(a, b) > 0)
    return triangles / (k * (k - 1) / 2)


def clustering_barrat(g: WeightedGraph, v: str) -> float:
    """Barrat et al. coefficient summed over ordered neighbor pairs."""
    nbrs = g.neighbors(v)
    k = len(nbrs)
    if k < 2:
        return 0.0
    acc = Fraction(0)
    for j in nbrs:
        for h in nbrs:
            if j == h or g.weight(j, h) == 0:
                continue
            acc += Fraction(g.weight(v, j) + g.weight(v, h), 2)
    return float(acc / (g.strength(v) * (k - 1)))


def annd(g: WeightedGraph, v: str) -> float:
    nbrs = g.neighbors(v)
    total = sum(g.weight(v, u) * g.degree(u) for u in nbrs)
    return total / g.strength(v)


def degree_pearson(g: WeightedGraph) -> float | None:
    """Degree assortativity as a plain Pearson correlation (stdlib)."""
    xs: list[int] = []
    ys: list[int] = []
    for u, v, _ in g.edges():
        du, dv = g.degree(u), g.degree(v)
        xs.extend((du, dv))
        ys.extend((dv, du))
    if not xs:
        return None
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return None


# --- power-law sampling ------------------------------------------------------


def powerlaw_sample(
    rng: random.Random, alpha: float, xmin: float, n: int
) -> list[float]:
    """Continuous Pareto draws by inverse CDF: x = xmin*(1-u)^(-1/(alpha-1))."""
    exponent = -1.0 / (alpha - 1.0)
    return [xmin * (1.0 - rng.random()) ** exponent for _ in range(n)]


def fit_discrete_bruteforce(
    values: Sequence[int], min_tail: int = 10
) -> tuple[float, int, float, int] | None:
    """Discrete power-law fit by a plain scan: ``(ks, xmin, alpha, n_tail)``.

    Every distinct value with at least ``min_tail`` values from it up, and
    a tail that is not constant, is a cutoff. Its exponent minimizes
    ``n log zeta(alpha, xmin) + alpha * sum(log x)`` over [1.0001, 20] by
    bounded Brent search; its KS distance compares the tail's CCDF
    ``P(X >= x)`` and ``P(X > x)`` with ``zeta(alpha, x) / zeta(alpha, xmin)``
    and ``zeta(alpha, x + 1) / zeta(alpha, xmin)`` at every distinct tail
    value. The smallest distance wins, ties going to the smaller cutoff.
    """
    from scipy.optimize import minimize_scalar
    from scipy.special import zeta

    xs = sorted(int(v) for v in values)
    best = None
    for xmin in sorted(set(xs)):
        tail = [x for x in xs if x >= xmin]
        n = len(tail)
        if n < min_tail or tail[-1] == xmin:
            continue
        log_sum = math.fsum(math.log(x) for x in tail)

        def nll(alpha: float, xmin: int = xmin, n: int = n, s: float = log_sum) -> float:
            return n * math.log(zeta(alpha, xmin)) + alpha * s

        res = minimize_scalar(nll, bounds=(1.0001, 20.0), method="bounded")
        alpha = float(res.x)
        z0 = zeta(alpha, xmin)
        ks = 0.0
        for x in sorted(set(tail)):
            at_least = sum(1 for t in tail if t >= x) / n
            above = sum(1 for t in tail if t > x) / n
            ks = max(
                ks,
                abs(at_least - zeta(alpha, x) / z0),
                abs(above - zeta(alpha, x + 1) / z0),
            )
        if best is None or ks < best[0]:
            best = (ks, xmin, alpha, n)
    return best


# --- seeded graph generators --------------------------------------------------


def random_graph(
    rng: random.Random,
    n_max: int = 8,
    p: float = 0.45,
    max_weight: int = 5,
) -> WeightedGraph:
    """Random weighted graph with at least one edge; may be disconnected."""
    while True:
        n = rng.randint(2, n_max)
        labels = [f"n{i}" for i in range(n)]
        edges = [
            (labels[i], labels[j], rng.randint(1, max_weight))
            for i, j in combinations(range(n), 2)
            if rng.random() < p
        ]
        if edges:
            used = {v for e in edges for v in e[:2]}
            isolated = [v for v in labels if v not in used]
            freq = {v: rng.randint(1, 10) for v in labels}
            return WeightedGraph.from_edges(edges, isolated=isolated, freq=freq)


def random_connected_graph(
    rng: random.Random,
    n_max: int = 8,
    extra: float = 0.3,
    max_weight: int = 5,
) -> WeightedGraph:
    """Random spanning tree plus a sprinkling of extra edges."""
    n = rng.randint(2, n_max)
    labels = [f"n{i}" for i in range(n)]
    edges: dict[tuple[int, int], int] = {}
    for j in range(1, n):
        i = rng.randrange(j)
        edges[(i, j)] = rng.randint(1, max_weight)
    for i, j in combinations(range(n), 2):
        if (i, j) not in edges and rng.random() < extra:
            edges[(i, j)] = rng.randint(1, max_weight)
    triples = [(labels[i], labels[j], w) for (i, j), w in sorted(edges.items())]
    freq = {v: rng.randint(1, 10) for v in labels}
    return WeightedGraph.from_edges(triples, freq=freq)


def planted_two_block(
    rng: random.Random,
    block: int = 6,
    p_in: float = 0.9,
    p_out: float = 0.08,
    w_in: int = 4,
    w_out: int = 1,
) -> tuple[WeightedGraph, dict[str, int]]:
    """Two dense blocks joined by sparse weak edges, plus the truth."""
    labels = [f"v{i}" for i in range(2 * block)]
    truth = {v: (0 if i < block else 1) for i, v in enumerate(labels)}
    while True:
        edges = []
        for i, j in combinations(range(2 * block), 2):
            same = truth[labels[i]] == truth[labels[j]]
            if rng.random() < (p_in if same else p_out):
                edges.append((labels[i], labels[j], w_in if same else w_out))
        if not edges:
            continue
        g = WeightedGraph.from_edges(
            edges,
            isolated=[v for v in labels if not any(v in e[:2] for e in edges)],
            freq={v: 1 for v in labels},
        )
        if len(g.components()) == 1:
            return g, truth
