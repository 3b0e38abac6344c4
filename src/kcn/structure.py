"""Macro-level structural metrics for weighted graphs.

Covers the whole-graph summary (size, density, clustering, mean degree and
strength, largest component, degree assortativity), per-node weighted
clustering and neighbor-degree profiles, complementary cumulative
distributions, and maximum-likelihood power-law fits with a
Kolmogorov-Smirnov cutoff scan.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FitError, GraphError
from .graph import WeightedGraph


@dataclass(frozen=True)
class StructuralSummary:
    """Whole-graph metrics.

    ``n`` nodes, ``m`` edges, density ``d``, mean weighted local clustering
    ``c``, mean degree ``z``, mean strength ``s``, largest component size
    ``lc``, and degree assortativity ``r`` (None when undefined).
    """

    n: int
    m: int
    d: float
    c: float
    z: float
    s: float
    lc: int
    r: float | None


@dataclass(frozen=True)
class NodeProfile:
    """Local view of one non-isolated node."""

    node: str
    degree: int
    clustering_w: float
    knn_w: float
    knn_ratio: float


@dataclass(frozen=True)
class DegreeBin:
    """Averages over all profiled nodes sharing one degree."""

    degree: int
    mean_clustering_w: float
    mean_knn_ratio: float


@dataclass(frozen=True)
class PowerLawFit:
    """Continuous (or discrete) power-law tail fit."""

    alpha: float
    xmin: float
    ks_stat: float
    n_tail: int


def summarize(g: WeightedGraph) -> StructuralSummary:
    """Compute the eight whole-graph metrics.

    Density is ``2m / (n(n-1))`` (0 when n < 2), mean degree ``2m/n``,
    mean strength is the average node strength, and assortativity is the
    Pearson correlation of endpoint degrees over both orientations of
    every edge. A graph whose edge endpoints all share one degree has no
    defined assortativity; it is reported as None with a warning.
    """
    if g.n == 0:
        raise GraphError("cannot summarize an empty graph")
    n, m = g.n, g.m
    d = 2.0 * m / (n * (n - 1)) if n >= 2 else 0.0
    z = 2.0 * m / n
    s = 2 * g.total_weight / n  # the strength sum, as an exact int
    c = average_clustering(g, weighted=True)
    lc = max(len(comp) for comp in g.components())
    return StructuralSummary(n=n, m=m, d=d, c=c, z=z, s=s, lc=lc, r=assortativity(g))


def assortativity(g: WeightedGraph) -> float | None:
    """Pearson correlation of endpoint degrees across edge orientations.

    Uses unweighted degrees. Integer sums keep the zero-variance check
    exact; None is returned (with a warning) when either marginal is
    constant, including the no-edge case.
    """
    adj = g.adjacency()
    degs = [len(nbrs) for nbrs in adj]
    # a node of degree d is the first endpoint of d edge orientations
    count = sum(degs)
    sx = sum(d * d for d in degs)
    sxx = sum(d * d * d for d in degs)
    sxy = sum(degs[i] * degs[j] for i, nbrs in enumerate(adj) for j in nbrs)
    if count == 0:
        warnings.warn("assortativity undefined: graph has no edges")
        return None
    var_num = count * sxx - sx * sx
    if var_num == 0:
        warnings.warn("assortativity undefined: endpoint degrees are constant")
        return None
    return (count * sxy - sx * sx) / var_num


def weighted_clustering(g: WeightedGraph, v: str) -> float:
    """Strength-weighted local clustering coefficient (Barrat et al. form).

    ``c_w(v) = 1 / (s(v) (k-1)) * sum over ordered neighbor pairs (j, h)
    with an edge j-h of (w_vj + w_vh) / 2``; equivalently, the sum of
    ``w_vj + w_vh`` over unordered connected neighbor pairs divided by
    ``s(v) (k-1)``. Nodes with fewer than two neighbors score 0. On
    unit-weight graphs this equals the unweighted local clustering
    coefficient; the value always lies in [0, 1].
    """
    return _local_clustering(g, g.index_of(v))[0]


def average_clustering(g: WeightedGraph, weighted: bool = True) -> float:
    """Mean local clustering over all nodes (isolated nodes count as 0)."""
    if g.n == 0:
        raise GraphError("cannot average clustering of an empty graph")
    pick = 0 if weighted else 1
    return sum(_local_clustering(g, i)[pick] for i in range(g.n)) / g.n


def _local_clustering(g: WeightedGraph, i: int) -> tuple[float, float]:
    """Weighted (Barrat) and unweighted local clustering from ``g.closed_pairs``."""
    nbrs = g.adjacency()[i]
    k = len(nbrs)
    if k < 2:
        return 0.0, 0.0
    closed, total = g.closed_pairs[i]
    links = closed // 2
    return total / (sum(nbrs.values()) * (k - 1)), 2.0 * links / (k * (k - 1))


def weighted_annd(g: WeightedGraph, v: str) -> float:
    """Weight-averaged neighbor degree: ``(1/s(v)) * sum_j w_vj * deg(j)``.

    Neighbor degrees are unweighted. Undefined for isolated nodes.
    """
    adj = g.adjacency()
    nbrs = adj[g.index_of(v)]
    if not nbrs:
        raise GraphError(f"neighbor degree undefined for isolated node {v!r}")
    s = sum(nbrs.values())
    return sum(w * len(adj[j]) for j, w in nbrs.items()) / s


def weighted_annd_ratio(g: WeightedGraph, v: str) -> float:
    """Weighted average neighbor degree divided by the node's own degree."""
    return weighted_annd(g, v) / g.degree(v)


def profile_nodes(
    g: WeightedGraph,
) -> tuple[list[NodeProfile], list[DegreeBin]]:
    """Per-node profiles for every node with degree >= 1, plus degree bins.

    Profiles are ordered by node index. Bins average the weighted
    clustering and neighbor-degree ratio over all profiled nodes of each
    distinct degree, ascending.
    """
    adj = g.adjacency()
    profiles: list[NodeProfile] = []
    for i, v in enumerate(g.labels()):
        k = len(adj[i])
        if k < 1:
            continue
        knn = weighted_annd(g, v)
        profiles.append(
            NodeProfile(
                node=v,
                degree=k,
                clustering_w=_local_clustering(g, i)[0],
                knn_w=knn,
                knn_ratio=knn / k,
            )
        )
    by_degree: dict[int, list[NodeProfile]] = {}
    for p in profiles:
        by_degree.setdefault(p.degree, []).append(p)
    bins = [
        DegreeBin(
            degree=k,
            mean_clustering_w=sum(p.clustering_w for p in ps) / len(ps),
            mean_knn_ratio=sum(p.knn_ratio for p in ps) / len(ps),
        )
        for k, ps in sorted(by_degree.items())
    ]
    return profiles, bins


def ccdf(values: Iterable[float]) -> list[tuple[float, float]]:
    """Complementary cumulative distribution ``P(X >= x)``.

    One row per distinct value, ascending; starts at probability 1 and is
    non-increasing.
    """
    data = np.asarray(sorted(values), dtype=float)
    if data.size == 0:
        raise FitError("ccdf needs at least one value")
    xs, first = np.unique(data, return_index=True)
    probs = (data.size - first) / data.size
    return [(float(x), float(p)) for x, p in zip(xs, probs)]


def fit_power_law(
    values: Sequence[float], discrete: bool = False, min_tail: int = 10
) -> PowerLawFit:
    """Fit a power-law tail by maximum likelihood with a KS cutoff scan.

    Every distinct observed value is a candidate cutoff ``xmin``; for each,
    the tail exponent is the continuous MLE
    ``alpha = 1 + n_tail / sum(log(x_i / xmin))`` and the fit quality is the
    Kolmogorov-Smirnov distance between the empirical tail distribution and
    the fitted one. The cutoff minimizing the KS distance wins, ties going
    to the smallest cutoff. Candidates with fewer than ``min_tail`` points
    or zero log-spread are skipped; if none remain the fit fails with an
    "insufficient tail" error.

    With ``discrete=True`` the values must be positive integers and the
    exponent maximizes the zeta-normalized discrete likelihood instead.
    """
    xs = np.asarray(sorted(float(v) for v in values), dtype=float)
    if xs.size < min_tail:
        raise FitError(f"need at least {min_tail} values, got {xs.size}")
    if xs.size and xs[0] <= 0:
        raise FitError("power-law fitting requires strictly positive values")
    points, fit_tail = xs, _continuous_tail
    if discrete:
        points, fit_tail = xs.astype(int), _discrete_tail
        if np.any(points != xs):
            raise FitError("discrete fitting requires positive integer values")
    n = xs.size
    logs = np.log(xs)
    suffix = np.concatenate([np.cumsum(logs[::-1])[::-1], [0.0]])
    candidates = np.unique(xs, return_index=True)[1]
    best: PowerLawFit | None = None
    for i in candidates:
        n_tail = n - i
        if n_tail < min_tail:
            break  # later candidates only get shorter tails
        if xs[-1] == xs[i]:
            continue  # constant tail; log-spread is zero despite rounding
        fit = fit_tail(points[i:], n_tail, suffix[i], logs[i])
        if fit is not None and (best is None or fit.ks_stat < best.ks_stat):
            best = fit
    if best is None:
        raise FitError(
            "insufficient tail: no cutoff leaves enough distinct values to fit"
        )
    return best


def _continuous_tail(
    tail: np.ndarray, n_tail: int, log_sum: float, log_xmin: float
) -> PowerLawFit | None:
    """The continuous fit above ``tail[0]``; None without log-spread."""
    log_spread = log_sum - n_tail * log_xmin
    if log_spread <= 0.0:
        return None
    alpha = 1.0 + n_tail / log_spread
    model_cdf = 1.0 - (tail / tail[0]) ** (1.0 - alpha)
    steps = np.arange(n_tail + 1) / n_tail
    ks = float(
        np.max(np.maximum(np.abs(steps[1:] - model_cdf),
                          np.abs(steps[:-1] - model_cdf)))
    )
    return PowerLawFit(
        alpha=float(alpha), xmin=float(tail[0]), ks_stat=ks, n_tail=int(n_tail)
    )


def _discrete_tail(
    tail: np.ndarray, n_tail: int, log_sum: float, log_xmin: float
) -> PowerLawFit:
    """The zeta-normalized fit above the integer ``tail[0]``.

    ``log_xmin`` goes unused; the signature is ``_continuous_tail``'s.
    """
    from scipy.optimize import minimize_scalar
    from scipy.special import zeta

    xmin = int(tail[0])

    def nll(alpha: float) -> float:
        return n_tail * math.log(zeta(alpha, xmin)) + alpha * log_sum

    res = minimize_scalar(nll, bounds=(1.0001, 20.0), method="bounded")
    alpha = float(res.x)
    distinct = np.unique(tail)
    z0 = zeta(alpha, xmin)
    model_ccdf = np.array([zeta(alpha, x) for x in distinct]) / z0
    emp_ge = np.array([(tail >= x).sum() for x in distinct]) / n_tail
    emp_gt = np.array([(tail > x).sum() for x in distinct]) / n_tail
    # compare CCDFs just above and below each step
    ks = float(
        np.max(np.maximum(np.abs(emp_ge - model_ccdf),
                          np.abs(emp_gt - np.array(
                              [zeta(alpha, x + 1) for x in distinct]) / z0)))
    )
    return PowerLawFit(alpha=alpha, xmin=float(xmin), ks_stat=ks, n_tail=int(n_tail))
