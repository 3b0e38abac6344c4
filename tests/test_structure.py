from __future__ import annotations

import functools
import math
import os
import random
import warnings

import numpy as np
import pytest

from kcn import trends
from kcn.config import load_config
from kcn.errors import FitError, GraphError
from kcn.graph import WeightedGraph
from kcn.pipeline import run_pipeline
from kcn.structure import (
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

import oracles
from conftest import DATA
from test_trends import WORKER_COUNTS

# --- summary ---------------------------------------------------------------


def test_summarize_two_triangles(two_triangles):
    s = summarize(two_triangles)
    assert (s.n, s.m) == (6, 7)
    assert s.d == pytest.approx(7 / 15)
    assert s.z == pytest.approx(14 / 6)
    assert s.s == pytest.approx(14 / 6)  # unit weights: strength == degree
    assert s.lc == 6
    assert 0.0 <= s.c <= 1.0


def test_summarize_single_node():
    g = WeightedGraph.from_edges([], isolated=["only"])
    with pytest.warns(UserWarning, match="no edges"):
        s = summarize(g)
    assert (s.n, s.m, s.d, s.z, s.s, s.lc) == (1, 0, 0.0, 0.0, 0.0, 1)
    assert s.r is None


def test_density_and_degree_round_like_reported_tables():
    # a snapshot with 1270 nodes and 3519 edges prints d=0.004, z=5.542
    n, m = 1270, 3519
    d = 2 * m / (n * (n - 1))
    z = 2 * m / n
    assert f"{d:.3f}" == "0.004"
    assert f"{z:.3f}" == "5.542"


def test_summarize_lc_on_disconnected_graph():
    g = WeightedGraph.from_edges([("a", "b", 1), ("b", "c", 1), ("x", "y", 1)])
    assert summarize(g).lc == 3


# --- weighted clustering ------------------------------------------------------


def test_clustering_unit_triangle(unit_triangle):
    assert weighted_clustering(unit_triangle, "a") == 1.0


def test_clustering_weighted_triangle_stays_one(weighted_triangle):
    # every neighbor pair closes, so the coefficient is 1 at any weights
    for v in ("v", "j", "h"):
        assert weighted_clustering(weighted_triangle, v) == pytest.approx(1.0)


def test_clustering_degree_below_two_is_zero(path3, star4):
    assert weighted_clustering(path3, "a") == 0.0
    assert weighted_clustering(star4, "l1") == 0.0
    assert weighted_clustering(star4, "h") == 0.0  # no closed pairs


def test_clustering_open_pair_partial():
    # v has neighbors j, h with only the j-h side of one pair closed,
    # plus an open neighbor u: cw = (w_vj + w_vh) / (s_v * (k_v - 1))
    g = WeightedGraph.from_edges(
        [("v", "j", 2), ("v", "h", 3), ("v", "u", 5), ("j", "h", 7)]
    )
    expected = (2 + 3) / (10 * 2)
    assert weighted_clustering(g, "v") == pytest.approx(expected)
    assert weighted_clustering(g, "v") == pytest.approx(
        oracles.clustering_barrat(g, "v")
    )


def test_clustering_matches_ordered_pair_oracle():
    # int / int and float(Fraction) both round the same rational correctly
    rng = random.Random(41)
    degrees = set()
    for _ in range(60):
        g = oracles.random_graph(rng)
        degrees.update(g.degree(v) for v in g.labels())
        for v in g.labels():
            assert weighted_clustering(g, v) == oracles.clustering_barrat(g, v)
        assert average_clustering(g, weighted=False) == sum(
            oracles.clustering_unweighted(g, v) for v in g.labels()
        ) / g.n
    assert {0, 1} <= degrees  # isolated and degree-1 nodes were covered


def _fresh(g: WeightedGraph) -> WeightedGraph:
    """The same graph, node order included, with no closed-pair table yet."""
    return WeightedGraph(
        g.labels(), [dict(nbrs) for nbrs in g.adjacency()], map(g.freq, g.labels())
    )


def test_clustering_is_the_same_in_every_call_order():
    # whichever call builds the closed-pair table, every later call reads
    # the same counts: each value matches the call on a graph of its own
    calls = {
        "profile": profile_nodes,
        "node": lambda g: weighted_clustering(g, g.labels()[-1]),
        "summarize": summarize,
        "weighted": lambda g: average_clustering(g, weighted=True),
        "unweighted": lambda g: average_clustering(g, weighted=False),
    }
    names = list(calls)
    rng = random.Random(41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # undefined assortativity
        for _ in range(60):
            g = oracles.random_graph(rng)
            alone = {name: repr(call(_fresh(g))) for name, call in calls.items()}
            barrat = [oracles.clustering_barrat(g, v) for v in g.labels()]
            unweighted = [oracles.clustering_unweighted(g, v) for v in g.labels()]
            for first in range(len(names)):
                shared = _fresh(g)
                order = names[first:] + names[:first]
                assert {name: repr(calls[name](shared)) for name in order} == alone
                profiles, _ = profile_nodes(shared)
                for p in profiles:
                    assert p.clustering_w == barrat[g.index_of(p.node)]
                assert weighted_clustering(shared, g.labels()[-1]) == barrat[-1]
                mean = sum(barrat) / g.n
                assert summarize(shared).c == average_clustering(shared) == mean
                assert average_clustering(shared, weighted=False) == sum(unweighted) / g.n


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_macro_stage_walks_each_slice_graph_once(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(trends, "_workers", lambda: workers)
    # either process appends a line per walk, so a forked slice worker's
    # walks are counted too; built keeps each walked graph alive, so no id
    # is reused within a process
    walks = tmp_path / "walks.txt"
    built = []
    walk = WeightedGraph.closed_pairs.func

    def counting(g):
        built.append(g)
        with walks.open("a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {id(g)}\n")
        return walk(g)

    table = functools.cached_property(counting)
    table.__set_name__(WeightedGraph, "closed_pairs")
    monkeypatch.setattr(WeightedGraph, "closed_pairs", table)
    result = run_pipeline(
        load_config(DATA / "config.json"), out_dir=tmp_path / "out", only={"macro"}
    )
    lines = walks.read_text("utf-8").splitlines()
    assert len(lines) == len(result["slices"]) == 6
    assert len(set(lines)) == len(lines)


def test_clustering_unit_weights_equal_unweighted():
    rng = random.Random(42)
    for _ in range(40):
        g = oracles.random_graph(rng, max_weight=1)
        for v in g.labels():
            assert weighted_clustering(g, v) == oracles.clustering_unweighted(g, v)
        assert average_clustering(g, weighted=True) == average_clustering(
            g, weighted=False
        )


def test_clustering_bounded():
    rng = random.Random(43)
    for _ in range(40):
        g = oracles.random_graph(rng)
        for v in g.labels():
            assert 0.0 <= weighted_clustering(g, v) <= 1.0 + 1e-12


# --- weighted nearest-neighbor degree ---------------------------------------------


def test_annd_star_fixture(star4):
    # leaves see only the hub (degree 3); the hub sees only leaves (degree 1)
    assert weighted_annd(star4, "l1") == pytest.approx(3.0)
    assert weighted_annd(star4, "h") == pytest.approx(1.0)
    assert weighted_annd_ratio(star4, "l1") == pytest.approx(3.0)
    assert weighted_annd_ratio(star4, "h") == pytest.approx(1 / 3)


def test_annd_weights_shift_the_average():
    g = WeightedGraph.from_edges(
        [("v", "hub", 9), ("v", "leaf", 1), ("hub", "x", 1), ("hub", "y", 1)]
    )
    # hub degree 3, leaf degree 1: (9*3 + 1*1) / 10
    assert weighted_annd(g, "v") == pytest.approx(2.8)


def test_annd_isolated_node_is_an_error():
    g = WeightedGraph.from_edges([("a", "b", 1)], isolated=["z"])
    with pytest.raises(GraphError):
        weighted_annd(g, "z")


def test_annd_matches_oracle():
    rng = random.Random(44)
    for _ in range(60):
        g = oracles.random_graph(rng)
        for v in g.labels():
            if g.degree(v) == 0:
                continue
            assert weighted_annd(g, v) == pytest.approx(
                oracles.annd(g, v), abs=1e-12
            )


# --- assortativity ---------------------------------------------------------------


def test_assortativity_star_is_minus_one(star4):
    assert assortativity(star4) == pytest.approx(-1.0)


def test_assortativity_regular_graph_is_undefined(cycle4):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert assortativity(cycle4) is None
    assert any("constant" in str(w.message) for w in caught)


def test_assortativity_no_edges_is_undefined():
    g = WeightedGraph.from_edges([], isolated=["a", "b"])
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        assert assortativity(g) is None


def test_assortativity_matches_pearson_oracle():
    rng = random.Random(45)
    checked = 0
    for _ in range(80):
        g = oracles.random_graph(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ours = assortativity(g)
        theirs = oracles.degree_pearson(g)
        if ours is None or theirs is None:
            assert ours is None and theirs is None
            continue
        assert ours == pytest.approx(theirs, abs=1e-9)
        checked += 1
    assert checked > 20  # the sweep must actually exercise defined cases


def test_assortativity_bounded():
    rng = random.Random(46)
    for _ in range(40):
        g = oracles.random_graph(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = assortativity(g)
        if r is not None:
            assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


# --- node profiles ------------------------------------------------------------------


def test_profile_nodes_orders_and_bins(two_triangles):
    profiles, bins = profile_nodes(two_triangles)
    assert [p.node for p in profiles] == list(two_triangles.labels())
    for p in profiles:
        assert p.degree == two_triangles.degree(p.node)
        assert p.clustering_w == pytest.approx(
            weighted_clustering(two_triangles, p.node)
        )
        assert p.knn_ratio == pytest.approx(p.knn_w / p.degree)
    degrees = [b.degree for b in bins]
    assert degrees == sorted(set(degrees))
    by_degree = {b.degree: b for b in bins}
    exp = np.mean(
        [p.clustering_w for p in profiles if p.degree == 2]
    )
    assert by_degree[2].mean_clustering_w == pytest.approx(float(exp))


def test_profile_nodes_skips_isolated_nodes():
    g = WeightedGraph.from_edges([("a", "b", 1)], isolated=["z"])
    profiles, bins = profile_nodes(g)
    assert [p.node for p in profiles] == ["a", "b"]
    assert 0 not in {b.degree for b in bins}


# --- ccdf ------------------------------------------------------------------------------


def test_ccdf_fixture():
    assert ccdf([1, 1, 2]) == [(1.0, 1.0), (2.0, pytest.approx(1 / 3))]


def test_ccdf_properties():
    rng = random.Random(47)
    values = [rng.randint(1, 20) for _ in range(500)]
    rows = ccdf(values)
    assert rows[0][1] == 1.0
    xs = [x for x, _ in rows]
    ps = [p for _, p in rows]
    assert xs == sorted(set(float(v) for v in values))
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    for x, p in rows:
        assert p == pytest.approx(sum(v >= x for v in values) / len(values))


def test_ccdf_empty_is_an_error():
    with pytest.raises(FitError):
        ccdf([])


def _ccdf_numpy(values) -> list[tuple[float, float]]:
    """The numpy form of ``ccdf``: first indices from ``np.unique``."""
    data = np.asarray(sorted(values), dtype=float)
    xs, first = np.unique(data, return_index=True)
    probs = (data.size - first) / data.size
    return [(float(x), float(p)) for x, p in zip(xs, probs)]


def test_ccdf_matches_numpy_reference_bit_for_bit():
    rng = random.Random(61)
    inputs = [
        [7],
        [2.5],
        [3, 3, 3],
        [1, 1.0, 2],
        [0.1, 0.2, 0.30000000000000004, 0.3],
        [2**53, 2**53 + 1, 5],  # distinct ints that round to one float
    ]
    for _ in range(900):
        n = rng.randint(1, 300)
        kind = rng.randrange(4)
        if kind == 0:  # int strengths, many ties
            values = [rng.randint(1, 40) for _ in range(n)]
        elif kind == 1:  # floats with ties
            values = [round(rng.uniform(0, 10), 1) for _ in range(n)]
        elif kind == 2:
            values = [rng.uniform(0, 1e6) for _ in range(n)]
        else:
            values = [rng.paretovariate(1.5) for _ in range(n)]
        inputs.append(values)
    for values in inputs:
        assert repr(ccdf(values)) == repr(_ccdf_numpy(values))


# --- power-law fitting ----------------------------------------------------------------


def _ks_bruteforce(tail: list[float], alpha: float, xmin: float) -> float:
    tail = sorted(tail)
    n = len(tail)
    worst = 0.0
    for k, x in enumerate(tail):
        model = 1.0 - (x / xmin) ** (1.0 - alpha)
        worst = max(worst, abs((k + 1) / n - model), abs(k / n - model))
    return worst


def _fit_bruteforce(values: list[float], min_tail: int = 10):
    xs = sorted(values)
    best = None
    for xmin in sorted(set(xs)):
        tail = [x for x in xs if x >= xmin]
        if len(tail) < min_tail:
            continue
        spread = sum(math.log(x / xmin) for x in tail)
        if spread <= 0:
            continue
        alpha = 1.0 + len(tail) / spread
        ks = _ks_bruteforce(tail, alpha, xmin)
        if best is None or ks < best[0] - 1e-15:
            best = (ks, xmin, alpha, len(tail))
    return best


def test_fit_matches_bruteforce_scan():
    rng = random.Random(48)
    for _ in range(10):
        values = oracles.powerlaw_sample(rng, 2.4, 1.0, 120)
        fit = fit_power_law(values)
        ks, xmin, alpha, n_tail = _fit_bruteforce(values)
        assert fit.xmin == pytest.approx(xmin)
        assert fit.alpha == pytest.approx(alpha, abs=1e-9)
        assert fit.ks_stat == pytest.approx(ks, abs=1e-12)
        assert fit.n_tail == n_tail


def test_fit_recovers_planted_exponent():
    rng = random.Random(49)
    values = oracles.powerlaw_sample(rng, 2.5, 1.0, 10_000)
    fit = fit_power_law(values)
    assert abs(fit.alpha - 2.5) < 0.1
    assert fit.n_tail >= 10


def test_fit_pure_sample_prefers_small_xmin():
    # with no noise floor the scan should keep essentially the whole tail
    rng = random.Random(50)
    values = oracles.powerlaw_sample(rng, 3.0, 2.0, 4000)
    fit = fit_power_law(values)
    assert fit.n_tail > 1000


def test_fit_errors():
    for discrete in (False, True):
        with pytest.raises(FitError, match="at least"):
            fit_power_law([1.0] * 9, discrete=discrete)
        with pytest.raises(FitError, match="positive"):
            fit_power_law([0.0] + [1.0] * 19, discrete=discrete)
        with pytest.raises(FitError, match="insufficient tail"):
            fit_power_law([5.0] * 50, discrete=discrete)  # no log spread at any cutoff


def test_fit_discrete_recovers_exponent():
    from scipy.stats import zipf

    seed = np.random.default_rng(51)
    values = zipf.rvs(2.5, size=3000, random_state=seed).tolist()
    fit = fit_power_law(values, discrete=True)
    assert abs(fit.alpha - 2.5) < 0.15
    assert fit.xmin >= 1.0


def test_fit_discrete_matches_bruteforce_scan():
    from scipy.stats import zipf

    seed = np.random.default_rng(52)
    for k in range(20):
        # a shifted sample has a bent head, so the best cutoff is not always 1
        values = zipf.rvs(
            1.8 + 0.06 * k, loc=k % 3, size=200, random_state=seed
        ).tolist()
        fit = fit_power_law(values, discrete=True)
        ks, xmin, alpha, n_tail = oracles.fit_discrete_bruteforce(values)
        assert (fit.xmin, fit.n_tail) == (xmin, n_tail)
        assert fit.alpha == pytest.approx(alpha, rel=0, abs=1e-9)
        assert fit.ks_stat == pytest.approx(ks, rel=0, abs=1e-9)


def _discrete_tail_per_value(tail, n_tail, log_sum):
    """The discrete tail fit with one Python loop per distinct value."""
    from scipy.optimize import minimize_scalar
    from scipy.special import zeta

    xmin = int(tail[0])

    def nll(alpha):
        return n_tail * math.log(zeta(alpha, xmin)) + alpha * log_sum

    alpha = float(minimize_scalar(nll, bounds=(1.0001, 20.0), method="bounded").x)
    distinct = np.unique(tail)
    z0 = zeta(alpha, xmin)
    model_ge = np.array([zeta(alpha, x) for x in distinct]) / z0
    model_gt = np.array([zeta(alpha, x + 1) for x in distinct]) / z0
    emp_ge = np.array([(tail >= x).sum() for x in distinct]) / n_tail
    emp_gt = np.array([(tail > x).sum() for x in distinct]) / n_tail
    ks = float(np.max(np.maximum(np.abs(emp_ge - model_ge), np.abs(emp_gt - model_gt))))
    return alpha, ks


def test_discrete_tail_matches_the_per_value_loops_bit_for_bit():
    from scipy.stats import zipf

    from kcn.structure import _discrete_tail

    rng = np.random.default_rng(53)
    for k in range(200):
        # zipf tails with many ties, shifted so the cutoff is not always 1
        values = zipf.rvs(1.6 + 0.01 * k, loc=k % 7, size=10 + 3 * k, random_state=rng)
        tail = np.sort(values.astype(int))
        if tail[-1] == tail[0]:
            continue
        n_tail = np.int64(tail.size)
        log_sum = float(np.log(tail.astype(float)).sum())
        fit = _discrete_tail(tail, n_tail, log_sum, math.log(tail[0]))
        alpha, ks = _discrete_tail_per_value(tail, n_tail, log_sum)
        assert (repr(fit.alpha), repr(fit.ks_stat)) == (repr(alpha), repr(ks)), k


def test_fit_discrete_rejects_non_integers():
    with pytest.raises(FitError, match="integer"):
        fit_power_law([1.5] * 20, discrete=True)
