from __future__ import annotations

import hashlib
import heapq
import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kcn import cli, communities
from kcn.communities import (
    cluster_profiles,
    fast_greedy,
    in_group_degree,
    modularity,
    name_clusters,
)
from kcn.errors import GraphError
from kcn.graph import WeightedGraph

import oracles
from conftest import DATA

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# --- modularity ----------------------------------------------------------------


def test_modularity_two_triangles_exact(two_triangles):
    assignment = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
    q = modularity(two_triangles, assignment)
    assert q == 5 / 14  # bit-equal, not just approximately
    assert q == oracles.modularity_bruteforce(two_triangles, assignment)


def test_modularity_reference_values(unit_triangle):
    singletons = {"a": 0, "b": 1, "c": 2}
    assert modularity(unit_triangle, singletons) == -(1 / 3)
    together = {"a": 0, "b": 0, "c": 0}
    assert modularity(unit_triangle, together) == 0.0


def test_modularity_empty_graph_is_zero():
    g = WeightedGraph.from_edges([], isolated=["a", "b"])
    assert modularity(g, {"a": 0, "b": 1}) == 0.0


def test_modularity_requires_full_assignment(unit_triangle):
    with pytest.raises(GraphError, match="missing"):
        modularity(unit_triangle, {"a": 0, "b": 0})


def test_modularity_matches_bruteforce_on_random_graphs():
    rng = random.Random(60)
    for _ in range(60):
        g = oracles.random_graph(rng)
        assignment = {v: rng.randrange(3) for v in g.labels()}
        assert modularity(g, assignment) == pytest.approx(
            oracles.modularity_bruteforce(g, assignment), abs=1e-15
        )


def test_modularity_is_correctly_rounded_past_float_precision():
    # 4W^2 is past 2^53, where dividing the rounded floats of the numerator
    # and the denominator gives a different last bit
    g = WeightedGraph.from_edges(
        [("a", "b", 484452587), ("b", "c", 726401695),
         ("c", "d", 334551094), ("a", "c", 541903390)]
    )
    assignment = {"a": 0, "b": 0, "c": 1, "d": 1}
    w = g.total_weight
    s0 = g.strength("a") + g.strength("b")
    s1 = g.strength("c") + g.strength("d")
    numerator = 4 * w * (484452587 + 334551094) - s0 * s0 - s1 * s1
    denominator = 4 * w * w
    assert denominator > 2**53
    assert float(numerator) / float(denominator) != float(Fraction(numerator, denominator))
    assert modularity(g, assignment) == float(Fraction(numerator, denominator))
    assert modularity(g, assignment) == oracles.modularity_bruteforce(g, assignment)


def test_modularity_weights_matter():
    # heavier intra-cluster edges raise Q for the same topology
    light = WeightedGraph.from_edges(
        [("a", "b", 1), ("c", "d", 1), ("b", "c", 1)]
    )
    heavy = WeightedGraph.from_edges(
        [("a", "b", 5), ("c", "d", 5), ("b", "c", 1)]
    )
    assignment = {"a": 0, "b": 0, "c": 1, "d": 1}
    assert modularity(heavy, assignment) > modularity(light, assignment)


# --- greedy agglomeration ----------------------------------------------------------


def test_fast_greedy_two_triangles(two_triangles):
    part = fast_greedy(two_triangles)
    assert part.assignment == {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
    assert part.modularity == 5 / 14
    assert len(part.merge_trace) == two_triangles.n - 1


def test_fast_greedy_trace_is_exactly_replayable(two_triangles):
    part = fast_greedy(two_triangles)
    labels = two_triangles.labels()
    parent = list(range(len(labels)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in part.merge_trace:
        assert step.a < step.b
        assert find(step.a) == step.a, "merge names a dead cluster"
        assert find(step.b) == step.b
        parent[step.b] = step.a
        assignment = {v: find(i) for i, v in enumerate(labels)}
        assert step.q_after == pytest.approx(
            oracles.modularity_bruteforce(two_triangles, assignment), abs=1e-12
        )


def test_fast_greedy_trace_replay_on_random_graphs():
    rng = random.Random(61)
    for _ in range(25):
        g = oracles.random_connected_graph(rng)
        part = fast_greedy(g)
        assert len(part.merge_trace) == g.n - 1
        parent = list(range(g.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        best_q = oracles.modularity_bruteforce(
            g, {v: i for i, v in enumerate(g.labels())}
        )
        for step in part.merge_trace:
            parent[step.b] = step.a
            assignment = {v: find(i) for i, v in enumerate(g.labels())}
            q = oracles.modularity_bruteforce(g, assignment)
            assert step.q_after == pytest.approx(q, abs=1e-9)
            best_q = max(best_q, q)
        # the returned cut is the best prefix of its own trace
        assert part.modularity == pytest.approx(best_q, abs=1e-9)


def test_fast_greedy_ignores_the_insertion_order_of_adjacency_rows():
    # unit weights tie many gains, so the id-pair rule alone orders those merges
    rng = random.Random(64)
    reordered = 0
    for _ in range(60):
        g = oracles.random_connected_graph(rng, n_max=16, max_weight=1)
        rows = [list(row.items()) for row in g.adjacency()]
        for row in rows:
            rng.shuffle(row)
        reordered += any(
            list(row) != [j for j, _ in items] for row, items in zip(g.adjacency(), rows)
        )
        freq = [g.freq(v) for v in g.labels()]
        shuffled = WeightedGraph(g.labels(), [dict(items) for items in rows], freq)
        want, got = fast_greedy(g), fast_greedy(shuffled)
        assert [
            (s.a, s.b, repr(s.delta_q), repr(s.q_after)) for s in got.merge_trace
        ] == [(s.a, s.b, repr(s.delta_q), repr(s.q_after)) for s in want.merge_trace]
        assert got.assignment == want.assignment
        assert repr(got.modularity) == repr(want.modularity)
        assert in_group_degree(shuffled, got) == in_group_degree(g, want)
    assert reordered >= 50


def test_fast_greedy_reaches_exhaustive_optimum_on_small_graphs():
    rng = random.Random(62)
    hits = 0
    for _ in range(12):
        g = oracles.random_connected_graph(rng, n_max=6)
        part = fast_greedy(g)
        best = oracles.best_modularity_exhaustive(g)
        assert part.modularity <= best + 1e-12
        if part.modularity >= best - 1e-9:
            hits += 1
    assert hits >= 9  # greedy is near-optimal on graphs this small


def test_fast_greedy_cluster_ids_are_dense_and_size_ordered():
    rng = random.Random(63)
    for _ in range(20):
        g = oracles.random_connected_graph(rng)
        part = fast_greedy(g)
        ids = sorted(set(part.assignment.values()))
        assert ids == list(range(len(ids)))
        sizes = [len(m) for _, m in sorted(part.clusters().items())]
        assert sizes == sorted(sizes, reverse=True)


def test_fast_greedy_never_crosses_components():
    g = WeightedGraph.from_edges(
        [("a", "b", 1), ("b", "c", 1), ("x", "y", 2), ("y", "z", 2)]
    )
    part = fast_greedy(g)
    for members in part.clusters().values():
        sides = {m in ("a", "b", "c") for m in members}
        assert len(sides) == 1


def test_fast_greedy_singleton_and_edgeless_graphs():
    lone = WeightedGraph.from_edges([], isolated=["only"])
    part = fast_greedy(lone)
    assert part.assignment == {"only": 0}
    assert part.modularity == 0.0
    empty = WeightedGraph.from_edges([], isolated=["a", "b"])
    part = fast_greedy(empty)
    assert sorted(part.assignment) == ["a", "b"]
    assert part.modularity == 0.0
    with pytest.raises(GraphError):
        fast_greedy(WeightedGraph([], [], []))


def test_fast_greedy_recovers_planted_blocks():
    rng = random.Random(64)
    recovered = 0
    for _ in range(8):
        g, truth = oracles.planted_two_block(rng)
        part = fast_greedy(g)
        clusters = part.clusters().values()
        if len(clusters) == 2 and all(
            len({truth[v] for v in members}) == 1 for members in clusters
        ):
            recovered += 1
    assert recovered >= 6


def test_fast_greedy_deterministic(two_triangles):
    a = fast_greedy(two_triangles)
    b = fast_greedy(two_triangles)
    assert a.assignment == b.assignment
    assert a.merge_trace == b.merge_trace


def _always(size, live):
    return True


def _never(size, live):
    return False


@pytest.mark.parametrize("stale", [communities._heap_is_stale, _always, _never])
def test_fast_greedy_stale_and_live_entries_tied_on_gain(monkeypatch, stale):
    # three disjoint unit triangles: after (0, 1) merges, the stale entries
    # of (0, 2) and (1, 2) tie bit for bit with the live (3, 4) and (6, 7)
    monkeypatch.setattr(communities, "_heap_is_stale", stale)
    g = WeightedGraph.from_edges(
        [(f"{t}{x}", f"{t}{y}", 1) for t in "abc" for x, y in ("01", "02", "12")]
    )
    assert g.labels() == ("a0", "a1", "a2", "b0", "b1", "b2", "c0", "c1", "c2")
    trace = fast_greedy(g).merge_trace
    assert [(s.a, s.b) for s in trace] == [(0, 1), (0, 2), (3, 4), (3, 5), (6, 7), (6, 8)]
    g0 = 2.0 * (1 / 18 - (2 / 18) * (2 / 18))
    assert [s.delta_q for s in trace] == [g0, g0 + g0] * 3


def test_fast_greedy_trace_matches_rebuild_after_every_merge(monkeypatch):
    lives: list[int] = []  # the live-pair count at each rebuild
    pairs: list[int] = []  # the pairs left in dq at each heap build
    pair_heap, default = communities._pair_heap, communities._heap_is_stale

    def counted_pair_heap(dq):
        pairs.append(sum(x < k for x, row in dq.items() for k in row))
        return pair_heap(dq)

    def recorded(rule):
        def stale(size, live):
            due = rule(size, live)
            if due:
                lives.append(live)
            return due

        return stale

    monkeypatch.setattr(communities, "_pair_heap", counted_pair_heap)
    rng = random.Random(65)
    rebuilt = 0
    for _ in range(60):
        g = oracles.random_graph(rng, n_max=90, p=rng.uniform(0.05, 0.6), max_weight=10)
        runs = []
        for rule in (default, _always):
            monkeypatch.setattr(communities, "_heap_is_stale", recorded(rule))
            del lives[:], pairs[:]
            runs.append((fast_greedy(g), len(lives)))
            # the first build, then one per rebuild, each with live == pairs
            assert pairs[1:] == lives
        (lazy, lazy_rebuilds), (eager, eager_rebuilds) = runs
        assert eager_rebuilds == len(eager.merge_trace)  # one after every merge
        assert repr(lazy) == repr(eager)
        rebuilt += lazy_rebuilds
    assert rebuilt > 0  # the default rule compacts on the larger graphs


def _hex_trace(part):
    return [(s.a, s.b, s.delta_q.hex(), s.q_after.hex()) for s in part.merge_trace]


def _full_scan_hex_trace(g):
    return [(a, b, d.hex(), q.hex()) for a, b, d, q in oracles.cnm_full_scan(g)]


@pytest.mark.parametrize("stale", [communities._heap_is_stale, _always, _never])
def test_fast_greedy_trace_matches_the_full_scan_oracle(monkeypatch, stale):
    # weights of at most 3 tie many gains, so the id-pair rule decides often
    monkeypatch.setattr(communities, "_heap_is_stale", stale)
    rng = random.Random(66)
    for _ in range(200):
        g = oracles.random_graph(
            rng, n_max=rng.choice((6, 12, 30)), p=rng.uniform(0.1, 0.7),
            max_weight=rng.randint(1, 3),
        )
        assert _hex_trace(fast_greedy(g)) == _full_scan_hex_trace(g)


class _LoggedHeapq:
    """The ``heapq`` module, logging each push and pop."""

    def __init__(self):
        self.log = []

    def heappush(self, heap, item):
        self.log.append(("push", item))
        heapq.heappush(heap, item)

    def heappop(self, heap):
        item = heapq.heappop(heap)
        self.log.append(("pop", item))
        return item

    def __getattr__(self, name):
        return getattr(heapq, name)


def test_fast_greedy_pushes_a_pair_whose_gain_rises(monkeypatch, unit_triangle):
    # merging (0, 1) raises the gain of (0, 2), which is merged next; its
    # first entry is then below its gain and is dropped
    logged = _LoggedHeapq()
    monkeypatch.setattr(communities, "heapq", logged)
    part = fast_greedy(unit_triangle)
    g0 = 2.0 * (1 / 6.0 - (2 / 6.0) * (2 / 6.0))
    assert [(s.a, s.b, s.delta_q) for s in part.merge_trace] == [(0, 1, g0), (0, 2, g0 + g0)]
    assert [item for op, item in logged.log if op == "push"] == [(-(g0 + g0), 0, 2)]
    assert _hex_trace(part) == _full_scan_hex_trace(unit_triangle)


def test_fast_greedy_pushes_back_a_lowered_entry_that_wins_later(monkeypatch):
    # on the path n0 -1- n1 -2- n2, merging (1, 2) lowers the gain of (0, 1);
    # its entry is popped above that gain, pushed back at it and then wins
    logged = _LoggedHeapq()
    monkeypatch.setattr(communities, "heapq", logged)
    g = WeightedGraph.from_edges([("n0", "n1", 1), ("n1", "n2", 2)])
    part = fast_greedy(g)
    a0, a1, a2 = 1 / 6.0, 3 / 6.0, 2 / 6.0
    g01, g12 = 2.0 * (1 / 6.0 - a0 * a1), 2.0 * (2 / 6.0 - a1 * a2)
    low = g01 - 2.0 * a2 * a0
    assert low < g01
    assert logged.log == [
        ("pop", (-g12, 1, 2)),
        ("pop", (-g01, 0, 1)),
        ("push", (-low, 0, 1)),
        ("pop", (-low, 0, 1)),
    ]
    assert [(s.a, s.b, s.delta_q) for s in part.merge_trace] == [(1, 2, g12), (0, 1, low)]
    assert _hex_trace(part) == _full_scan_hex_trace(g)


def test_meso_files_match_their_recorded_sha256(tmp_path):
    # CNM uses only + - * /, so these bytes are the same on every CPU and OS;
    # the hashes were recorded from the meso_vocab benchmark inputs
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    recorded = json.loads((DATA / "meso_sha256.json").read_text("utf-8"))
    for seed, hashes in recorded.items():
        config = workloads.write_inputs(
            workloads.WORKLOADS["meso_vocab"], int(seed), tmp_path / seed
        )
        out = tmp_path / seed / "bundle"
        assert cli.main(["run", "--config", str(config), "--out", str(out), "--only", "meso"]) == 0
        written = {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*")
            if p.name.split("_")[0] in ("clusters", "membership", "dendrogram")
        }
        assert written == hashes, seed


# --- naming and profiles ----------------------------------------------------------


def test_in_group_degree(two_triangles):
    part = fast_greedy(two_triangles)
    ingroup = in_group_degree(two_triangles, part)
    # within its triangle every node touches two unit edges
    assert ingroup == {v: 2 for v in "abcdef"}


def test_name_clusters_tie_breaks():
    # a-b have equal in-group degree; freq decides, then the label
    g = WeightedGraph.from_edges(
        [("b", "a", 3)], freq={"a": 1, "b": 5}
    )
    names = name_clusters(g, fast_greedy(g))
    assert set(names.values()) == {"b"}

    g2 = WeightedGraph.from_edges([("b", "a", 3)], freq={"a": 2, "b": 2})
    names2 = name_clusters(g2, fast_greedy(g2))
    assert set(names2.values()) == {"a"}


def test_cluster_profiles_top1_is_the_name(two_triangles):
    part = fast_greedy(two_triangles)
    profiles = cluster_profiles(two_triangles, part, k=2)
    assert len(profiles) == 2
    for profile in profiles:
        assert profile.top[0][0] == profile.name
        assert len(profile.top) == 2
        assert profile.size == 3
    # equal sizes: order falls back to the smallest member label
    assert profiles[0].top[0][0] < profiles[1].top[0][0]


def test_cluster_profiles_truncate_and_rank():
    g = WeightedGraph.from_edges(
        [("hub", "x", 5), ("hub", "y", 3), ("x", "y", 1), ("hub", "z", 1)]
    )
    part = fast_greedy(g)
    if len(part.clusters()) == 1:
        profiles = cluster_profiles(g, part, k=3)
        ranked = [v for v, _ in profiles[0].top]
        assert ranked[0] == "hub"
        assert len(ranked) == 3


def test_cluster_profiles_random_consistency():
    rng = random.Random(65)
    for _ in range(15):
        g = oracles.random_connected_graph(rng)
        part = fast_greedy(g)
        profiles = cluster_profiles(g, part, k=4)
        assert sum(p.size for p in profiles) == g.n
        ingroup = in_group_degree(g, part)
        for p in profiles:
            assert p.top[0][0] == p.name
            values = [val for _, val in p.top]
            assert values == sorted(values, reverse=True)
            for v, val in p.top:
                assert val == ingroup[v]
