from __future__ import annotations

import errno
import math
import os
import random
import threading
import time
from itertools import combinations

import pytest

from kcn import pipeline, trends
from kcn.corpus import ArticleRecord, Corpus
from kcn.errors import GraphError, KcnError
from kcn.graph import WeightedGraph
from kcn.trends import (
    CentralityTable,
    detect_emerging,
    ego_network,
    frequency_table,
    top_k_table,
    weighted_betweenness,
)

import oracles

# --- betweenness ---------------------------------------------------------------


def test_betweenness_path(path3):
    assert weighted_betweenness(path3) == {"a": 0.0, "b": 1.0, "c": 0.0}


def test_betweenness_cycle(cycle4):
    # opposite corners have two equal geodesics; each interior gets 1/2
    bc = weighted_betweenness(cycle4)
    assert bc == {v: pytest.approx(0.5) for v in "abcd"}


def test_betweenness_star(star4):
    bc = weighted_betweenness(star4)
    assert bc["h"] == pytest.approx(3.0)  # one per leaf pair
    assert bc["l1"] == 0.0


def test_betweenness_weights_redirect_paths():
    # distance is 1/weight: the heavy two-hop route beats the light direct edge
    g = WeightedGraph.from_edges([("a", "b", 4), ("b", "c", 4), ("a", "c", 1)])
    bc = weighted_betweenness(g)
    assert bc["b"] == pytest.approx(1.0)

    # equal lengths (1/4 + 1/4 vs 1/2) split the dependency evenly
    g2 = WeightedGraph.from_edges([("a", "b", 4), ("b", "c", 4), ("a", "c", 2)])
    assert weighted_betweenness(g2)["b"] == pytest.approx(0.5)


def test_betweenness_exact_tie_between_parallel_routes():
    # two disjoint 2-hop routes of identical length: 1/2 each
    g = WeightedGraph.from_edges(
        [("a", "b", 3), ("b", "c", 3), ("a", "d", 3), ("d", "c", 3)]
    )
    bc = weighted_betweenness(g)
    assert bc["b"] == pytest.approx(0.5)
    assert bc["d"] == pytest.approx(0.5)


def test_betweenness_tie_exact_only_in_rationals():
    # both s-t routes have length 3/10 (1/10 + 1/5 and 1/4 + 1/20), but in
    # floats 0.1 + 0.2 != 0.25 + 0.05, so float distances would pick one
    assert 1 / 10 + 1 / 5 != 1 / 4 + 1 / 20
    g = WeightedGraph.from_edges(
        [("s", "a", 10), ("a", "t", 5), ("s", "b", 4), ("b", "t", 20)]
    )
    bc = weighted_betweenness(g)
    exact = oracles.betweenness_exhaustive(g)
    assert exact == {"s": 0.0, "a": 0.5, "t": 1.0, "b": 0.5}
    assert bc == pytest.approx(exact, abs=1e-12)


def test_betweenness_disconnected_components_scored_independently(path3):
    g = WeightedGraph.from_edges(
        [("a", "b", 1), ("b", "c", 1), ("x", "y", 1), ("y", "z", 1)],
        isolated=["lone"],
    )
    bc = weighted_betweenness(g)
    assert bc["b"] == pytest.approx(1.0)
    assert bc["y"] == pytest.approx(1.0)
    assert bc["lone"] == 0.0


def test_betweenness_matches_exhaustive_enumeration():
    rng = random.Random(70)
    for _ in range(40):
        g = oracles.random_graph(rng)
        ours = weighted_betweenness(g)
        exact = oracles.betweenness_exhaustive(g)
        for v in g.labels():
            assert ours[v] == pytest.approx(exact[v], abs=1e-9), (
                g.edges(), v,
            )


def test_betweenness_unit_weights_match_hop_counts():
    # on unit weights the weighted scores equal plain shortest-path counts
    rng = random.Random(71)
    for _ in range(20):
        g = oracles.random_graph(rng, max_weight=1)
        ours = weighted_betweenness(g)
        exact = oracles.betweenness_exhaustive(g)
        for v in g.labels():
            assert ours[v] == pytest.approx(exact[v], abs=1e-9)


def test_betweenness_matches_networkx():
    nx = pytest.importorskip("networkx")
    # networkx sums float distances and misses ties that only hold in
    # exact terms; with power-of-two weights every 1/w and every path
    # length here is exact in floats, so both see the same ties
    rng = random.Random(75)
    for _ in range(6):
        n = rng.randint(30, 80)
        labels = [f"k{i}" for i in range(n)]
        edges = [
            (labels[i], labels[j], rng.choice((1, 2, 4, 8, 16)))
            for i, j in combinations(range(n), 2)
            if rng.random() < 4 / n
        ]
        used = {v for e in edges for v in e[:2]}
        g = WeightedGraph.from_edges(edges, isolated=[v for v in labels if v not in used])
        ref_graph = nx.Graph()
        ref_graph.add_nodes_from(labels)
        ref_graph.add_weighted_edges_from(
            ((u, v, 1 / w) for u, v, w in edges), weight="dist"
        )
        ref = nx.betweenness_centrality(ref_graph, weight="dist", normalized=False)
        assert weighted_betweenness(g) == pytest.approx(ref, abs=1e-9)


# --- one int per heap entry ----------------------------------------------------

# primes up to 97; their product, the lcm of a graph using each, is 120 bits
PRIMES = [p for p in range(2, 98) if all(p % d for d in range(2, p))]
# n = 1 and 2, and each power of two with the size one above it: the sizes
# at which the node bits of a heap key grow
SIZES = [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]


def _graph(rng: random.Random, n: int, weights: list[int]) -> WeightedGraph:
    """A random connected graph on v0..v{n-1}, node indices in label order."""
    labels = [f"v{i}" for i in range(n)]
    pairs = [(i - 1, i) for i in range(1, n)]  # a path first fixes the indices
    pairs += [
        (i, j) for i, j in combinations(range(n), 2)
        if j > i + 1 and rng.random() < 3 / n
    ]
    edges = [(labels[i], labels[j], rng.choice(weights)) for i, j in pairs]
    return WeightedGraph.from_edges(edges, isolated=labels)


def _cycle(n: int) -> WeightedGraph:
    # unit weights: from any source, the two nodes halfway round tie, and
    # one of them can be v0 and the other the highest index
    labels = [f"v{i}" for i in range(n)]
    edges = [(labels[i], labels[(i + 1) % n], 1) for i in range(n)]
    return WeightedGraph.from_edges(edges)


def _assert_kernel_matches_tuple_keys(g: WeightedGraph) -> None:
    """Settle order, dependency bits and score bits equal the tuple-key kernel's."""
    adj = g.adjacency()
    scale = math.lcm(*(w for row in adj for w in row.values()))
    plain = [tuple((j, scale // w) for j, w in row.items()) for row in adj]
    bits = trends._node_bits(g.n)
    shifted = [tuple((j, d << bits) for j, d in row) for row in plain]
    bc = [0.0] * g.n
    for source in range(g.n):
        order, delta = trends._source_delta(shifted, source)
        want_order, want_delta = oracles.source_delta_tuple_keys(plain, source)
        assert order == want_order, (g.edges(), source)
        assert list(map(repr, delta)) == list(map(repr, want_delta)), (g.edges(), source)
        for u in want_order[1:]:
            bc[u] += want_delta[u]
    want = [(v, repr(bc[i] / 2.0)) for i, v in enumerate(g.labels())]
    assert [(v, repr(x)) for v, x in weighted_betweenness(g).items()] == want


def test_heap_keys_match_tuple_keys_when_the_lcm_passes_2_to_the_100():
    g = _graph(random.Random(81), 40, PRIMES)
    assert math.lcm(*(w for _, _, w in g.edges())).bit_length() > 100
    _assert_kernel_matches_tuple_keys(g)
    # two primes alone: paths of many hops with few distinct lengths
    _assert_kernel_matches_tuple_keys(_graph(random.Random(82), 33, [89, 97]))


@pytest.mark.parametrize("n", SIZES)
def test_heap_keys_match_tuple_keys_at_every_node_bit_edge(n):
    # the fewest bits that hold every node index
    bits = trends._node_bits(n)
    assert n <= 1 << bits and (bits == 0 or n > 1 << (bits - 1))
    rng = random.Random(n)
    # few distinct weights make many exact ties between distinct nodes
    _assert_kernel_matches_tuple_keys(_graph(rng, n, [1, 2, 3]))
    _assert_kernel_matches_tuple_keys(_graph(rng, n, [2, 3, 5, 7, 11, 13]))
    if n >= 3:
        _assert_kernel_matches_tuple_keys(_cycle(n))


def test_heap_keys_match_tuple_keys_on_exact_ties():
    # the tie that holds only in exact terms, and a star whose leaves all
    # tie at one distance from the hub, the highest index last
    _assert_kernel_matches_tuple_keys(_tie_graph())
    hub = WeightedGraph.from_edges([("h", f"l{i}", 2) for i in range(16)])
    _assert_kernel_matches_tuple_keys(hub)
    for g in _graphs_with_ties():
        _assert_kernel_matches_tuple_keys(g)


# --- betweenness across worker processes ---------------------------------------
# pipeline._forked, which carries a slice share's outcomes back from a forked
# child, and _workers, which pipeline holds: kept here under their earlier
# test ids, the process tests on a plain payload

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
WORKER_COUNTS = [1, pytest.param(2, marks=needs_fork)]


def _graphs_with_ties() -> list[WeightedGraph]:
    # few distinct weights make many tied paths, hence fractional
    # dependencies whose float sum changes if its order does
    rng = random.Random(74)
    graphs = [oracles.random_graph(rng, n_max=50, p=0.15, max_weight=3) for _ in range(12)]
    assert sum(len(g.components()) > 1 for g in graphs) >= 3
    return graphs + [
        WeightedGraph.from_edges([], isolated=["solo"]),
        WeightedGraph.from_edges([("a", "b", 3)]),
        _tie_graph(),
    ]


def _seeded_backbone_graphs() -> list[WeightedGraph]:
    # weights up to 12 make many edges longer than a two-step detour
    rng = random.Random(77)
    graphs = [oracles.random_graph(rng, n_max=12, max_weight=12) for _ in range(30)]
    return graphs + [
        oracles.random_connected_graph(rng, n_max=12, extra=0.5, max_weight=12)
        for _ in range(30)
    ]


def _assert_bits_match_serial_loop(g: WeightedGraph) -> None:
    got = [(v, repr(x)) for v, x in weighted_betweenness(g).items()]
    want = [(v, repr(x)) for v, x in oracles.betweenness_brandes_serial(g)]
    assert got == want, g.edges()


def _tie_graph() -> WeightedGraph:
    # the rational tie of test_betweenness_tie_exact_only_in_rationals
    return WeightedGraph.from_edges(
        [("s", "a", 10), ("a", "t", 5), ("s", "b", 4), ("b", "t", 20)]
    )


def _forked_betweenness(g: WeightedGraph) -> dict[str, float]:
    """Betweenness of ``g`` as a child's slice is ranked: in
    ``pipeline._forked``'s child, pickled back to this process."""
    _, values = pipeline._forked(lambda: weighted_betweenness(g), lambda: None, "a slice")
    return values


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_betweenness_bits_match_serial_loop_for_every_worker_count(monkeypatch, workers):
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    for g in _graphs_with_ties():
        want = [(v, repr(x)) for v, x in oracles.betweenness_brandes_serial(g)]
        assert [(v, repr(x)) for v, x in _forked_betweenness(g).items()] == want
        _assert_bits_match_serial_loop(g)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("fails", ["pipe", "fork"])
def test_betweenness_runs_serially_when_no_child_can_start(monkeypatch, fails):
    made: list[int] = []
    real_pipe = os.pipe

    def pipe():
        if fails == "pipe":
            raise OSError(errno.EMFILE, "Too many open files")
        fds = real_pipe()
        made.extend(fds)
        return fds

    def fork():
        if fails == "fork":
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        raise AssertionError("forked after a failed pipe")

    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    ran: list[str] = []

    def child():
        ran.append("child")
        return os.getpid()

    def here():
        ran.append("here")
        return "here"

    for _ in range(3):
        assert pipeline._forked(child, here, "work") == ("here", os.getpid())
    assert ran == ["here", "child"] * 3
    assert len(made) == (0 if fails == "pipe" else 2 * 3)
    for fd in made:
        with pytest.raises(OSError):
            os.fstat(fd)


@needs_fork
def test_betweenness_child_failure_raises_and_leaves_no_child(monkeypatch):
    def child():
        raise RuntimeError("boom")

    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    with pytest.raises(KcnError, match="^worker for work failed with exit code 1$"):
        pipeline._forked(child, lambda: None, "work")
    _assert_no_child_left()


@needs_fork
def test_betweenness_interrupt_in_parent_reaps_every_child(monkeypatch):
    # the child would run for a minute; it is killed, not waited for
    def here():
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pipeline._forked(lambda: time.sleep(60), here, "work")
    assert time.monotonic() - start < 30
    _assert_no_child_left()


@pytest.mark.parametrize(("workers", "work"), [(1, "work"), (2, "")], ids=["one-cpu", "no-fork"])
def test_forked_runs_here_then_child_when_it_does_not_fork(monkeypatch, workers, work):
    def forking():
        raise AssertionError("forked")

    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    monkeypatch.setattr(os, "fork", forking, raising=False)
    ran: list[str] = []

    def child():
        ran.append("child")
        return 2

    def here():
        ran.append("here")
        return 1

    # with no work to name, nothing forks
    assert pipeline._forked(child, here, work) == (1, 2)
    assert ran == ["here", "child"]


@needs_fork
def test_forked_carries_messages_in_order_through_the_pipe(monkeypatch):
    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    # a result larger than a pipe buffer waits until it is read
    big = [float(i) for i in range(50_000)]
    here, (pid, got, last) = pipeline._forked(lambda: (os.getpid(), big, None), lambda: "here", "work")
    assert here == "here" and pid != os.getpid() and got == big and last is None
    _assert_no_child_left()


class _Exit:
    # pickling it ends the process with exit code 3
    def __reduce__(self):
        os._exit(3)


@needs_fork
@pytest.mark.parametrize("sent", [0, 1])
@pytest.mark.parametrize("received", ["all", "sent"])
def test_a_child_that_exits_is_failed_with_its_exit_code(monkeypatch, sent, received):
    # the child exits before it sends its result (sent 0), or once part of
    # it, more than a pipe buffer, is on the pipe (sent 1); this process
    # reads the pipe's end once ``here`` returns, which is at once ("sent")
    # or once the child has reached its end ("all")
    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    ready_r, ready_w = os.pipe()

    def child():
        os.write(ready_w, b"x")
        if sent == 0:
            os._exit(3)
        return [float(i) for i in range(50_000)], _Exit()

    def here():
        if received == "all":
            assert os.read(ready_r, 1) == b"x"

    try:
        with pytest.raises(KcnError, match="^worker for work failed with exit code 3$"):
            pipeline._forked(child, here, "work")
    finally:
        os.close(ready_r)
        os.close(ready_w)
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (3, 2), (64, 2)])
def test_workers_is_capped_at_two(monkeypatch, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert pipeline._workers() == workers
    # without sched_getaffinity, as on macOS, cpu_count decides
    monkeypatch.delattr(os, "sched_getaffinity")
    assert pipeline._workers() == workers


def test_workers_is_one_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    assert pipeline._workers() == 1


def test_workers_is_one_while_another_thread_runs():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert pipeline._workers() == 1
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


# --- the distance backbone -----------------------------------------------------


def _edge_pairs(g: WeightedGraph) -> set[tuple[str, str]]:
    return {tuple(sorted((u, v))) for u, v, _ in g.edges()}


def _kept(g: WeightedGraph) -> set[tuple[str, str]]:
    """The edges ``trends._backbone`` keeps, as sorted label pairs."""
    labels = g.labels()
    rows = trends._backbone(g.adjacency())
    kept = {tuple(sorted((labels[u], labels[v]))) for u, row in enumerate(rows) for v in row}
    # each edge is kept from both ends or from neither
    assert sum(map(len, rows)) == 2 * len(kept)
    return kept


def _assert_matches_exhaustive(g: WeightedGraph) -> dict[str, float]:
    ours = weighted_betweenness(g)
    exact = oracles.betweenness_exhaustive(g)

    def ranks(bc):
        return sorted(bc, key=lambda v: (-bc[v], v))

    assert ranks(ours) == ranks(exact)
    assert ours == pytest.approx(exact, abs=1e-12)
    return ours


@pytest.mark.parametrize(
    "weights",
    [(1, 2, 2), (2, 3, 6)],
    ids=["1/2+1/2=1/1", "1/3+1/6=1/2"],
)
def test_backbone_keeps_an_edge_that_ties_a_two_step_path(weights):
    # a-b is exactly as long as a-x-b, so both are shortest a-b paths
    # (sigma is 2) and x takes half the pair; in ints (2+2)*1 == 2*2 and
    # (3+6)*2 == 3*6, the second a tie only in rationals
    direct, ax, xb = weights
    g = WeightedGraph.from_edges([("a", "b", direct), ("a", "x", ax), ("x", "b", xb)])
    assert _kept(g) == _edge_pairs(g)
    assert _assert_matches_exhaustive(g) == {"a": 0.0, "b": 0.0, "x": 0.5}
    _assert_bits_match_serial_loop(g)


def test_backbone_keeps_an_edge_only_a_three_step_path_beats():
    # u-v (length 1) is longer than u-a-b-v (3/10), but u and v share no
    # neighbour, so the two-step test keeps it; a-v (1) is longer than
    # a-b-v (1/5) and is dropped
    g = WeightedGraph.from_edges(
        [("u", "v", 1), ("u", "a", 10), ("a", "b", 10), ("b", "v", 10),
         ("a", "v", 1), ("v", "w", 1)]
    )
    assert _kept(g) == _edge_pairs(g) - {("a", "v")}
    _assert_bits_match_serial_loop(g)
    _assert_matches_exhaustive(g)


def test_backbone_of_one_and_two_nodes():
    solo = WeightedGraph.from_edges([], isolated=["solo"])
    pair = WeightedGraph.from_edges([("a", "b", 3)])
    assert trends._backbone(solo.adjacency()) == [{}]
    assert _kept(pair) == {("a", "b")}
    assert weighted_betweenness(solo) == {"solo": 0.0}
    assert weighted_betweenness(pair) == {"a": 0.0, "b": 0.0}
    _assert_bits_match_serial_loop(solo)
    _assert_bits_match_serial_loop(pair)


def test_backbone_bits_match_the_unpruned_serial_loop_on_seeded_graphs():
    # the serial loop runs on every edge
    pruned = 0
    for g in _seeded_backbone_graphs():
        _assert_bits_match_serial_loop(g)
        pruned += len(_kept(g)) < len(g.edges())
    assert pruned >= 30


# --- top-k tables ------------------------------------------------------------------


def test_top_k_table_ranks_and_truncates(star4):
    table = top_k_table(star4, 2, "2020")
    assert table.label == "2020"
    assert table.k == 2
    assert table.rows[0] == ("h", pytest.approx(3.0))
    # the three leaves tie at zero; the label breaks the tie
    assert table.rows[1][0] == "l1"


def test_top_k_table_accepts_precomputed_values(star4):
    table = top_k_table(star4, 1, "x", values={"h": 1.0, "l1": 9.0,
                                               "l2": 0.0, "l3": 0.0})
    assert table.rows == (("l1", 9.0),)


def test_top_k_table_rejects_bad_k(star4):
    with pytest.raises(GraphError, match="at least 1"):
        top_k_table(star4, 0, "x")


# --- emerging keywords ----------------------------------------------------------------


def _table(label: str, rows: list[tuple[str, float]], k: int = 3):
    return CentralityTable(label=label, k=k, rows=tuple(rows))


def test_detect_emerging_debut_ordering():
    tables = [
        _table("2020", [("alpha", 9.0), ("beta", 5.0), ("gamma", 1.0)]),
        _table("2021", [("alpha", 8.0), ("delta", 6.0), ("echo", 6.0)]),
        _table("2022", [("foxtrot", 2.0), ("beta", 1.5), ("delta", 1.0)]),
    ]
    out = detect_emerging(tables)
    assert [(e.keyword, e.first_year, e.value) for e in out] == [
        ("delta", "2021", 6.0),  # value tie with echo: label order
        ("echo", "2021", 6.0),
        ("foxtrot", "2022", 2.0),
    ]


def test_detect_emerging_keeps_debut_despite_later_absence():
    tables = [
        _table("2020", [("a", 3.0)], k=1),
        _table("2021", [("b", 2.0)], k=1),
        _table("2022", [("a", 1.0)], k=1),
    ]
    out = detect_emerging(tables)
    assert [(e.keyword, e.first_year) for e in out] == [("b", "2021")]


def test_detect_emerging_requires_two_tables_and_equal_k():
    with pytest.raises(GraphError, match="two tables"):
        detect_emerging([_table("2020", [("a", 1.0)])])
    with pytest.raises(GraphError, match="disagree on k"):
        detect_emerging(
            [_table("2020", [("a", 1.0)], k=1), _table("2021", [("b", 1.0)], k=2)]
        )


def test_detect_emerging_nothing_new():
    tables = [
        _table("2020", [("a", 1.0), ("b", 0.5)], k=2),
        _table("2021", [("b", 1.0), ("a", 0.5)], k=2),
    ]
    assert detect_emerging(tables) == []


# --- ego networks -----------------------------------------------------------------------


@pytest.fixture
def ego_graph() -> WeightedGraph:
    # ego e: alters p, q, r plus outsider far; p-q closes a triangle
    return WeightedGraph.from_edges(
        [
            ("e", "p", 1),
            ("e", "q", 2),
            ("e", "r", 5),
            ("p", "q", 1),
            ("q", "far", 9),
            ("far", "r", 9),
        ]
    )


def test_ego_network_subgraph_contents(ego_graph):
    view = ego_network(ego_graph, "e", j=2)
    assert view.ego == "e"
    assert set(view.graph.neighbors("e")) == {"p", "q", "r"}
    assert "far" not in view.graph
    # edges among {e, p, q, r} only
    assert sorted(view.graph.edges()) == sorted(
        [("e", "p", 1), ("e", "q", 2), ("e", "r", 5), ("p", "q", 1)]
    )


def test_ego_network_ranks_by_ego_subgraph_degree(ego_graph):
    view = ego_network(ego_graph, "e", j=2)
    # inside the ego subgraph q and p have degree 2, r only 1; the q-far
    # and far-r edges are invisible at the default scope
    assert view.labeled_alters == ("q", "p")


def test_ego_network_full_scope_changes_ranking(ego_graph):
    view = ego_network(ego_graph, "e", j=2, degree_scope="full")
    # full-graph degrees: q=3, p=2, r=2; p-r tie resolved by edge weight
    assert view.labeled_alters == ("q", "r")


def test_ego_network_tie_breaks_weight_then_label():
    g = WeightedGraph.from_edges(
        [("e", "a", 1), ("e", "b", 2), ("e", "c", 2)]
    )
    view = ego_network(g, "e", j=3)
    # all alters have subgraph degree 1: weight to ego, then label
    assert view.labeled_alters == ("b", "c", "a")


def test_ego_network_j_clamps(ego_graph):
    assert ego_network(ego_graph, "e", j=99).labeled_alters == ("q", "p", "r")
    assert ego_network(ego_graph, "e", j=0).labeled_alters == ()
    assert ego_network(ego_graph, "e", j=-5).labeled_alters == ()


def test_ego_network_unknown_scope_and_node(ego_graph):
    with pytest.raises(GraphError, match="degree scope"):
        ego_network(ego_graph, "e", 1, degree_scope="sideways")
    with pytest.raises(GraphError, match="unknown node"):
        ego_network(ego_graph, "missing", 1)


# --- frequency table ------------------------------------------------------------------------


def test_frequency_table_counts_articles_not_mentions():
    records = (
        ArticleRecord("r1", "v", 2020, ("a", "b")),
        ArticleRecord("r2", "v", 2020, ("a", "c", "a")),
        ArticleRecord("r3", "v", 2021, ("b",)),
    )
    table = frequency_table(Corpus(records), k=10)
    assert table == [("a", 2), ("b", 2), ("c", 1)]


def test_frequency_table_truncates_and_validates():
    records = (ArticleRecord("r1", "v", 2020, ("a", "b")),)
    assert frequency_table(Corpus(records), k=1) == [("a", 1)]
    with pytest.raises(GraphError):
        frequency_table(Corpus(records), k=0)
