from __future__ import annotations

import random

import pytest

from kcn.corpus import ArticleRecord, Corpus
from kcn.errors import GraphError
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
    assert set(view.alters) == {"p", "q", "r"}
    assert "far" not in view.graph
    # edges among {e, p, q, r} only
    assert sorted(view.edges) == sorted(
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
