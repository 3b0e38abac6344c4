from __future__ import annotations

import csv
import io
import random
import xml.etree.ElementTree as ET

import pytest

from kcn.corpus import ArticleRecord, Corpus
from kcn.errors import GraphError
from kcn.graph import (
    SliceSpec,
    WeightedGraph,
    build_kcn,
    largest_component,
    to_dot,
    to_edge_csv,
    to_graphml,
)

import oracles


def _corpus(rows: list[tuple[str, int, list[str]]]) -> Corpus:
    return Corpus(
        tuple(ArticleRecord(r, "v", y, tuple(k)) for r, y, k in rows)
    )


# --- SliceSpec ------------------------------------------------------------


def test_slice_spec_forms():
    assert SliceSpec.all().label == "all"
    assert SliceSpec.all().years is None
    assert SliceSpec.year(2021) == SliceSpec("2021", (2021, 2021))
    ranged = SliceSpec("early", (2019, 2021))
    assert ranged.contains(2019) and ranged.contains(2021)
    assert not ranged.contains(2022)
    assert SliceSpec.all().contains(1900)


def test_slice_spec_validation():
    with pytest.raises(GraphError, match="label"):
        SliceSpec("", None)
    with pytest.raises(GraphError, match="empty year range"):
        SliceSpec("bad", (2022, 2021))


# --- construction -----------------------------------------------------------


def test_from_edges_first_appearance_order():
    g = WeightedGraph.from_edges(
        [("b", "a", 2), ("c", "a", 1)], isolated=["z"]
    )
    assert g.labels() == ("b", "a", "c", "z")
    assert g.n == 4 and g.m == 2
    assert g.degree("a") == 2 and g.degree("z") == 0
    assert g.strength("a") == 3
    assert g.weight("a", "b") == 2 and g.weight("b", "a") == 2
    assert g.weight("b", "c") == 0
    assert g.neighbors("a") == ["b", "c"]
    assert g.total_weight == 3
    assert "z" in g and "q" not in g


def test_from_edges_rejections():
    with pytest.raises(GraphError, match="self-loop"):
        WeightedGraph.from_edges([("a", "a", 1)])
    with pytest.raises(GraphError, match="positive"):
        WeightedGraph.from_edges([("a", "b", 0)])
    with pytest.raises(GraphError, match="repeated"):
        WeightedGraph.from_edges([("a", "b", 1), ("b", "a", 2)])


def test_index_of_unknown_node():
    g = WeightedGraph.from_edges([("a", "b", 1)])
    with pytest.raises(GraphError, match="unknown node"):
        g.index_of("nope")


def test_edges_listed_once_in_index_order():
    g = WeightedGraph.from_edges([("c", "b", 1), ("a", "c", 2), ("a", "b", 3)])
    # labels: c=0, b=1, a=2; pairs ordered by (i, j)
    assert g.edges() == [("c", "b", 1), ("c", "a", 2), ("b", "a", 3)]


def test_subgraph_keeps_original_relative_order():
    g = WeightedGraph.from_edges(
        [("a", "b", 1), ("b", "c", 2), ("c", "d", 3)], freq={"c": 7}
    )
    sub = g.subgraph(["d", "b", "c"])
    assert sub.labels() == ("b", "c", "d")
    assert sub.m == 2
    assert sub.weight("b", "c") == 2 and sub.weight("c", "d") == 3
    assert sub.weight("a", "b") == 0 if "a" in sub else True
    assert sub.freq("c") == 7


def test_components_sorted():
    g = WeightedGraph.from_edges(
        [("a", "b", 1), ("x", "y", 1)], isolated=["lone"]
    )
    comps = g.components()
    assert comps == [[0, 1], [2, 3], [4]]


# --- co-occurrence construction ----------------------------------------------


def test_build_kcn_weights_and_freq():
    corpus = _corpus(
        [
            ("a2", 2020, ["ml", "ai", "edu"]),
            ("a1", 2020, ["ai", "ml"]),
            ("a3", 2021, ["ml", "ai"]),
            ("a4", 2021, ["solo"]),
        ]
    )
    g = build_kcn(corpus, SliceSpec.all())
    # records scan in ascending id order, so a1 defines the first nodes
    assert g.labels() == ("ai", "ml", "edu", "solo")
    assert g.weight("ai", "ml") == 3
    assert g.weight("ml", "edu") == 1
    freq = {v: g.freq(v) for v in g.labels()}
    assert freq == {"ai": 3, "ml": 3, "edu": 1, "solo": 1}
    assert g.degree("solo") == 0

    year_g = build_kcn(corpus, SliceSpec.year(2021))
    assert year_g.weight("ai", "ml") == 1
    assert year_g.freq("solo") == 1


def test_build_kcn_ignores_duplicate_strings_within_record():
    corpus = _corpus([("a1", 2020, ["x", "y", "x"])])
    g = build_kcn(corpus, SliceSpec.all())
    assert g.weight("x", "y") == 1
    assert g.freq("x") == 1


def test_build_kcn_empty_slice_is_an_error():
    corpus = _corpus([("a1", 2020, ["x"])])
    with pytest.raises(GraphError, match="selects no records"):
        build_kcn(corpus, SliceSpec.year(1999))


def test_build_kcn_deterministic_across_runs():
    corpus = _corpus(
        [(f"a{i}", 2020, [f"k{j}" for j in range(i % 5 + 1)]) for i in range(20)]
    )
    a = build_kcn(corpus, SliceSpec.all())
    b = build_kcn(corpus, SliceSpec.all())
    assert a.labels() == b.labels()
    assert a.edges() == b.edges()
    assert {v: a.freq(v) for v in a.labels()} == {v: b.freq(v) for v in b.labels()}


# --- components -----------------------------------------------------------------


def test_largest_component_picks_biggest():
    g = WeightedGraph.from_edges(
        [("a", "b", 1), ("b", "c", 1), ("x", "y", 1)]
    )
    lc = largest_component(g)
    assert lc.labels() == ("a", "b", "c")


def test_largest_component_tie_prefers_earliest_node():
    g = WeightedGraph.from_edges(
        [("a", "b", 1), ("x", "y", 1)]
    )
    assert largest_component(g).labels() == ("a", "b")


def test_largest_component_connected_graph_is_identity(two_triangles):
    lc = largest_component(two_triangles)
    assert lc.labels() == two_triangles.labels()
    assert lc.edges() == two_triangles.edges()


# --- exports ---------------------------------------------------------------------


def test_graphml_structure_and_escaping():
    g = WeightedGraph.from_edges(
        [("a<b", 'q"&', 2)], freq={"a<b": 3, 'q"&': 1}
    )
    text = to_graphml(g, labeled=["a<b"])
    root = ET.fromstring(text)  # must be well-formed XML
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    nodes = root.findall(".//g:node", ns)
    assert len(nodes) == 2
    labels = {
        d.text
        for n in nodes
        for d in n.findall("g:data", ns)
        if d.get("key") == "d0"
    }
    assert labels == {"a<b", 'q"&'}
    edge = root.find(".//g:edge", ns)
    weights = [d.text for d in edge.findall("g:data", ns) if d.get("key") == "d2"]
    assert weights == ["2"]
    flags = {
        n.get("id"): [d.text for d in n.findall("g:data", ns) if d.get("key") == "d3"]
        for n in nodes
    }
    assert flags == {"n0": ["true"], "n1": ["false"]}


def test_graphml_without_labeled_flag_has_no_d3():
    g = WeightedGraph.from_edges([("a", "b", 1)])
    assert "d3" not in to_graphml(g)


def test_dot_output(star4):
    text = to_dot(star4)
    assert text.startswith("graph kcn {")
    assert '"h" -- "l1" [weight=1];' in text
    g = WeightedGraph.from_edges([("a", "b", 1)], isolated=["alone"])
    assert '"alone";' in to_dot(g)


def test_edge_csv_roundtrip(two_triangles):
    text = to_edge_csv(two_triangles)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["source", "target", "weight"]
    assert len(rows) == 1 + two_triangles.m
    rebuilt = WeightedGraph.from_edges(
        [(a, b, int(w)) for a, b, w in rows[1:]]
    )
    assert rebuilt.edges() == two_triangles.edges()


def test_exports_handle_random_graphs():
    rng = random.Random(3)
    for _ in range(10):
        g = oracles.random_graph(rng)
        ET.fromstring(to_graphml(g))
        assert to_dot(g).rstrip().endswith("}")
        assert len(to_edge_csv(g).splitlines()) == g.m + 1
