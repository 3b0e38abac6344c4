"""Property tests of ``WeightedGraph`` on random ``from_edges`` graphs."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from kcn.graph import WeightedGraph


@st.composite
def edge_lists(draw):
    """Labels in a drawn order plus distinct ``(u, v, w)`` edges, no loops."""
    n = draw(st.integers(1, 9))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    pairs = draw(st.lists(pair, max_size=24, unique_by=lambda p: frozenset(p)))
    size = len(pairs)
    weights = draw(st.lists(st.integers(1, 50), min_size=size, max_size=size))
    edges = [(labels[a], labels[b], w) for (a, b), w in zip(pairs, weights)]
    return labels, edges


def _graph(drawn) -> tuple[WeightedGraph, list[tuple[str, str, int]]]:
    labels, edges = drawn
    return WeightedGraph.from_edges(edges, isolated=labels), edges


PROPERTY = settings(max_examples=100, derandomize=True, deadline=None)


@PROPERTY
@given(edge_lists())
def test_adjacency_is_symmetric_with_positive_int_weights(drawn):
    g, edges = _graph(drawn)
    adj = g.adjacency()
    assert len(adj) == g.n
    for i, nbrs in enumerate(adj):
        for j, w in nbrs.items():
            assert j != i
            assert type(w) is int and w > 0
            assert adj[j][i] == w
    given_weights = {frozenset((u, v)): w for u, v, w in edges}
    labels = g.labels()
    assert {
        frozenset((labels[i], labels[j])): w
        for i, nbrs in enumerate(adj)
        for j, w in nbrs.items()
    } == given_weights


@PROPERTY
@given(edge_lists())
def test_degree_sum_is_twice_the_edge_count(drawn):
    g, edges = _graph(drawn)
    assert g.m == len(edges)
    assert sum(g.degree(v) for v in g.labels()) == 2 * g.m


@PROPERTY
@given(edge_lists())
def test_strength_sum_is_twice_the_total_weight(drawn):
    g, edges = _graph(drawn)
    assert g.total_weight == sum(w for _, _, w in edges)
    assert sum(g.strength(v) for v in g.labels()) == 2 * g.total_weight


@PROPERTY
@given(edge_lists())
def test_edges_are_the_adjacency_pairs_in_index_order(drawn):
    g, _ = _graph(drawn)
    listed = [(g.index_of(u), g.index_of(v), w) for u, v, w in g.edges()]
    assert listed == sorted(
        (i, j, w)
        for i, nbrs in enumerate(g.adjacency())
        for j, w in nbrs.items()
        if i < j
    )
