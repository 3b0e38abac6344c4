"""Weighted keyword co-occurrence graphs.

Nodes are canonical keywords; an undirected edge weight counts the articles
in which the two keywords co-occur. Node indices are assigned by first
appearance while scanning records in ascending id order, so rebuilding from
the same corpus slice is bit-identical. Graphs can be exported as GraphML,
DOT, or an edge-list CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping
from xml.sax.saxutils import escape

from .corpus import Corpus
from .errors import GraphError


@dataclass(frozen=True)
class SliceSpec:
    """A corpus slice: a label plus an inclusive year range (None = all)."""

    label: str
    years: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.label:
            raise GraphError("slice label must be non-empty")
        if self.years is not None and self.years[0] > self.years[1]:
            raise GraphError(
                f"slice {self.label!r}: empty year range {self.years}"
            )

    @classmethod
    def all(cls, label: str = "all") -> "SliceSpec":
        return cls(label=label, years=None)

    @classmethod
    def year(cls, year: int) -> "SliceSpec":
        return cls(label=str(year), years=(year, year))

    def contains(self, year: int) -> bool:
        return self.years is None or self.years[0] <= year <= self.years[1]


class WeightedGraph:
    """Undirected weighted graph over string-labeled nodes.

    Instances are treated as immutable once built. Node order (and thus
    every export and iteration order) is fixed at construction time.
    """

    def __init__(
        self,
        labels: Iterable[str],
        adj: list[dict[int, int]],
        freq: Iterable[int],
    ) -> None:
        self._labels: tuple[str, ...] = tuple(labels)
        self._index: dict[str, int] = {v: i for i, v in enumerate(self._labels)}
        if len(self._index) != len(self._labels):
            raise GraphError("duplicate node labels")
        self._adj = adj
        self._freq: tuple[int, ...] = tuple(freq)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str, int]],
        isolated: Iterable[str] = (),
        freq: Mapping[str, int] | None = None,
    ) -> "WeightedGraph":
        """Build a graph from ``(u, v, weight)`` triples plus isolated nodes.

        Node order follows first appearance in the given sequences. Weights
        must be positive; self-loops and repeated edges are rejected.
        """
        labels: list[str] = []
        index: dict[str, int] = {}

        def node(v: str) -> int:
            if v not in index:
                index[v] = len(labels)
                labels.append(v)
            return index[v]

        adj: list[dict[int, int]] = []
        for u, v, w in edges:
            if u == v:
                raise GraphError(f"self-loop on {u!r}")
            if w <= 0:
                raise GraphError(f"edge weight must be positive: {u!r}-{v!r}")
            iu, iv = node(u), node(v)
            while len(adj) < len(labels):
                adj.append({})
            if iv in adj[iu]:
                raise GraphError(f"repeated edge {u!r}-{v!r}")
            adj[iu][iv] = w
            adj[iv][iu] = w
        for v in isolated:
            node(v)
        while len(adj) < len(labels):
            adj.append({})
        freqs = [0 if freq is None else freq.get(v, 0) for v in labels]
        return cls(labels, adj, freqs)

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj) // 2

    def labels(self) -> tuple[str, ...]:
        return self._labels

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def index_of(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown node: {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self._adj[self.index_of(v)])

    def strength(self, v: str) -> int:
        return sum(self._adj[self.index_of(v)].values())

    def neighbors(self, v: str) -> list[str]:
        """Neighbor labels in node-index order."""
        return [self._labels[i] for i in sorted(self._adj[self.index_of(v)])]

    def weight(self, u: str, v: str) -> int:
        """Edge weight, or 0 when the edge is absent."""
        return self._adj[self.index_of(u)].get(self.index_of(v), 0)

    def freq(self, v: str) -> int:
        return self._freq[self.index_of(v)]

    def edges(self) -> list[tuple[str, str, int]]:
        """All edges once, ordered by node index pair."""
        out = []
        for i in range(self.n):
            for j in sorted(self._adj[i]):
                if i < j:
                    out.append((self._labels[i], self._labels[j], self._adj[i][j]))
        return out

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges())

    # -- derived graphs ---------------------------------------------------

    def subgraph(self, nodes: Iterable[str]) -> "WeightedGraph":
        """Induced subgraph; node order follows the original index order."""
        picked = sorted({self.index_of(v) for v in nodes})
        remap = {old: new for new, old in enumerate(picked)}
        labels = [self._labels[i] for i in picked]
        adj: list[dict[int, int]] = [{} for _ in picked]
        for old in picked:
            for nbr, w in self._adj[old].items():
                if nbr in remap:
                    adj[remap[old]][remap[nbr]] = w
        freqs = [self._freq[i] for i in picked]
        return WeightedGraph(labels, adj, freqs)

    def components(self) -> list[list[int]]:
        """Connected components as index lists, in discovery order."""
        seen = [False] * self.n
        comps: list[list[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in self._adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted(comp))
        return comps


def build_kcn(corpus: Corpus, slice_spec: SliceSpec) -> WeightedGraph:
    """Build the co-occurrence graph for one corpus slice.

    Every keyword of every in-slice record becomes a node (isolated ones
    included); each unordered keyword pair within a record adds 1 to its
    edge weight. ``freq(v)`` counts the articles containing keyword ``v``.
    """
    records = sorted(
        (r for r in corpus.records if slice_spec.contains(r.year)),
        key=lambda r: r.id,
    )
    if not records:
        raise GraphError(f"slice {slice_spec.label!r} selects no records")
    labels: list[str] = []
    index: dict[str, int] = {}
    freq: list[int] = []
    adj: list[dict[int, int]] = []
    for record in records:
        distinct = list(dict.fromkeys(record.keywords))
        ids = []
        for kw in distinct:
            if kw not in index:
                index[kw] = len(labels)
                labels.append(kw)
                freq.append(0)
                adj.append({})
            ids.append(index[kw])
            freq[index[kw]] += 1
        for a, b in combinations(ids, 2):
            adj[a][b] = adj[a].get(b, 0) + 1
            adj[b][a] = adj[b].get(a, 0) + 1
    return WeightedGraph(labels, adj, freq)


def largest_component(g: WeightedGraph) -> WeightedGraph:
    """Induced subgraph on the largest connected component.

    Size ties go to the component containing the smallest node index.
    """
    if g.n == 0:
        raise GraphError("empty graph has no components")
    comps = g.components()
    best = max(comps, key=lambda c: (len(c), -c[0]))
    labels = g.labels()
    return g.subgraph(labels[i] for i in best)


# -- exports --------------------------------------------------------------


def to_graphml(g: WeightedGraph, labeled: Iterable[str] | None = None) -> str:
    """Serialize as GraphML with node ``label``/``freq`` and edge ``weight``.

    When ``labeled`` is given, nodes additionally carry a boolean
    ``labeled`` attribute (used by ego network exports).
    """
    labeled_set = None if labeled is None else set(labeled)
    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
    out.write('  <key id="d0" for="node" attr.name="label" attr.type="string"/>\n')
    out.write('  <key id="d1" for="node" attr.name="freq" attr.type="long"/>\n')
    out.write('  <key id="d2" for="edge" attr.name="weight" attr.type="long"/>\n')
    if labeled_set is not None:
        out.write(
            '  <key id="d3" for="node" attr.name="labeled" attr.type="boolean"/>\n'
        )
    out.write('  <graph id="kcn" edgedefault="undirected">\n')
    labels = g.labels()
    for i, label in enumerate(labels):
        out.write(f'    <node id="n{i}">')
        out.write(f'<data key="d0">{escape(label)}</data>')
        out.write(f'<data key="d1">{g.freq(label)}</data>')
        if labeled_set is not None:
            flag = "true" if label in labeled_set else "false"
            out.write(f'<data key="d3">{flag}</data>')
        out.write("</node>\n")
    index = {label: i for i, label in enumerate(labels)}
    for u, v, w in g.edges():
        out.write(
            f'    <edge source="n{index[u]}" target="n{index[v]}">'
            f'<data key="d2">{w}</data></edge>\n'
        )
    out.write("  </graph>\n</graphml>\n")
    return out.getvalue()


def to_dot(g: WeightedGraph) -> str:
    """Serialize as an undirected Graphviz DOT graph."""

    def quote(label: str) -> str:
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph kcn {"]
    connected = set()
    for u, v, w in g.edges():
        connected.add(u)
        connected.add(v)
        lines.append(f"  {quote(u)} -- {quote(v)} [weight={w}];")
    for label in g.labels():
        if label not in connected:
            lines.append(f"  {quote(label)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_edge_csv(g: WeightedGraph) -> str:
    """Serialize edges as ``source,target,weight`` CSV."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["source", "target", "weight"])
    for u, v, w in g.edges():
        writer.writerow([u, v, w])
    return out.getvalue()


def write_graphml(
    g: WeightedGraph, path: str | Path, labeled: Iterable[str] | None = None
) -> None:
    Path(path).write_text(to_graphml(g, labeled), "utf-8")


def write_dot(g: WeightedGraph, path: str | Path) -> None:
    Path(path).write_text(to_dot(g), "utf-8")


def write_edge_csv(g: WeightedGraph, path: str | Path) -> None:
    Path(path).write_text(to_edge_csv(g), "utf-8")
