"""Property tests of normalization and of whole bundles on drawn corpora."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from kcn.bundle import slice_file
from kcn.config import load_config
from kcn.corpus import ArticleRecord, Corpus
from kcn.errors import GraphError
from kcn.graph import SliceSpec
from kcn.normalize import default_lexicon_dir, load_lexicon, normalize_corpus
from kcn.pipeline import run_pipeline

# packaged short forms ("its", "llm"), protected and plural-looking words
# ("analysis", "studies") and near-spellings ("modle") all take part
WORDS = ["its", "llm", "data", "net", "model", "modle", "graph", "analysis", "studies", "learn"]


@st.composite
def keywords(draw, parens: bool = True) -> str:
    words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
    keyword = draw(st.sampled_from([" ", "-", " - "])).join(words)
    keyword = draw(st.sampled_from([str.lower, str.upper, str.title]))(keyword)
    if draw(st.booleans()):
        keyword += "s"
    if parens and draw(st.booleans()):
        keyword += " (" + "".join(w[0] for w in words).upper() + ")"
    return keyword


def _packaged_lexicon():
    d = default_lexicon_dir()
    return load_lexicon(d / "protected.tsv", d / "abbrev.tsv", d / "merges.tsv")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.lists(keywords(), min_size=1, max_size=5), min_size=1, max_size=12))
def test_normalization_is_idempotent(keyword_lists):
    corpus = Corpus(
        records=tuple(
            ArticleRecord(f"r{i:02d}", "v", 2020, tuple(kws))
            for i, kws in enumerate(keyword_lists)
        )
    )
    once, _ = normalize_corpus(corpus, _packaged_lexicon())
    twice, _ = normalize_corpus(once, _packaged_lexicon())
    assert twice.records == once.records


@st.composite
def corpora(draw) -> list[dict]:
    """Records with 0-12 keywords over three years, and no parentheses.

    A parenthetical short form registers first-come, so it may depend on
    record order by design; records with no keywords or too many of them
    are excluded by the filter.
    """
    lists = draw(
        st.lists(st.lists(keywords(parens=False), max_size=12), min_size=2, max_size=14)
    )
    assume(any(1 <= len(set(kws)) <= 10 for kws in lists))
    years = draw(st.lists(st.integers(2020, 2022), min_size=len(lists), max_size=len(lists)))
    return [
        {"id": f"r{i:02d}", "venue": "v", "year": year, "keywords": kws}
        for i, (kws, year) in enumerate(zip(lists, years))
    ]


def _bundle(root: Path, rows: list[dict]) -> dict[str, bytes]:
    root.mkdir()
    (root / "corpus.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in rows), "utf-8"
    )
    (root / "config.json").write_text(json.dumps({"inputs": ["corpus.jsonl"]}), "utf-8")
    out = root / "out"
    run_pipeline(load_config(root / "config.json"), out_dir=out)
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _order_free(name: str, data: bytes):
    """The parts of a bundle file that must not depend on record order."""
    if name == "audit.jsonl":  # rewrites in first-seen order
        return sorted(data.splitlines())
    if name == "manifest.json":  # the input file's hash
        manifest = json.loads(data)
        for entry in manifest["inputs"]:
            del entry["sha256"]
        return manifest
    if name == "filter_report.json":  # exclusions in input order
        report = json.loads(data)
        report["excluded"].sort(key=lambda e: e["id"])
        return report
    return data


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.data())
def test_bundle_does_not_depend_on_record_order(data):
    rows = data.draw(corpora())
    shuffled = data.draw(st.permutations(rows))
    with tempfile.TemporaryDirectory() as tmp:
        given_order = _bundle(Path(tmp) / "given", rows)
        other_order = _bundle(Path(tmp) / "shuffled", shuffled)
    assert sorted(given_order) == sorted(other_order)
    for name, data_given in given_order.items():
        assert _order_free(name, data_given) == _order_free(name, other_order[name]), name


# the kind and extension of every file a slice writes under slices/<label>/
SLICE_FILES = [
    ("edges", "csv"), ("ccdf", "tsv"), ("clustering_vs_degree", "tsv"),
    ("knn_ratio_vs_degree", "tsv"), ("clusters", "json"), ("membership", "csv"),
    ("dendrogram", "csv"), ("betweenness", "csv"),
]
# dots, separators, a character GraphML cannot hold, and letters of one to
# four UTF-8 bytes
LABEL_CHARS = st.sampled_from([".", "/", " ", "-", "_", "a", "A", "\u00e9", "\u5b66", "\U0001f600", "\x01"])


@st.composite
def labels(draw) -> str:
    """A run of one character, long enough to cross the 200-byte limit, then drawn text."""
    run = draw(LABEL_CHARS) * draw(st.integers(0, 210))
    return run + draw(st.text(LABEL_CHARS, max_size=8) | st.text(max_size=8))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(labels())
@example(".")
@example("..")
@example("a\tb")
@example("x\ny")
@example("\r")
def test_each_label_slice_spec_accepts_names_one_directory_under_slices(label):
    try:
        SliceSpec(label)
    except GraphError:
        assume(False)
    # nor splits a row of summary.tsv
    assert not {"\t", "\n", "\r"} & set(label)
    bundle = Path("bundle")
    for kind, ext in SLICE_FILES:
        path = slice_file(bundle, label, kind, ext)
        # normpath drops a "." and resolves a ".." as the file system would
        assert Path(os.path.normpath(path)).parent.parent == bundle / "slices"
        assert max(len(part.encode()) for part in path.parts) <= 255
