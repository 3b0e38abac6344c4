"""Property tests of normalization and of whole bundles on drawn corpora."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from kcn.config import load_config
from kcn.corpus import ArticleRecord, Corpus
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
