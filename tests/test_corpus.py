from __future__ import annotations

import json
from pathlib import Path

import pytest

from kcn.corpus import (
    DEFAULT_MAX_KEYWORDS,
    REASON_NO_KEYWORDS,
    REASON_TOO_MANY_KEYWORDS,
    ArticleRecord,
    Corpus,
    concat_corpora,
    filter_eligible,
    load_corpus,
)
from kcn.errors import CorpusError

from conftest import DATA


def _write_jsonl(path: Path, rows: list[dict]) -> Path:
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", "utf-8")
    return path


def test_load_jsonl_roundtrip(tmp_path):
    path = _write_jsonl(
        tmp_path / "c.jsonl",
        [
            {"id": "x1", "venue": "V", "year": 2021, "keywords": ["a", "b"]},
            {"id": "x2", "venue": "W", "year": 2020, "keywords": []},
        ],
    )
    corpus = load_corpus(path, "jsonl")
    assert len(corpus) == 2
    assert corpus.records[0] == ArticleRecord("x1", "V", 2021, ("a", "b"))
    assert corpus.records[1].keywords == ()
    assert corpus.sources == (str(path),)
    assert corpus.years() == [2020, 2021]


def test_load_jsonl_blank_lines_ok(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "x1", "venue": "V", "year": 2021, "keywords": ["a"]}\n\n',
        "utf-8",
    )
    assert len(load_corpus(path, "jsonl")) == 1


@pytest.mark.parametrize(
    "row",
    [
        {"venue": "V", "year": 2021, "keywords": ["a"]},
        {"id": 3, "venue": "V", "year": 2021, "keywords": ["a"]},
        {"id": "x", "venue": "V", "year": "2021", "keywords": ["a"]},
        {"id": "x", "venue": "V", "year": True, "keywords": ["a"]},
        {"id": "x", "venue": "V", "year": 2021, "keywords": "a"},
        {"id": "x", "venue": "V", "year": 2021, "keywords": ["a", 5]},
        {"id": "x", "venue": 9, "year": 2021, "keywords": ["a"]},
    ],
)
def test_load_jsonl_rejects_bad_rows(tmp_path, row):
    path = _write_jsonl(tmp_path / "bad.jsonl", [row])
    with pytest.raises(CorpusError) as err:
        load_corpus(path, "jsonl")
    # errors carry file and line so a bad export is easy to locate
    assert f"{path}:1:" in str(err.value)


def test_load_jsonl_reports_line_of_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "x1", "venue": "V", "year": 2021, "keywords": ["a"]}\n{oops\n',
        "utf-8",
    )
    with pytest.raises(CorpusError) as err:
        load_corpus(path, "jsonl")
    assert f"{path}:2:" in str(err.value)


def test_load_rejects_duplicate_ids(tmp_path):
    rows = [
        {"id": "x1", "venue": "V", "year": 2021, "keywords": ["a"]},
        {"id": "x1", "venue": "V", "year": 2022, "keywords": ["b"]},
    ]
    path = _write_jsonl(tmp_path / "dup.jsonl", rows)
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus(path, "jsonl")


def test_load_csv(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "id,venue,year,keywords\n"
        'x1,V,2021,"machine learning; ai ;; ai "\n'
        "x2,W,2020,\n",
        "utf-8",
    )
    corpus = load_corpus(path, "csv")
    # cells are split on ";", trimmed, and empty entries dropped
    assert corpus.records[0].keywords == ("machine learning", "ai", "ai")
    assert corpus.records[1].keywords == ()


def test_load_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,venue,keywords,year\nx,V,a,2020\n", "utf-8")
    with pytest.raises(CorpusError, match="header"):
        load_corpus(path, "csv")


def test_load_csv_rejects_bad_year(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,venue,year,keywords\nx,V,soon,a\n", "utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(path, "csv")
    assert ":2:" in str(err.value)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(CorpusError, match="format"):
        load_corpus(tmp_path / "c.xml", "xml")  # type: ignore[arg-type]


def test_concat_checks_ids_across_files(tmp_path):
    a = load_corpus(
        _write_jsonl(
            tmp_path / "a.jsonl",
            [{"id": "x1", "venue": "V", "year": 2021, "keywords": ["a"]}],
        ),
        "jsonl",
    )
    b = load_corpus(
        _write_jsonl(
            tmp_path / "b.jsonl",
            [{"id": "x1", "venue": "W", "year": 2022, "keywords": ["b"]}],
        ),
        "jsonl",
    )
    with pytest.raises(CorpusError, match="duplicate"):
        concat_corpora([a, b])
    combined = concat_corpora([a])
    assert combined.sources == a.sources


def test_filter_eligible_reasons():
    records = (
        ArticleRecord("keep", "V", 2020, ("a", "b")),
        ArticleRecord("empty", "V", 2020, ()),
        ArticleRecord("big", "V", 2020, tuple(f"k{i}" for i in range(11))),
        ArticleRecord("boundary", "V", 2020, tuple(f"k{i}" for i in range(10))),
    )
    kept, report = filter_eligible(Corpus(records))
    assert [r.id for r in kept.records] == ["keep", "boundary"]
    assert report.retained == 2
    assert [(e.id, e.reason) for e in report.excluded] == [
        ("empty", REASON_NO_KEYWORDS),
        ("big", REASON_TOO_MANY_KEYWORDS),
    ]
    assert report.to_json() == {
        "excluded": [
            {"id": "empty", "reason": "no_keywords"},
            {"id": "big", "reason": "too_many_keywords"},
        ],
        "retained": 2,
    }


def test_filter_dedupes_exact_strings_before_counting():
    # 11 raw strings but only 10 distinct: the record stays eligible
    raw = tuple(f"k{i}" for i in range(10)) + ("k0",)
    records = (ArticleRecord("x", "V", 2020, raw),)
    kept, report = filter_eligible(Corpus(records))
    assert report.retained == 1
    assert kept.records[0].keywords == tuple(f"k{i}" for i in range(10))


def test_filter_keeps_case_variants_distinct():
    # deduplication is exact; case folding belongs to normalization
    records = (ArticleRecord("x", "V", 2020, ("AI", "ai")),)
    kept, _ = filter_eligible(Corpus(records))
    assert kept.records[0].keywords == ("AI", "ai")


def test_filter_respects_custom_limit():
    records = (ArticleRecord("x", "V", 2020, ("a", "b", "c")),)
    _, report = filter_eligible(Corpus(records), max_keywords=2)
    assert report.excluded[0].reason == REASON_TOO_MANY_KEYWORDS
    assert DEFAULT_MAX_KEYWORDS == 10


def test_bundled_corpus_loads():
    corpus = load_corpus(DATA / "synthetic_corpus.jsonl", "jsonl")
    assert len(corpus) == 50
    assert corpus.years() == [2020, 2021, 2022, 2023, 2024]
    kept, report = filter_eligible(corpus)
    assert report.retained == 48
    assert {e.reason for e in report.excluded} == {
        REASON_NO_KEYWORDS,
        REASON_TOO_MANY_KEYWORDS,
    }
