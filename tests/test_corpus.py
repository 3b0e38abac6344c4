from __future__ import annotations

import json
import re
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
from kcn.normalize import fold_case_hyphens

from conftest import DATA


def _write_jsonl(path: Path, rows: list[dict]) -> Path:
    # unescaped, so a keyword can carry U+2028 and the like as they are
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n", "utf-8")
    return path


def test_load_jsonl_roundtrip(tmp_path):
    path = _write_jsonl(
        tmp_path / "c.jsonl",
        [
            {"id": "x1", "venue": "V", "year": 2021, "keywords": ["a", "b"]},
            {"id": "x2", "venue": "W", "year": 2020, "keywords": []},
            # line boundaries of str.splitlines that JSON allows unescaped
            {"id": "x3", "venue": "V", "year": 2021,
             "keywords": ["machine\u2028learning", "a\u2029b", "c\x85d"]},
        ],
    )
    corpus = load_corpus(path, "jsonl")
    assert len(corpus) == 3
    assert corpus.records[0] == ArticleRecord("x1", "V", 2021, ("a", "b"))
    assert corpus.records[1].keywords == ()
    assert corpus.records[2].keywords == ("machine\u2028learning", "a\u2029b", "c\x85d")
    assert fold_case_hyphens(corpus.records[2].keywords[0]) == "machine learning"
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


@pytest.mark.parametrize(
    ("name", "text", "message"),
    [
        ("c.csv", "", "{path}: empty file, expected a header row"),
        ("c.csv", "id,venue,year,keywords\nx,V,2020,a\ny,V,2021\n",
         "{path}:3: expected 4 fields, got 3"),
        ("c.jsonl", '["x1", "V", 2021, ["a"]]\n', "{path}:1: expected a JSON object, got list"),
    ],
    ids=["csv-empty", "csv-width", "jsonl-not-object"],
)
def test_load_names_the_line_of_a_malformed_file(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text, "utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(path, path.suffix[1:])
    assert str(err.value) == message.format(path=path)


@pytest.mark.parametrize(
    ("name", "text"),
    [
        ("c.csv", 'id,venue,year,keywords\nx1,V,2021,"a; b"\nx2,W,2020,c\n'),
        ("c.jsonl", '{"id": "x1", "venue": "V", "year": 2021, "keywords": ["a", "b"]}\n'
                    '{"id": "x2", "venue": "W", "year": 2020, "keywords": ["c"]}\n'),
    ],
    ids=["csv", "jsonl"],
)
def test_load_skips_a_byte_order_mark(tmp_path, name, text):
    # as a spreadsheet's "CSV UTF-8" export starts
    path = tmp_path / name
    path.write_text(text, "utf-8")
    plain = load_corpus(path, path.suffix[1:]).records
    path.write_text(text, "utf-8-sig")
    assert load_corpus(path, path.suffix[1:]).records == plain
    assert [r.id for r in plain] == ["x1", "x2"]


def test_load_jsonl_reports_line_of_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "x1", "venue": "V", "year": 2021, "keywords": ["a"]}\n'
        '{"id": "x2", "venue": "V", "year": 2021, "keywords": ["a\u2028b"]}\n{oops\n',
        "utf-8",
    )
    with pytest.raises(CorpusError) as err:
        load_corpus(path, "jsonl")
    assert f"{path}:3:" in str(err.value)


def test_load_jsonl_ends_records_only_at_line_feeds(tmp_path):
    path = tmp_path / "c.jsonl"
    rows = [b'{"id": "x1",\r"venue": "V", "year": 2021, "keywords": ["a"]}',
            b'{"id": "x2", "venue": "V", "year": 2020, "keywords": ["b"]}']
    # "\r" is JSON whitespace, between tokens or left at the end by CRLF
    path.write_bytes(b"\r\n".join(rows) + b"\r\n")
    assert [r.id for r in load_corpus(path, "jsonl").records] == ["x1", "x2"]
    path.write_bytes(b"\r".join(rows) + b"\r")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:1: invalid JSON"):
        load_corpus(path, "jsonl")


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
        "\n"
        "x2,W,2020,\n",
        "utf-8",
    )
    corpus = load_corpus(path, "csv")
    # a blank line is no record
    assert [r.id for r in corpus.records] == ["x1", "x2"]
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
