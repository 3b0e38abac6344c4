"""Bibliographic corpus loading and eligibility filtering.

A corpus is an immutable sequence of article records, each carrying a unique
id, a venue, a publication year, and an ordered keyword list. Records can be
loaded from JSON Lines or from CSV; both loaders validate row by row and
report the offending line number on failure.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal

from .errors import CorpusError, read_text

REASON_NO_KEYWORDS = "no_keywords"
REASON_TOO_MANY_KEYWORDS = "too_many_keywords"

DEFAULT_MAX_KEYWORDS = 10

_CSV_COLUMNS = ("id", "venue", "year", "keywords")


@dataclass(frozen=True)
class ArticleRecord:
    """One article: unique id, venue, publication year, ordered keywords."""

    id: str
    venue: str
    year: int
    keywords: tuple[str, ...]


@dataclass(frozen=True)
class Corpus:
    """An immutable collection of article records."""

    records: tuple[ArticleRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def years(self) -> list[int]:
        """Distinct publication years in ascending order."""
        return sorted({r.year for r in self.records})


@dataclass(frozen=True)
class Exclusion:
    id: str
    reason: str


@dataclass(frozen=True)
class FilterReport:
    """Which records the eligibility filter removed, and why."""

    excluded: tuple[Exclusion, ...]
    retained: int

    def to_json(self) -> dict:
        return {
            "excluded": [{"id": e.id, "reason": e.reason} for e in self.excluded],
            "retained": self.retained,
        }


def load_corpus(path: str | Path, format: Literal["jsonl", "csv"]) -> Corpus:
    """Load one corpus file.

    JSON Lines rows are objects with keys ``id`` (string), ``venue``
    (string), ``year`` (integer), and ``keywords`` (array of strings).
    CSV rows use the header ``id,venue,year,keywords`` with the keyword
    cell holding a ";"-separated list; cell entries are trimmed and empty
    entries dropped. Duplicate record ids are rejected.
    """
    path = Path(path)
    if format == "jsonl":
        records = _load_jsonl(path)
    elif format == "csv":
        records = _load_csv(path)
    else:
        raise CorpusError(f"unknown corpus format: {format!r}")
    _check_unique_ids(records, str(path))
    return Corpus(records=tuple(records))


def concat_corpora(corpora: Iterable[Corpus]) -> Corpus:
    """Concatenate corpora loaded from several files into one."""
    records: list[ArticleRecord] = []
    for corpus in corpora:
        records.extend(corpus.records)
    _check_unique_ids(records, "combined inputs")
    return Corpus(records=tuple(records))


def filter_eligible(
    corpus: Corpus, max_keywords: int = DEFAULT_MAX_KEYWORDS
) -> tuple[Corpus, FilterReport]:
    """Drop records with no keywords or with more than ``max_keywords``.

    Keyword counts are taken after removing exact (case-sensitive)
    duplicate strings within a record; the first occurrence order is
    preserved, and surviving keyword strings are never altered.
    """
    kept: list[ArticleRecord] = []
    excluded: list[Exclusion] = []
    for record in corpus.records:
        deduped = tuple(dict.fromkeys(record.keywords))
        if not deduped:
            excluded.append(Exclusion(record.id, REASON_NO_KEYWORDS))
        elif len(deduped) > max_keywords:
            excluded.append(Exclusion(record.id, REASON_TOO_MANY_KEYWORDS))
        else:
            kept.append(
                ArticleRecord(record.id, record.venue, record.year, deduped)
            )
    filtered = Corpus(records=tuple(kept))
    return filtered, FilterReport(excluded=tuple(excluded), retained=len(kept))


def _check_unique_ids(records: Iterable[ArticleRecord], source: str) -> None:
    seen: set[str] = set()
    for record in records:
        if record.id in seen:
            raise CorpusError(f"duplicate record id {record.id!r} in {source}")
        seen.add(record.id)


def _load_jsonl(path: Path) -> list[ArticleRecord]:
    records: list[ArticleRecord] = []
    # only "\n" ends a record: JSON strings may hold U+2028, which
    # str.splitlines also splits at, and "\r" is JSON whitespace
    lines = read_text(path, CorpusError).split("\n")
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        records.append(_record_from_mapping(row, f"{path}:{lineno}"))
    return records


def _load_csv(path: Path) -> list[ArticleRecord]:
    records: list[ArticleRecord] = []
    reader = csv.reader(io.StringIO(read_text(path, CorpusError), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusError(f"{path}: empty file, expected a header row") from None
    if tuple(h.strip() for h in header) != _CSV_COLUMNS:
        raise CorpusError(
            f"{path}:1: expected header {','.join(_CSV_COLUMNS)!r}, "
            f"got {','.join(header)!r}"
        )
    for row in reader:
        if not row:
            continue
        where = f"{path}:{reader.line_num}"
        if len(row) != len(_CSV_COLUMNS):
            raise CorpusError(
                f"{where}: expected {len(_CSV_COLUMNS)} fields, got {len(row)}"
            )
        rec_id, venue, year_text, cell = row
        try:
            year = int(year_text.strip())
        except ValueError:
            raise CorpusError(
                f"{where}: year must be an integer, got {year_text!r}"
            ) from None
        keywords = tuple(
            part.strip() for part in cell.split(";") if part.strip()
        )
        records.append(ArticleRecord(rec_id, venue, year, keywords))
    return records


def _record_from_mapping(row: object, where: str) -> ArticleRecord:
    if not isinstance(row, dict):
        raise CorpusError(f"{where}: expected a JSON object, got {type(row).__name__}")
    for key in ("id", "venue", "year", "keywords"):
        if key not in row:
            raise CorpusError(f"{where}: missing key {key!r}")
    rec_id, venue, year, keywords = row["id"], row["venue"], row["year"], row["keywords"]
    if not isinstance(rec_id, str):
        raise CorpusError(f"{where}: id must be a string")
    if not isinstance(venue, str):
        raise CorpusError(f"{where}: venue must be a string")
    if isinstance(year, bool) or not isinstance(year, int):
        raise CorpusError(f"{where}: year must be an integer")
    if not isinstance(keywords, list) or any(
        not isinstance(kw, str) for kw in keywords
    ):
        raise CorpusError(f"{where}: keywords must be an array of strings")
    return ArticleRecord(rec_id, venue, year, tuple(keywords))
