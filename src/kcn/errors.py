"""Exception types shared across the package, ``stage``, which tags a
failure with its pipeline stage, and the readers of every file it reads:
config, corpus, lexicon and bundle files. ``read_text`` decodes a file,
``parse_json`` parses JSON text, ``read_lines`` gives each non-blank line of
a file and ``read_csv`` a CSV file's header and rows; a record's error names
its ``<path>:<line>``."""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class KcnError(Exception):
    """Base class for every error raised by this package."""


class CorpusError(KcnError):
    """Unreadable, malformed, or internally inconsistent corpus input."""


class NormalizationError(KcnError):
    """A keyword cannot be normalized (for example, empty after folding)."""


class LexiconError(KcnError):
    """Invalid lexicon file or inconsistent rewrite map."""


class GraphError(KcnError):
    """Invalid graph construction or query (unknown node, empty slice)."""


class FitError(KcnError):
    """A distribution fit cannot be computed from the given values."""


class ConfigError(KcnError):
    """Invalid run configuration or output location."""


class StageError(KcnError):
    """Wraps a failure with the pipeline stage it occurred in.

    It pickles whatever its cause: a cause that does not survive a pickle
    round trip is sent as a ``KcnError`` with the same message.
    """

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        import pickle  # only here: importing it costs about 2 ms

        cause = self.cause
        try:
            pickle.loads(pickle.dumps(cause))
        except Exception:
            cause = KcnError(str(cause))
        return type(self), (self.stage, cause)


@contextmanager
def stage(name: str):
    """Re-raise a failure in the block as ``StageError(name, ...)``, unless
    it is one already."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def read_text(path: str | Path, error: type[KcnError], what: str = "") -> str:
    """The UTF-8 text of ``path`` with its line ends as written, so each caller
    says where its records end, less the byte order mark some editors save
    first; else ``error("cannot read <what><path>: ...")``."""
    try:
        # the mark is dropped by hand, as the utf-8-sig codec costs an import
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}{path}: {exc}") from exc


def parse_json(text: str, where: str | Path, error: type[KcnError]):
    """``json.loads(text)``; else ``error("<where>: invalid JSON: ...")``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON: {exc}") from exc


def read_lines(path: Path, error: type[KcnError]) -> Iterator[tuple[str, str]]:
    """``(<path>:<line>, line)`` for each non-blank line of ``path``."""
    # only "\n" ends a line: JSON strings may hold U+2028, which
    # str.splitlines also splits at, and "\r" is JSON whitespace
    for lineno, line in enumerate(read_text(path, error).split("\n"), 1):
        if line.strip():
            yield f"{path}:{lineno}", line


def read_csv(
    path: Path, error: type[KcnError], width: int
) -> tuple[list[str] | None, Iterator[tuple[str, list[str]]]]:
    """The header row of the CSV file at ``path``, None when it has none, and
    ``(<path>:<line>, row)`` for each non-empty row after it, where a row that
    is not ``width`` cells wide raises ``error``."""
    reader = csv.reader(io.StringIO(read_text(path, error), newline=""))
    return next(reader, None), _rows(reader, path, error, width)


def _rows(
    reader, path: Path, error: type[KcnError], width: int
) -> Iterator[tuple[str, list[str]]]:
    for row in reader:
        if row:
            where = f"{path}:{reader.line_num}"
            if len(row) != width:
                raise error(f"{where}: expected {width} fields, got {len(row)}")
            yield where, row
