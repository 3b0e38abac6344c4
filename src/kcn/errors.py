"""Exception types shared across the package, and ``read_text``, the one
reader of every file it reads: config, corpus, lexicon and bundle files."""

from __future__ import annotations

from pathlib import Path


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


def read_text(path: str | Path, error: type[KcnError], what: str = "") -> str:
    """The UTF-8 text of ``path`` with its line ends as written, so each caller
    says where its records end; else ``error("cannot read <what><path>: ...")``."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}{path}: {exc}") from exc
