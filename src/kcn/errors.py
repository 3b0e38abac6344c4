"""Exception types shared across the package."""

from __future__ import annotations


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
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # rebuilt from both arguments when a forked worker pickles it back
        return type(self), (self.stage, self.cause)
