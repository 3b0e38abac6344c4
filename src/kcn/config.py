"""Run configuration loading.

A run is configured by a JSON file. Relative paths are resolved against
the config file's directory. Missing lexicon keys fall back to the files
shipped with the package; an explicit ``null`` disables that lexicon file.

Recognized keys::

    inputs      list of "path" or {"path": ..., "format": "jsonl"|"csv"}
    lexicon     {"protected": path|null, "abbrev": path|null,
                 "merges": path|null}            (optional)
    slices      list of {"label": ..., "years": [first, last]|"all"}
                or bare years                     (optional; default is one
                slice per corpus year plus "all"; labels are strings or
                integers, years are integers)
    thresholds  {"max_keywords": 10, "synonym_threshold": 90,
                 "top_k": 20, "profile_k": 10}    (optional; counts are
                 integers >= 1, synonym_threshold a number in 0..100)
    output_dir  path (optional; the CLI --out flag overrides it)
    seed        integer echoed into the manifest  (optional, default 0)
    flags       {"exhaustive_pairing": false, "power_law_on": "strength",
                 "discrete_power_law": false, "ego_degree_scope": "ego"}
                (optional; the two booleans are JSON true or false)

Any other key, at the top or inside one of these objects, is an error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Collection, NamedTuple

from .errors import ConfigError, GraphError, parse_json, read_text
from .graph import SliceSpec, safe_name
from .normalize import DEFAULT_SYNONYM_THRESHOLD, default_lexicon_dir

_TOP_KEYS = {"inputs", "lexicon", "slices", "thresholds", "output_dir", "seed", "flags"}
_INPUT_KEYS = ("path", "format")
_SLICE_KEYS = ("label", "years")
# each key names a load_lexicon parameter and its packaged file, <key>.tsv
_LEXICON_KEYS = ("protected", "abbrev", "merges")
# each key is also the name of its RunConfig field, which the manifest echoes
THRESHOLD_KEYS = frozenset({"max_keywords", "synonym_threshold", "top_k", "profile_k"})
FLAG_KEYS = frozenset(
    {"exhaustive_pairing", "power_law_on", "discrete_power_law", "ego_degree_scope"}
)


class InputSpec(NamedTuple):
    path: Path
    format: str


class RunConfig(NamedTuple):
    """Validated run settings plus the raw config for manifest echoing, and
    the config file's own ``path``, which no output may replace. ``lexicon``
    maps ``protected``, ``abbrev`` and ``merges`` to a file, or to None for
    a disabled one."""

    inputs: tuple[InputSpec, ...]
    lexicon: dict[str, Path | None]
    slices: tuple[SliceSpec, ...] | None
    max_keywords: int
    synonym_threshold: float
    top_k: int
    profile_k: int
    output_dir: Path | None
    seed: int
    exhaustive_pairing: bool
    power_law_on: str
    discrete_power_law: bool
    ego_degree_scope: str
    raw: dict
    path: Path


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _one_of(*choices: str) -> tuple[str, Callable[[object], bool]]:
    return " or ".join(map(repr, choices)), lambda value: value in choices


# what a setting must be, in the words of its error, and the test of a value
_COUNT = "an integer of at least 1", lambda value: _is_int(value) and value >= 1
_PERCENT = "a number from 0 to 100", lambda value: (
    (_is_int(value) or isinstance(value, float)) and 0 <= value <= 100
)
_INTEGER = "an integer", _is_int
_BOOLEAN = "true or false", lambda value: isinstance(value, bool)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    raw = parse_json(read_text(path, ConfigError, "config "), path, ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    base = path.parent

    inputs = _parse_inputs(raw.get("inputs"), base, path)
    lexicon = {key: default_lexicon_dir() / f"{key}.tsv" for key in _LEXICON_KEYS}
    given = raw.get("lexicon")  # null keeps every packaged file, as an absent key does
    given = _object({} if given is None else given, _LEXICON_KEYS, "lexicon", path)
    for key, file in given.items():
        lexicon[key] = None if file is None else _resolve(base, file, f"lexicon {key}", path)
    slices = _parse_slices(raw.get("slices"), path)
    thresholds = _object(raw.get("thresholds", {}), THRESHOLD_KEYS, "thresholds", path)
    flags = _object(raw.get("flags", {}), FLAG_KEYS, "flags", path)

    output_dir = raw.get("output_dir")
    if output_dir is not None and output_dir != "":  # null and "" mean absent
        output_dir = _resolve(base, output_dir, "output_dir", path)
    return RunConfig(
        inputs=inputs,
        lexicon=lexicon,
        slices=slices,
        max_keywords=_value(thresholds, "max_keywords", 10, _COUNT, path),
        synonym_threshold=float(
            _value(thresholds, "synonym_threshold", DEFAULT_SYNONYM_THRESHOLD, _PERCENT, path)
        ),
        top_k=_value(thresholds, "top_k", 20, _COUNT, path),
        profile_k=_value(thresholds, "profile_k", 10, _COUNT, path),
        output_dir=output_dir or None,
        seed=_value(raw, "seed", 0, _INTEGER, path),
        exhaustive_pairing=_value(flags, "exhaustive_pairing", False, _BOOLEAN, path),
        power_law_on=_value(
            flags, "power_law_on", "strength", _one_of("strength", "degree"), path
        ),
        discrete_power_law=_value(flags, "discrete_power_law", False, _BOOLEAN, path),
        ego_degree_scope=_value(flags, "ego_degree_scope", "ego", _one_of("ego", "full"), path),
        raw=raw,
        path=path,
    )


def _object(value: object, keys: Collection[str], what: str, where: Path) -> dict:
    """``value`` if it is a JSON object whose keys are all in ``keys``;
    otherwise an error naming ``what`` and the keys it may have."""
    if not isinstance(value, dict) or not set(value) <= set(keys):
        raise ConfigError(f"{where}: {what} must be an object with keys {sorted(keys)}")
    return value


def _value(section: dict, key: str, default: object, rule: tuple, where: Path):
    """``section[key]``, or ``default`` when it is absent, if it passes the
    test of ``rule``; otherwise an error saying what ``key`` must be."""
    value = section.get(key, default)
    expected, test = rule
    if not test(value):
        raise ConfigError(f"{where}: {key} must be {expected}, got {value!r}")
    return value


def _resolve(base: Path, value: object, key: str, where: Path) -> Path:
    if not isinstance(value, str) or "\0" in value:
        raise ConfigError(f"{where}: {key} must be a path string without NUL, got {value!r}")
    p = Path(value)
    return p if p.is_absolute() else base / p


def _parse_inputs(value: object, base: Path, where: Path) -> tuple[InputSpec, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: inputs must be a non-empty list")
    specs: list[InputSpec] = []
    for entry in value:
        if isinstance(entry, str):
            entry = {"path": entry}
        if "path" not in _object(entry, _INPUT_KEYS, f"input {json.dumps(entry)}", where):
            raise ConfigError(f"{where}: each input needs a path")
        p = _resolve(base, entry["path"], "input path", where)
        fmt = entry.get("format") or _infer_format(p, where)
        if fmt not in ("jsonl", "csv"):
            raise ConfigError(f"{where}: unknown input format {fmt!r}")
        specs.append(InputSpec(path=p, format=fmt))
    return tuple(specs)


def _infer_format(p: Path, where: Path) -> str:
    suffix = p.suffix.lower().lstrip(".")
    if suffix in ("jsonl", "csv"):
        return suffix
    raise ConfigError(
        f"{where}: cannot infer format of {p.name!r}; use a format key"
    )


def _parse_slices(value: object, where: Path) -> tuple[SliceSpec, ...] | None:
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: slices must be a non-empty list")
    specs: list[SliceSpec] = []
    for entry in value:
        if _is_int(entry):
            specs.append(SliceSpec.year(entry))
            continue
        shown = json.dumps(entry)
        if not isinstance(entry, dict) or "label" not in entry:
            raise ConfigError(
                f"{where}: slice {shown} is neither an integer year nor "
                "an object with a label"
            )
        _object(entry, _SLICE_KEYS, f"slice {shown}", where)
        label = entry["label"]
        if not (isinstance(label, str) or _is_int(label)):
            raise ConfigError(
                f"{where}: slice {shown}: label must be a string or an integer"
            )
        years = entry.get("years", "all")
        if years == "all":
            span = None
        elif isinstance(years, list) and len(years) == 2 and all(map(_is_int, years)):
            span = (years[0], years[1])
        else:
            raise ConfigError(
                f"{where}: slice {shown}: years must be two integers "
                '[first, last] or "all"'
            )
        try:
            specs.append(SliceSpec(label=str(label), years=span))
        except GraphError as exc:  # a label or year range SliceSpec rejects
            raise ConfigError(f"{where}: slice {shown}: {exc}") from exc
    # each label names its own directory, and some file systems ignore case
    names = [safe_name(s.label).casefold() for s in specs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(
                f"{where}: slice labels must be unique as directory names, ignoring "
                f"case: {specs[names.index(name)].label!r} and {specs[i].label!r}"
            )
    return tuple(specs)
