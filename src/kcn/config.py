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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, GraphError, read_text
from .graph import SliceSpec
from .normalize import DEFAULT_SYNONYM_THRESHOLD, default_lexicon_dir, xml_can_hold

_TOP_KEYS = {"inputs", "lexicon", "slices", "thresholds", "output_dir", "seed", "flags"}
_LEXICON_KEYS = {"protected", "abbrev", "merges"}
# each key is also the name of its RunConfig field, which the manifest echoes
THRESHOLD_KEYS = frozenset({"max_keywords", "synonym_threshold", "top_k", "profile_k"})
FLAG_KEYS = frozenset(
    {"exhaustive_pairing", "power_law_on", "discrete_power_law", "ego_degree_scope"}
)


@dataclass(frozen=True)
class InputSpec:
    path: Path
    format: str


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings plus the raw config for manifest echoing."""

    inputs: tuple[InputSpec, ...]
    protected_path: Path | None
    abbrev_path: Path | None
    merges_path: Path | None
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


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(read_text(path, ConfigError, "config "))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    base = path.parent

    inputs = _parse_inputs(raw.get("inputs"), base, path)
    protected, abbrev, merges = _parse_lexicon(raw.get("lexicon"), base, path)
    slices = _parse_slices(raw.get("slices"), path)

    thresholds = raw.get("thresholds", {})
    if not isinstance(thresholds, dict) or set(thresholds) - THRESHOLD_KEYS:
        raise ConfigError(f"{path}: thresholds must be an object with "
                          f"keys {sorted(THRESHOLD_KEYS)}")
    flags = raw.get("flags", {})
    if not isinstance(flags, dict) or set(flags) - FLAG_KEYS:
        raise ConfigError(
            f"{path}: flags must be an object with keys {sorted(FLAG_KEYS)}"
        )
    power_law_on = flags.get("power_law_on", "strength")
    if power_law_on not in ("strength", "degree"):
        raise ConfigError(f"{path}: power_law_on must be 'strength' or 'degree'")
    ego_scope = flags.get("ego_degree_scope", "ego")
    if ego_scope not in ("ego", "full"):
        raise ConfigError(f"{path}: ego_degree_scope must be 'ego' or 'full'")

    output_dir = raw.get("output_dir")
    if output_dir is not None and output_dir != "":  # null and "" mean absent
        output_dir = _resolve(base, output_dir, "output_dir", path)
    return RunConfig(
        inputs=inputs,
        protected_path=protected,
        abbrev_path=abbrev,
        merges_path=merges,
        slices=slices,
        max_keywords=_count(thresholds, "max_keywords", 10, path),
        synonym_threshold=_threshold(thresholds, path),
        top_k=_count(thresholds, "top_k", 20, path),
        profile_k=_count(thresholds, "profile_k", 10, path),
        output_dir=output_dir or None,
        seed=_seed(raw, path),
        exhaustive_pairing=_flag(flags, "exhaustive_pairing", path),
        power_law_on=power_law_on,
        discrete_power_law=_flag(flags, "discrete_power_law", path),
        ego_degree_scope=ego_scope,
        raw=raw,
    )


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _count(thresholds: dict, key: str, default: int, where: Path) -> int:
    value = thresholds.get(key, default)
    if not _is_int(value) or value < 1:
        raise ConfigError(
            f"{where}: {key} must be an integer of at least 1, got {value!r}"
        )
    return value


def _threshold(thresholds: dict, where: Path) -> float:
    value = thresholds.get("synonym_threshold", DEFAULT_SYNONYM_THRESHOLD)
    if not (_is_int(value) or isinstance(value, float)) or not 0 <= value <= 100:
        raise ConfigError(
            f"{where}: synonym_threshold must be a number from 0 to 100, got {value!r}"
        )
    return float(value)


def _flag(flags: dict, key: str, where: Path) -> bool:
    value = flags.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: {key} must be true or false, got {value!r}")
    return value


def _seed(raw: dict, where: Path) -> int:
    value = raw.get("seed", 0)
    if not _is_int(value):
        raise ConfigError(f"{where}: seed must be an integer, got {value!r}")
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
        if not isinstance(entry, dict) or "path" not in entry:
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


def _parse_lexicon(
    value: object, base: Path, where: Path
) -> tuple[Path | None, Path | None, Path | None]:
    defaults = default_lexicon_dir()
    names = {"protected": "protected.tsv", "abbrev": "abbrev.tsv",
             "merges": "merges.tsv"}
    if value is None:
        value = {}
    if not isinstance(value, dict) or set(value) - _LEXICON_KEYS:
        raise ConfigError(
            f"{where}: lexicon must be an object with keys {sorted(_LEXICON_KEYS)}"
        )
    out: list[Path | None] = []
    for key in ("protected", "abbrev", "merges"):
        if key not in value:
            out.append(defaults / names[key])  # packaged default
        elif value[key] is None:
            out.append(None)
        else:
            out.append(_resolve(base, value[key], f"lexicon {key}", where))
    return out[0], out[1], out[2]


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
        label = entry["label"]
        if not (isinstance(label, str) or _is_int(label)):
            raise ConfigError(
                f"{where}: slice {shown}: label must be a string or an integer"
            )
        if isinstance(label, str) and not xml_can_hold(label):
            raise ConfigError(
                f"{where}: slice {shown}: label holds a character GraphML cannot hold"
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
        except GraphError as exc:  # an empty label or year range
            raise ConfigError(f"{where}: slice {shown}: {exc}") from exc
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"{where}: slice labels must be unique")
    return tuple(specs)
