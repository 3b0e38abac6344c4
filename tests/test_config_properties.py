"""Property test of config loading: any JSON object loads or is one ConfigError."""

from __future__ import annotations

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from kcn.config import FLAG_KEYS, THRESHOLD_KEYS, load_config
from kcn.errors import ConfigError

SCALARS = st.none() | st.booleans() | st.integers(-3, 2100) | st.floats() | st.text(max_size=6)
VALUES = st.recursive(  # any JSON value
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def objects(keys: list[str], values) -> st.SearchStrategy[dict]:
    return st.dictionaries(st.sampled_from(keys), values, max_size=len(keys))


def mostly(values) -> st.SearchStrategy:
    """A value of ``values``, or one time in four any JSON value."""
    return st.integers(1, 4).flatmap(lambda n: VALUES if n == 1 else values)


# for each key of a config, values its rules accept, with a mistyped key now
# and then, or else any JSON value; so most configs reach the later rules
INPUT = st.sampled_from(["c.jsonl", "c.csv"]) | st.fixed_dictionaries(
    {"path": st.sampled_from(["c.jsonl", "c.txt"])},
    optional={"format": st.sampled_from(["csv", "jsonl", "xml"]), "fromat": st.just("csv")},
)
SLICE = st.integers(2018, 2026) | st.fixed_dictionaries(
    {"label": st.sampled_from(["early", "Early", 2020, "all"])},
    optional={"years": st.sampled_from(["all", [2020, 2021], [2021, 2020]]),
              "year": st.just([2020, 2021])},
)
FIELDS = {
    "lexicon": objects(["protected", "abbrev", "merges", "merge"], st.none() | st.just("x.tsv")),
    "slices": st.lists(mostly(SLICE), min_size=1, max_size=3),
    "thresholds": objects([*THRESHOLD_KEYS, "topk"], st.integers(-1, 120) | st.floats()),
    "flags": objects([*FLAG_KEYS, "flag"],
                     st.booleans() | st.sampled_from(["strength", "degree", "ego", "full"])),
    "output_dir": st.just("out"),
    "seed": st.integers(),
}
CONFIGS = st.fixed_dictionaries(
    {"inputs": mostly(st.lists(mostly(INPUT), min_size=1, max_size=3))},
    optional={key: mostly(values) for key, values in FIELDS.items()},
)


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(CONFIGS)
def test_any_config_object_loads_or_is_one_config_error(tmp_path, raw):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw), "utf-8")
    try:
        config = load_config(p)
    except ConfigError as exc:
        assert str(exc).startswith(f"{p}: ")
        return
    # a loaded config's input and slice objects hold only their own keys
    for entry in raw["inputs"]:
        assert isinstance(entry, str) or set(entry) <= {"path", "format"}
    for entry in raw.get("slices") or []:
        assert not isinstance(entry, dict) or set(entry) <= {"label", "years"}
    assert len(config.inputs) == len(raw["inputs"])
