from __future__ import annotations

import csv
import errno
import gc
import hashlib
import io
import json
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from kcn import cli, pipeline
from kcn.bundle import _clip, ego_file_names
from kcn.config import load_config
from kcn.errors import ConfigError, StageError
from kcn.graph import WeightedGraph
from kcn.pipeline import _write_ego_files, run_pipeline
from kcn.trends import EmergingKeyword

from conftest import DATA
from test_trends import WORKER_COUNTS

CONFIG = DATA / "config.json"


def _run_cli(*args: str, env: dict | None = None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "kcn", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def _csv_rows(path: Path, **kwargs) -> list[dict[str, str]]:
    with path.open() as f:
        return list(csv.DictReader(f, **kwargs))


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def bundle(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("bundle")
    config = load_config(CONFIG)
    run_pipeline(config, out_dir=out, force=True)
    return out


# --- config loading ---------------------------------------------------------------


def test_load_config_resolves_relative_paths():
    config = load_config(CONFIG)
    assert config.inputs[0].path == DATA / "synthetic_corpus.jsonl"
    assert config.inputs[0].format == "jsonl"
    # omitted lexicon keys fall back to the packaged files
    assert config.lexicon["protected"] is not None
    assert config.lexicon["protected"].name == "protected.tsv"
    assert config.slices is None
    assert config.top_k == 20


def test_load_config_rejections(tmp_path):
    def write(payload) -> Path:
        p = tmp_path / "c.json"
        p.write_text(json.dumps(payload), "utf-8")
        return p

    base = {"inputs": [{"path": "x.jsonl", "format": "jsonl"}]}
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(write({**base, "bogus": 1}))
    with pytest.raises(ConfigError, match="thresholds"):
        load_config(write({**base, "thresholds": {"nope": 2}}))
    with pytest.raises(ConfigError, match="flags"):
        load_config(write({**base, "flags": {"nope": True}}))
    with pytest.raises(ConfigError, match="power_law_on"):
        load_config(write({**base, "flags": {"power_law_on": "edges"}}))
    with pytest.raises(ConfigError, match="ego_degree_scope"):
        load_config(write({**base, "flags": {"ego_degree_scope": "both"}}))
    with pytest.raises(ConfigError, match="inputs"):
        load_config(write({}))
    # summary.tsv, a UTF-8 file, cannot hold a lone surrogate
    with pytest.raises(ConfigError, match=r'slice \{"label": "\\ud800", "years": "all"\}: label holds'):
        load_config(write({**base, "slices": [{"label": "\ud800", "years": "all"}]}))
    with pytest.raises(ConfigError, match="invalid JSON"):
        p = tmp_path / "broken.json"
        p.write_text("{", "utf-8")
        load_config(p)
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"inputs": ["caf\xe9.jsonl"]}')
    with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(str(p))}: 'utf-8' codec"):
        load_config(p)
    # a path that is not a string, or holds NUL, is named by its key
    for payload, key in [
        ({"inputs": [{"path": 5}]}, "input path"),
        ({"inputs": [{"path": None}]}, "input path"),
        ({**base, "output_dir": True}, "output_dir"),
        ({**base, "output_dir": "o\u0000x"}, "output_dir"),
        ({**base, "lexicon": {"abbrev": 7}}, "lexicon abbrev"),
    ]:
        with pytest.raises(ConfigError, match=f"{key} must be a path string"):
            load_config(write(payload))
    assert load_config(write({**base, "output_dir": None})).output_dir is None


@pytest.mark.parametrize(
    ("raw", "message"),
    [
        ([], "config must be a JSON object"),
        ({"inputs": [{"format": "csv"}]}, "each input needs a path"),
        ({"inputs": [{"path": "c.txt", "format": "xml"}]}, "unknown input format 'xml'"),
        ({"inputs": ["c.txt"]}, "cannot infer format of 'c.txt'; use a format key"),
        ({"inputs": ["c.jsonl"], "lexicon": ["abbrev.tsv"]},
         "lexicon must be an object with keys ['abbrev', 'merges', 'protected']"),
        ({"inputs": ["c.jsonl"], "slices": []}, "slices must be a non-empty list"),
        ({"inputs": [{"path": "c.jsonl", "fromat": "csv"}]},
         """input {"path": "c.jsonl", "fromat": "csv"} must be an object with keys """
         "['format', 'path']"),
        ({"inputs": ["c.jsonl"], "slices": [{"label": "early", "year": [2020, 2021]}]},
         """slice {"label": "early", "year": [2020, 2021]} must be an object with keys """
         "['label', 'years']"),
    ],
    ids=["not-object", "input-without-path", "unknown-format", "unknown-suffix",
         "lexicon-not-object", "no-slices", "input-unknown-key", "slice-unknown-key"],
)
def test_load_config_names_the_file_of_a_rejected_config(tmp_path, raw, message):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw), "utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert str(err.value) == f"{p}: {message}"


def test_a_byte_order_mark_moves_no_output_byte_but_the_input_digests(tmp_path):
    # the config and a CSV corpus, each saved with a byte order mark, load
    # and run as they do without; the manifest hashes each file as it is
    lines = (DATA / "synthetic_corpus.jsonl").read_text("utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(["id", "venue", "year", "keywords"])
    writer.writerows([r["id"], r["venue"], r["year"], ";".join(r["keywords"])] for r in rows)
    corpus, config = tmp_path / "c.csv", tmp_path / "c.json"
    runs = []
    for encoding in ("utf-8", "utf-8-sig"):
        corpus.write_text(table.getvalue(), encoding)
        config.write_text(json.dumps({"inputs": ["c.csv"]}), encoding)
        loaded = load_config(config)
        out = tmp_path / encoding
        run_pipeline(loaded, out_dir=out, only={"meso"})
        tree = _tree(out)
        manifest = json.loads(tree.pop("manifest.json"))
        digest = hashlib.sha256(corpus.read_bytes()).hexdigest()
        assert manifest.pop("inputs") == [{"path": "c.csv", "sha256": digest}]
        runs.append((loaded, tree, manifest, digest))
    plain, marked = runs
    assert marked[0] == plain[0]  # the same RunConfig
    assert marked[1:3] == plain[1:3]  # the same files, and manifest but its inputs
    assert marked[3] != plain[3]  # the digest covers the mark
    assert len(plain[1]) > 5


@pytest.mark.parametrize(
    ("section", "key", "value"),
    [
        ("thresholds", "top_k", "many"),
        ("thresholds", "top_k", 0),
        ("thresholds", "top_k", 2.0),
        ("thresholds", "max_keywords", True),
        ("thresholds", "max_keywords", None),
        ("thresholds", "profile_k", -1),
        ("thresholds", "synonym_threshold", "x"),
        ("thresholds", "synonym_threshold", True),
        ("thresholds", "synonym_threshold", 100.5),
        ("thresholds", "synonym_threshold", -1),
        (None, "seed", "0"),
        (None, "seed", 1.5),
        (None, "seed", False),
        ("flags", "exhaustive_pairing", "false"),
        ("flags", "discrete_power_law", "no"),
        ("flags", "discrete_power_law", 1),
        ("flags", "power_law_on", "edges"),
        ("flags", "ego_degree_scope", "both"),
    ],
)
def test_load_config_rejects_bad_thresholds_and_seed(tmp_path, section, key, value):
    raw = json.loads(CONFIG.read_text("utf-8"))
    (raw[section] if section else raw)[key] = value
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw), "utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    must_be = {
        "top_k": "an integer of at least 1",
        "max_keywords": "an integer of at least 1",
        "profile_k": "an integer of at least 1",
        "synonym_threshold": "a number from 0 to 100",
        "seed": "an integer",
        "exhaustive_pairing": "true or false",
        "discrete_power_law": "true or false",
        "power_law_on": "'strength' or 'degree'",
        "ego_degree_scope": "'ego' or 'full'",
    }[key]
    assert str(err.value) == f"{p}: {key} must be {must_be}, got {value!r}"


def test_load_config_slice_forms(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps(
            {
                "inputs": ["corpus.jsonl"],
                "slices": [
                    2020,
                    {"label": "early", "years": [2019, 2021]},
                    {"label": "all", "years": "all"},
                ],
            }
        ),
        "utf-8",
    )
    config = load_config(p)
    labels = [s.label for s in config.slices]
    assert labels == ["2020", "early", "all"]
    assert config.slices[0].years == (2020, 2020)
    assert config.slices[1].years == (2019, 2021)
    assert config.slices[2].years is None
    # bare string inputs default to jsonl
    assert config.inputs[0].format == "jsonl"

    p.write_text(
        json.dumps({"inputs": ["c.jsonl"], "slices": [2020, 2020]}), "utf-8"
    )
    with pytest.raises(ConfigError, match="unique"):
        load_config(p)


@pytest.mark.parametrize(("labels", "named"), [(["AI", "ai"], "'AI' and 'ai'"),
                                               (["2020", "a/b", "a b"], "'a/b' and 'a b'")],
                         ids=["case", "sanitized"])
def test_load_config_rejects_labels_that_name_one_directory(tmp_path, labels, named):
    # on a file system that ignores case, as macOS's does by default,
    # slices/AI and slices/ai are one directory
    p = tmp_path / "c.json"
    slices = [{"label": label, "years": "all"} for label in labels]
    p.write_text(json.dumps({"inputs": ["c.jsonl"], "slices": slices}), "utf-8")
    with pytest.raises(ConfigError, match=f"unique.*{re.escape(named)}$"):
        load_config(p)


@pytest.mark.parametrize(
    ("entry", "named"),
    [
        (True, "slice true"),
        ({"label": "x", "years": [True, 2021]}, '"label": "x"'),
        ({"label": None, "years": "all"}, '"label": null'),
        ({"label": False}, '"label": false'),
        ({"label": "", "years": "all"}, '"label": ""'),
        ({"label": "x", "years": [2022, 2021]}, '"years": [2022, 2021]'),
    ],
    ids=["bare-true", "bool-year", "null-label", "false-label", "empty-label", "empty-years"],
)
def test_load_config_rejects_slices_that_are_not_ints_or_labels(tmp_path, entry, named):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"inputs": ["c.jsonl"], "slices": [entry]}), "utf-8")
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config(p)


def test_load_config_lexicon_null_disables(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps(
            {"inputs": ["c.jsonl"], "lexicon": {"protected": None}}
        ),
        "utf-8",
    )
    config = load_config(p)
    assert config.lexicon["protected"] is None
    assert config.lexicon["abbrev"] is not None  # others keep the default


def test_load_config_defaults_are_the_documented_ones(tmp_path):
    # the defaults README and the config module docstring give
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"inputs": [str(DATA / "synthetic_corpus.jsonl")]}), "utf-8")
    config = load_config(p)
    thresholds = {"max_keywords": 10, "synonym_threshold": 90.0, "top_k": 20, "profile_k": 10}
    flags = {
        "exhaustive_pairing": False,
        "power_law_on": "strength",
        "discrete_power_law": False,
        "ego_degree_scope": "ego",
    }
    for key, value in {**thresholds, **flags, "seed": 0, "output_dir": None}.items():
        assert repr(getattr(config, key)) == repr(value), key
    out = tmp_path / "b"
    run_pipeline(config, out_dir=out, only={"meso"})
    echo = json.loads((out / "manifest.json").read_text("utf-8"))["config"]
    assert echo["seed"] == 0
    assert echo["thresholds"] == thresholds
    assert echo["flags"] == flags
    assert repr(echo["thresholds"]["synonym_threshold"]) == "90.0"


# --- bundle layout and content ---------------------------------------------------------


def test_bundle_top_level_files(bundle):
    for name in (
        "manifest.json",
        "summary.tsv",
        "summary.json",
        "frequency.csv",
        "emerging.json",
        "filter_report.json",
        "audit.jsonl",
    ):
        assert (bundle / name).is_file(), name
    slice_dirs = sorted(p.name for p in (bundle / "slices").iterdir())
    assert slice_dirs == ["2020", "2021", "2022", "2023", "2024", "all"]


def test_bundle_slice_files(bundle):
    for label in ("2020", "all"):
        d = bundle / "slices" / label
        for name in (
            "edges.csv",
            "ccdf.tsv",
            "clustering_vs_degree.tsv",
            "knn_ratio_vs_degree.tsv",
            f"clusters_{label}.json",
            f"membership_{label}.csv",
            f"dendrogram_{label}.csv",
            f"betweenness_{label}.csv",
        ):
            assert (d / name).is_file(), f"{label}/{name}"


def test_manifest_contents(bundle):
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["bundle_format"] == 1
    assert manifest["tool"]["name"] == "kcn"
    assert manifest["records"] == {"loaded": 50, "retained": 48, "excluded": 2}
    assert "output_dir" not in json.dumps(manifest["config"])
    assert manifest["config"]["thresholds"]["top_k"] == 20
    entry = manifest["inputs"][0]
    assert entry["path"].endswith("synthetic_corpus.jsonl")
    assert len(entry["sha256"]) == 64
    for key in ("protected", "abbrev", "merges"):
        assert manifest["lexicon"][key]["source"].startswith("packaged:")
    assert manifest["keywords"]["distinct_canonical"] > 30


def test_manifest_echoes_a_disabled_lexicon_file_as_null(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"inputs": [str(DATA / "synthetic_corpus.jsonl")],
                             "lexicon": {"abbrev": None}}), "utf-8")
    run_pipeline(load_config(p), out_dir=tmp_path / "b", only={"meso"})
    lexicon = json.loads((tmp_path / "b" / "manifest.json").read_text("utf-8"))["lexicon"]
    assert lexicon["abbrev"] is None
    assert [lexicon[key]["source"] for key in ("protected", "merges")] == [
        "packaged:protected.tsv", "packaged:merges.tsv"]


def test_summary_tsv_and_json_agree(bundle):
    tsv_rows = _csv_rows(bundle / "summary.tsv", delimiter="\t")
    js = {row["slice"]: row for row in json.loads(
        (bundle / "summary.json").read_text()
    )}
    assert [r["years"] for r in tsv_rows] == list(js)
    for row in tsv_rows:
        full = js[row["years"]]
        assert int(row["n"]) == full["n"]
        assert int(row["m"]) == full["m"]
        # the tsv carries 3-decimal renderings of the full-precision values
        for col in ("d", "c", "z", "s", "r"):
            assert row[col] == f"{full[col]:.3f}"
    assert js["all"]["c_unweighted"] <= 1.0
    assert (js["all"]["power_law"] is None) == (
        js["all"]["power_law_error"] is not None
    )


def test_filter_report_matches_corpus_design(bundle):
    report = json.loads((bundle / "filter_report.json").read_text())
    assert report["retained"] == 48
    reasons = {e["id"]: e["reason"] for e in report["excluded"]}
    assert reasons == {
        "a0018": "no_keywords",
        "a0025": "too_many_keywords",
    }


def test_emerging_json_design(bundle):
    emerging = json.loads((bundle / "emerging.json").read_text())
    by_kw = {e["keyword"]: e["first_year"] for e in emerging}
    assert by_kw["large language model"] == "2023"
    assert by_kw["generative artificial intelligence"] == "2024"
    assert "artificial intelligence" not in by_kw  # present from the start
    years = [e["first_year"] for e in emerging]
    assert years == sorted(years)  # ordered by debut slice


def test_ego_networks_written_for_emerging_keywords(bundle):
    emerging = json.loads((bundle / "emerging.json").read_text())
    for entry in emerging:
        safe = entry["keyword"].replace(" ", "_")
        assert (bundle / f"ego_{safe}.graphml").is_file()


def test_ego_file_suffix_never_overwrites_another_ego(tmp_path):
    # "a b" and "a/b" both sanitize to ego_a_b; the suffix given to the
    # second must skip ego_a_b_2, which "a b 2" already holds
    keywords = ["a b", "a b 2", "a/b"]
    g = WeightedGraph.from_edges([(kw, "hub", i + 1) for i, kw in enumerate(keywords)])
    emerging = [EmergingKeyword(kw, "2021", 1.0) for kw in keywords]
    _write_ego_files(tmp_path, load_config(CONFIG), g, emerging)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["ego_a_b.graphml", "ego_a_b_2.graphml", "ego_a_b_3.graphml"]
    for name, ego in zip(files, keywords):
        text = (tmp_path / name).read_text("utf-8")
        labels = set(re.findall(r'<data key="d0">([^<]*)</data>', text))
        assert labels == {ego, "hub"}, name


def test_ego_file_names_that_fit_are_unchanged_and_long_ones_are_cut():
    fits = "k" * (200 - len("ego_.graphml"))
    assert ego_file_names([fits, "a b", "a/b"]) == [
        f"ego_{fits}.graphml", "ego_a_b.graphml", "ego_a_b_2.graphml"
    ]
    assert ego_file_names([fits + "k"]) == [f"ego_{fits}.graphml"]


def test_ego_file_names_keep_letters_of_every_script():
    assert ego_file_names(["学习分析", "教育", "学习/分析"]) == [
        "ego_学习分析.graphml", "ego_教育.graphml", "ego_学习_分析.graphml"
    ]


def test_long_keywords_sharing_a_prefix_get_distinct_ego_files(tmp_path):
    prefix = "learning analytics " * 15
    keywords = [prefix + "dashboards", prefix + "ethics", prefix + "x"]
    names = ego_file_names(keywords)
    assert len(set(names)) == 3
    assert all(len(name.encode()) <= 200 for name in names)
    g = WeightedGraph.from_edges([(kw, "hub", i + 1) for i, kw in enumerate(keywords)])
    emerging = [EmergingKeyword(kw, "2021", 1.0) for kw in keywords]
    _write_ego_files(tmp_path, load_config(CONFIG), g, emerging)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name, ego in zip(names, keywords):
        text = (tmp_path / name).read_text("utf-8")
        labels = set(re.findall(r'<data key="d0">([^<]*)</data>', text))
        assert labels == {ego, "hub"}, name


def test_long_multibyte_keyword_gets_a_capped_ego_file(tmp_path):
    keyword = "学习分析 ai " * 60
    [name] = ego_file_names([keyword])
    assert len(name.encode()) <= 200 and name.endswith(".graphml")
    # a cut never splits a character
    assert _clip("学习" * 100, 200) == "学习" * 33
    assert _clip("é" * 10, 5) == "éé"
    g = WeightedGraph.from_edges([(keyword, "hub", 1)])
    emerging = [EmergingKeyword(keyword, "2021", 1.0)]
    _write_ego_files(tmp_path, load_config(CONFIG), g, emerging)
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_run_with_a_300_character_keyword_writes_and_inspects_its_ego_file(tmp_path):
    keyword = "x" * 300
    records = [
        {"id": "r1", "venue": "v", "year": 2020, "keywords": ["alpha", "beta", "gamma"]},
        {"id": "r2", "venue": "v", "year": 2020, "keywords": ["beta", "gamma", "delta"]},
        {"id": "r3", "venue": "v", "year": 2021, "keywords": [keyword, "alpha", "beta"]},
        {"id": "r4", "venue": "v", "year": 2021, "keywords": [keyword, "gamma", "delta"]},
    ]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"inputs": [str(corpus)]}), "utf-8")
    out = tmp_path / "out"
    res = _run_cli("run", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    egos = [p.name for p in out.glob("ego_*.graphml")]
    assert egos == [f"ego_{'x' * (200 - len('ego_.graphml'))}.graphml"]
    res = _run_cli("inspect", keyword, "--bundle", str(out))
    assert res.returncode == 0, res.stderr
    assert f"ego network: {egos[0]}" in res.stdout.splitlines()


def test_membership_covers_largest_component(bundle):
    rows = _csv_rows(bundle / "slices/all/membership_all.csv")
    clusters = json.loads((bundle / "slices/all/clusters_all.json").read_text())
    assert sum(c["size"] for c in clusters["clusters"]) == len(rows)
    names = {c["id"]: c["name"] for c in clusters["clusters"]}
    for row in rows:
        assert row["cluster_name"] == names[int(row["cluster"])]
    # top-1 profile member is the cluster name
    for c in clusters["clusters"]:
        assert c["top"][0]["keyword"] == c["name"]
    assert 0.0 < clusters["q"] < 1.0


def test_dendrogram_q_is_cumulative(bundle):
    rows = _csv_rows(bundle / "slices/all/dendrogram_all.csv")
    q = None
    for row in rows:
        q_after = float(row["q_after"])
        if q is not None:
            assert q_after == pytest.approx(q + float(row["delta_q"]), abs=1e-9)
        q = q_after
    steps = [int(row["step"]) for row in rows]
    assert steps == list(range(1, len(rows) + 1))


def test_betweenness_csv_ranked(bundle):
    rows = _csv_rows(bundle / "slices/all/betweenness_all.csv")
    assert 0 < len(rows) <= 20
    values = [float(r["value"]) for r in rows]
    assert values == sorted(values, reverse=True)
    assert [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))


def test_frequency_csv_counts(bundle):
    rows = _csv_rows(bundle / "frequency.csv")
    assert rows[0]["keyword"] == "machine learning"
    counts = [int(r["count"]) for r in rows]
    assert counts == sorted(counts, reverse=True)


# --- pipeline behavior ------------------------------------------------------------------


def test_two_runs_are_byte_identical(tmp_path):
    config = load_config(CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_pipeline(config, out_dir=out_a)
    run_pipeline(config, out_dir=out_b)
    assert _tree(out_a) == _tree(out_b)


def test_only_subset_is_byte_identical_with_full_run(tmp_path, bundle):
    config = load_config(CONFIG)
    out = tmp_path / "macro_only"
    run_pipeline(config, out_dir=out, only={"macro"})
    subset = _tree(out)
    full = _tree(bundle)
    # no meso or micro artifacts in a macro-only run
    assert not any("clusters" in name or "betweenness" in name for name in subset)
    assert "emerging.json" not in subset
    for name, blob in subset.items():
        assert full[name] == blob, f"{name} differs from the full run"


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_each_year_slice_graph_is_dropped_before_the_next_is_analysed(
    tmp_path, monkeypatch, workers
):
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    # either process appends a line per build and per check, so the slices
    # a forked worker analyses are checked too
    seen = tmp_path / "seen.jsonl"
    built = []  # (slice, weak reference to its graph), in build order
    build = pipeline.build_kcn
    analyze = pipeline._analyze_slice
    betweenness = pipeline.weighted_betweenness

    def record(kind, label, alive):
        with seen.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps([kind, label, alive]) + "\n")

    def tracking_build(corpus, spec):
        g = build(corpus, spec)
        built.append((spec, weakref.ref(g)))
        record("build", spec.label, [])
        return g

    def alive_besides(g):
        # earlier year-slice graphs still alive in this process
        gc.collect()
        return [
            s.label for s, ref in built
            if s.years is not None and ref() is not None and ref() is not g
        ]

    def checking_analyze(config, stages, g, spec, out):
        record("analyze", spec.label, alive_besides(g))
        return analyze(config, stages, g, spec, out)

    def checking_betweenness(g):
        record("betweenness", None, alive_besides(g))
        return betweenness(g)

    monkeypatch.setattr(pipeline, "build_kcn", tracking_build)
    monkeypatch.setattr(pipeline, "_analyze_slice", checking_analyze)
    monkeypatch.setattr(pipeline, "weighted_betweenness", checking_betweenness)
    result = run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    lines = [json.loads(line) for line in seen.read_text("utf-8").splitlines()]
    builds = [line for line in lines if line[0] == "build"]
    checks = [line for line in lines if line[0] != "build"]
    # each slice graph is built once, in the slice phase, and analysed and
    # ranked by betweenness once; then the whole corpus once more, for the
    # ego networks of the emerging keywords
    assert result["emerging"] and len(result["slices"]) > 1
    assert [kind for kind, _, _ in checks].count("betweenness") == len(result["slices"])
    assert sorted(label for _, label, _ in builds) == sorted([*result["slices"], "all"])
    assert builds[-1][1] == "all"
    assert sorted(label for kind, label, _ in checks if kind == "analyze") == sorted(
        result["slices"]
    )
    assert [alive for _, _, alive in checks] == [[]] * len(checks)


def test_output_dir_protection(tmp_path):
    config = load_config(CONFIG)
    out = tmp_path / "busy"
    out.mkdir()
    (out / "keep.txt").write_text("do not clobber", "utf-8")
    with pytest.raises(ConfigError, match="not empty"):
        run_pipeline(config, out_dir=out)
    assert (out / "keep.txt").read_text() == "do not clobber"
    run_pipeline(config, out_dir=out, force=True)
    assert not (out / "keep.txt").exists()
    assert (out / "manifest.json").is_file()


@pytest.mark.parametrize("force", [False, True])
def test_output_path_that_is_a_file_is_rejected(tmp_path, force):
    out = tmp_path / "results"
    out.write_text("not a bundle", "utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{out} is not a directory")):
        run_pipeline(load_config(CONFIG), out_dir=out, force=force)
    assert out.read_text("utf-8") == "not a bundle"
    assert os.listdir(tmp_path) == ["results"]


@pytest.mark.parametrize("case", ["under_a_file", "link_loop"])
def test_output_path_that_cannot_be_made_is_one_error_line(tmp_path, capsys, case):
    if case == "under_a_file":
        (tmp_path / "results").write_text("not a bundle", "utf-8")
        out = tmp_path / "results" / "sub"
    else:
        out = tmp_path / "results"
        out.symlink_to(out)
    assert cli.main(["run", "--config", str(CONFIG), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"kcn: error: cannot write {out}: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["results"]
    if case == "under_a_file":
        assert (tmp_path / "results").read_text("utf-8") == "not a bundle"


@pytest.mark.parametrize(
    "args, out, named",
    [
        (["run", "--config", "data/config.json", "--force"], "data",
         "data/synthetic_corpus.jsonl"),
        (["export", "--config", "data/config.json", "--format", "csv"],
         "data/synthetic_corpus.jsonl", "data/synthetic_corpus.jsonl"),
        (["run", "--config", "lexicon.json", "--force"], "lex", "lex/protected.tsv"),
        # the config file itself, away from the corpus
        (["run", "--config", "out/config.json", "--force"], "out", "out/config.json"),
        (["export", "--config", "out/config.json", "--format", "csv"],
         "out/config.json", "out/config.json"),
    ],
    ids=["run-over-corpus-directory", "export-over-corpus", "run-over-lexicon-directory",
         "run-over-config-directory", "export-over-config"],
)
def test_an_output_never_replaces_an_input(tmp_path, monkeypatch, capsys, args, out, named):
    # refused before anything is written, so the next run still finds its inputs
    shutil.copytree(DATA, tmp_path / "data")
    (tmp_path / "lex").mkdir()
    (tmp_path / "lex" / "protected.tsv").write_text("analytics\n", "utf-8")
    (tmp_path / "lexicon.json").write_text(json.dumps({
        "inputs": ["data/synthetic_corpus.jsonl"], "lexicon": {"protected": "lex/protected.tsv"},
    }), "utf-8")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "config.json").write_text(json.dumps({
        "inputs": ["../data/synthetic_corpus.jsonl"],
    }), "utf-8")
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)
    assert cli.main([*args, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"kcn: error: cannot write {out}: it would replace the input {named}\n"
    )
    assert _tree(tmp_path) == before
    assert sorted(os.listdir(tmp_path)) == ["data", "lex", "lexicon.json", "out"]


@pytest.mark.parametrize("command", ["run", "export"])
def test_empty_out_is_rejected_and_touches_nothing(tmp_path, monkeypatch, capsys, command):
    # Path("") is ".", so an empty --out would name the working directory,
    # which run --force would replace with a bundle
    monkeypatch.chdir(tmp_path)
    (tmp_path / "precious.txt").write_text("keep", "utf-8")
    loaded = []
    monkeypatch.setattr(cli, "load_config", loaded.append)
    rest = {"run": ["--force"], "export": ["--format", "graphml"]}[command]
    assert cli.main([command, "--config", str(CONFIG), "--out", "", *rest]) == 1
    assert capsys.readouterr().err == "kcn: error: --out must not be empty\n"
    assert loaded == []
    assert os.listdir(tmp_path) == ["precious.txt"]
    assert (tmp_path / "precious.txt").read_text("utf-8") == "keep"


def test_failure_removes_partial_bundle(tmp_path):
    bad_corpus = tmp_path / "bad.jsonl"
    bad_corpus.write_text(
        '{"id": "r1", "venue": "v", "year": 2020, "keywords": ["ok"]}\n'
        '{"id": "r2", "venue": "v", "year": 2020, "keywords": ["---"]}\n',
        "utf-8",
    )
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps({"inputs": [str(bad_corpus)]}), "utf-8"
    )
    out = tmp_path / "out"
    with pytest.raises(StageError, match=r"\[normalize\]"):
        run_pipeline(load_config(cfg), out_dir=out)
    assert not out.exists()


@pytest.mark.parametrize("force", [False, True])
def test_run_through_a_link_keeps_the_link(tmp_path, bundle, force):
    real = tmp_path / "real"
    if force:
        shutil.copytree(bundle, real)
        (real / "stale.txt").write_text("from before the rerun", "utf-8")
    else:
        real.mkdir()
    link = tmp_path / "link"
    link.symlink_to(real, target_is_directory=True)
    run_pipeline(load_config(CONFIG), out_dir=link, force=force)
    assert link.is_symlink()
    assert _tree(real) == _tree(bundle)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]


def test_late_failure_under_force_keeps_old_bundle(tmp_path, bundle, monkeypatch):
    old = tmp_path / "old"
    shutil.copytree(bundle, old)
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {"inputs": [str(DATA / "synthetic_corpus.jsonl")], "slices": [2020, 1999]}
        ),
        "utf-8",
    )
    written = []
    analyze = pipeline._analyze_slice

    def recording_analyze(config, stages, g, spec, out):
        result = analyze(config, stages, g, spec, out)
        written.append(spec.label)
        return result

    monkeypatch.setattr(pipeline, "_analyze_slice", recording_analyze)
    with pytest.raises(StageError, match=r"\[build\]"):
        run_pipeline(load_config(cfg), out_dir=old, force=True)
    assert written == ["2020"]  # the run failed after writing one slice
    assert _tree(old) == _tree(bundle)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "old"]


def test_failed_move_into_place_under_force_keeps_old_bundle(tmp_path, bundle, monkeypatch):
    old = tmp_path / "old"
    shutil.copytree(bundle, old)
    replace = os.replace

    def failing_replace(src, dst):
        # only the move of the staging tree, .old.<hex>, onto the target
        if re.fullmatch(r"\.old\.[0-9a-f]+", Path(src).name):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(old))}: "):
        run_pipeline(load_config(CONFIG), out_dir=old, force=True)
    assert _tree(old) == _tree(bundle)
    assert os.listdir(tmp_path) == ["old"]


def test_sigkilled_run_under_force_keeps_old_bundle(tmp_path, bundle):
    old = tmp_path / "old"
    shutil.copytree(bundle, old)
    (old / "marker.txt").write_text("from before the rerun", "utf-8")
    before = _tree(old)
    proc = subprocess.Popen(
        [sys.executable, "-m", "kcn", "run", "--config", str(CONFIG),
         "--out", str(old), "--force"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not any(p.name.startswith(".old.") for p in tmp_path.iterdir()):
            assert proc.poll() is None, "the run ended before its sibling appeared"
            assert time.monotonic() < deadline
            time.sleep(0.001)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    assert _tree(old) == before


def test_no_output_dir_anywhere_is_an_error():
    config = load_config(CONFIG)
    with pytest.raises(ConfigError, match="output"):
        run_pipeline(config)


def test_unknown_stage_rejected(tmp_path):
    config = load_config(CONFIG)
    with pytest.raises(ConfigError, match="unknown stages"):
        run_pipeline(config, out_dir=tmp_path / "x", only={"nano"})


def test_empty_slice_fails_with_stage_error(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "inputs": [str(DATA / "synthetic_corpus.jsonl")],
                "slices": [1999],
            }
        ),
        "utf-8",
    )
    out = tmp_path / "out"
    with pytest.raises(StageError, match="selects no records"):
        run_pipeline(load_config(cfg), out_dir=out)
    assert not out.exists()


@pytest.mark.parametrize("label", [".", "..", "a\tb", "x\ny"])
def test_dot_and_control_character_slice_labels_rejected(tmp_path, label):
    # slices/. and slices/.. would be the slices directory and the bundle
    # root; a tab or a line end would split the label's row of summary.tsv
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "inputs": [str(DATA / "synthetic_corpus.jsonl")],
                "slices": [{"label": label, "years": "all"}],
            }
        ),
        "utf-8",
    )
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=re.escape(repr(label))):
        run_pipeline(load_config(cfg), out_dir=out)
    assert not out.exists()


def test_slice_labels_checked_before_ingest(tmp_path):
    # the input does not exist, so reaching ingest would fail as [ingest]
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "inputs": [str(tmp_path / "absent.jsonl")],
                "slices": [{"label": "..", "years": "all"}],
            }
        ),
        "utf-8",
    )
    with pytest.raises(ConfigError, match=re.escape("'..'")):
        run_pipeline(load_config(cfg), out_dir=tmp_path / "out")


def test_bad_slice_label_keeps_old_bundle_under_force(tmp_path, bundle):
    old = tmp_path / "old"
    shutil.copytree(bundle, old)
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "inputs": [str(DATA / "synthetic_corpus.jsonl")],
                "slices": [{"label": "..", "years": "all"}],
            }
        ),
        "utf-8",
    )
    with pytest.raises(ConfigError, match=re.escape("'..'")):
        run_pipeline(load_config(cfg), out_dir=old, force=True)
    assert _tree(old) == _tree(bundle)


def test_cjk_slice_labels_name_their_own_directories(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "inputs": [str(DATA / "synthetic_corpus.jsonl")],
                "slices": [
                    {"label": "学习", "years": [2020, 2022]},
                    {"label": "教育", "years": "all"},
                ],
            }
        ),
        "utf-8",
    )
    out = tmp_path / "out"
    run_pipeline(load_config(cfg), out_dir=out, only={"macro", "meso"})
    assert sorted(p.name for p in (out / "slices").iterdir()) == ["学习", "教育"]
    assert (out / "slices" / "学习" / "clusters_学习.json").is_file()
    assert (out / "slices" / "教育" / "edges.csv").is_file()


def test_slice_label_over_200_bytes_keeps_old_bundle_under_force(tmp_path, bundle):
    old = tmp_path / "old"
    shutil.copytree(bundle, old)
    label = "x" * 300
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "inputs": [str(DATA / "synthetic_corpus.jsonl")],
                "slices": [{"label": label, "years": "all"}],
            }
        ),
        "utf-8",
    )
    with pytest.raises(ConfigError, match=re.escape(repr(label))):
        run_pipeline(load_config(cfg), out_dir=old, force=True)
    assert _tree(old) == _tree(bundle)


# --- command line ------------------------------------------------------------------------


def test_cli_run_and_rerun_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    first = _run_cli("run", "--config", str(CONFIG), "--out", str(out_a))
    assert first.returncode == 0, first.stderr
    assert "bundle written" in first.stdout
    assert "emerging keywords:" in first.stdout
    second = _run_cli("run", "--config", str(CONFIG), "--out", str(out_b))
    assert second.returncode == 0
    assert _tree(out_a) == _tree(out_b)
    assert first.stdout.replace(str(out_a), "") == second.stdout.replace(
        str(out_b), ""
    )


def test_cli_run_only_flag(tmp_path):
    out = tmp_path / "micro"
    res = _run_cli(
        "run", "--config", str(CONFIG), "--out", str(out), "--only", "micro"
    )
    assert res.returncode == 0, res.stderr
    assert (out / "emerging.json").is_file()
    assert not (out / "summary.tsv").exists()


def test_cli_error_reporting(tmp_path):
    res = _run_cli("run", "--config", str(tmp_path / "absent.json"))
    assert res.returncode == 1
    assert res.stderr.startswith("kcn: error:")

    out = tmp_path / "busy"
    out.mkdir()
    (out / "x").write_text("x", "utf-8")
    res = _run_cli("run", "--config", str(CONFIG), "--out", str(out))
    assert res.returncode == 1
    assert "--force" in res.stderr or "not empty" in res.stderr


@pytest.mark.parametrize("damaged", ["config", "corpus-jsonl", "corpus-csv", "lexicon"])
def test_cli_run_input_that_is_not_utf8_is_one_error_line_naming_it(tmp_path, capsys, damaged):
    raw = json.loads(CONFIG.read_text("utf-8"))
    raw["inputs"] = [str(DATA / "synthetic_corpus.jsonl")]
    bad = tmp_path / f"{damaged}.bad"
    if damaged == "config":
        bad.write_bytes(json.dumps(raw).encode()[:-1] + b', "x": "\xff"}')
        config = bad
    else:
        bad.write_bytes(b"\xff\n")
        if damaged == "lexicon":
            raw["lexicon"] = {"protected": str(bad)}
        else:
            raw["inputs"] = [{"path": str(bad), "format": damaged.split("-")[1]}]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), "utf-8")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("kcn: error: ")
    assert f"{bad}: 'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.parametrize("bad", ["alpha\u0001beta", "x\ud800y"])
@pytest.mark.parametrize("command", ["run", "export"])
def test_cli_keyword_graphml_cannot_hold_is_one_normalize_line(tmp_path, capsys, bad, command):
    records = [("a", 2020, [bad, "gamma", "delta"]), ("b", 2021, ["gamma", "delta", "eps"]),
               ("c", 2021, [bad, "eps"])]
    (tmp_path / "c.jsonl").write_text("".join(
        json.dumps({"id": i, "venue": "v", "year": y, "keywords": kws}) + "\n"
        for i, y, kws in records
    ), "utf-8")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"inputs": ["c.jsonl"]}), "utf-8")
    out = tmp_path / "keep"
    if command == "run":
        out.mkdir()
        (out / "x").write_text("old bundle", "utf-8")
        args = ["--out", str(out), "--force"]
    else:
        out.write_text("old graph", "utf-8")
        args = ["--format", "graphml", "--out", str(out)]
    before = _tree(tmp_path)
    assert cli.main([command, "--config", str(config), *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"kcn: error: [normalize] record 'a': keyword holds a character GraphML "
        f"cannot hold: {bad!r}\n"
    )
    assert _tree(tmp_path) == before


def test_cli_inspect_known_keyword(bundle):
    res = _run_cli("inspect", "Neural Networks", "--bundle", str(bundle))
    assert res.returncode == 0, res.stderr
    assert "canonical: neural network" in res.stdout
    assert "fold: Neural Networks -> neural networks" in res.stdout
    assert "singular: neural networks -> neural network" in res.stdout
    assert "articles:" in res.stdout
    assert "[all]" in res.stdout


def test_cli_inspect_prints_each_slice_row_as_a_dict_reader_reads_it(bundle, capsys):
    # guards the keyed reader against a swapped column: for every keyword,
    # each slice's cluster and betweenness rank come from the named columns
    labels = json.loads((bundle / "manifest.json").read_text("utf-8"))["slices"]
    tables = {
        label: [
            {row["keyword"]: row for row in _csv_rows(path)} if path.is_file() else {}
            for path in (bundle / "slices" / label / f"{kind}_{label}.csv"
                         for kind in ("membership", "betweenness"))
        ]
        for label in labels
    }
    counts = {row["keyword"]: row["count"] for row in _csv_rows(bundle / "frequency.csv")}
    # shows the check sees rows: every slice has clusters and a ranking
    assert counts and all(m and b for m, b in tables.values())
    for keyword, count in counts.items():
        assert cli.main(["inspect", keyword, "--bundle", str(bundle)]) == 0
        expected = [f"canonical: {keyword}", f"articles: {count}"]
        for label in labels:
            membership, betweenness = tables[label]
            parts = []
            if keyword in membership:
                row = membership[keyword]
                parts.append(f"cluster {row['cluster']} ({row['cluster_name']})")
            if keyword in betweenness:
                row = betweenness[keyword]
                parts.append(f"betweenness rank {row['rank']} ({row['value']})")
            expected.append(f"  [{label}] " + ("; ".join(parts) if parts else "-"))
        printed = capsys.readouterr().out.splitlines()
        assert printed[1:len(expected) + 1] == expected, keyword


def test_cli_inspect_follows_every_rule(tmp_path):
    # "TLA (Tee)" folds, loses its parenthetical, expands as a short form,
    # singularizes and merges into the more frequent "short form"
    (tmp_path / "abbrev.tsv").write_text("tla\tthree letter acronyms\n", "utf-8")
    (tmp_path / "merges.tsv").write_text("three letter acronym\tshort form\tallow\n", "utf-8")
    records = [
        ("r1", 2020, ["TLA (Tee)", "alpha"]),
        ("r2", 2020, ["short form", "alpha"]),
        ("r3", 2021, ["short form", "beta"]),
        ("r4", 2021, ["alpha", "beta"]),
    ]
    (tmp_path / "c.jsonl").write_text("".join(
        json.dumps({"id": i, "venue": "v", "year": y, "keywords": kws}) + "\n"
        for i, y, kws in records
    ), "utf-8")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "inputs": ["c.jsonl"],
        "lexicon": {"abbrev": "abbrev.tsv", "merges": "merges.tsv"},
    }), "utf-8")
    out = tmp_path / "b"
    res = _run_cli("run", "--config", str(config), "--out", str(out), "--only", "micro")
    assert res.returncode == 0, res.stderr
    res = _run_cli("inspect", "TLA (Tee)", "--bundle", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[:7] == [
        "keyword: TLA (Tee)",
        "  fold: TLA (Tee) -> tla (tee)",
        "  paren: tla (tee) -> tla",
        "  abbrev: tla -> three letter acronyms",
        "  singular: three letter acronyms -> three letter acronym",
        "  merge: three letter acronym -> short form",
        "canonical: short form",
    ]


def test_cli_inspect_unknown_keyword_suggests(bundle):
    res = _run_cli("inspect", "neural netwrk", "--bundle", str(bundle))
    assert res.returncode == 1
    assert "not found" in res.stderr
    assert "neural network" in res.stderr


@pytest.mark.parametrize(
    ("keyword", "ego"),
    [("a/b", "ego_a_b_3.graphml"), ("a b 2", "ego_a_b_2.graphml"), ("a_b", None)],
)
def test_cli_inspect_names_the_ego_file_written_for_the_keyword(tmp_path, keyword, ego):
    # "a/b" sanitizes like "a b" but comes third, so its file has a suffix;
    # "a_b" is not emerging, though ego_a_b.graphml matches its name
    keywords = ["a b", "a b 2", "a/b"]
    g = WeightedGraph.from_edges([(kw, "hub", i + 1) for i, kw in enumerate(keywords)])
    emerging = [EmergingKeyword(kw, "2021", 1.0) for kw in keywords]
    _write_ego_files(tmp_path, load_config(CONFIG), g, emerging)
    entries = [{"keyword": kw, "first_year": "2021", "value": 1.0} for kw in keywords]
    (tmp_path / "emerging.json").write_text(json.dumps(entries), "utf-8")
    (tmp_path / "manifest.json").write_text("{}", "utf-8")
    res = _run_cli("inspect", keyword, "--bundle", str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = [line for line in res.stdout.splitlines() if line.startswith("ego network:")]
    assert lines == ([] if ego is None else [f"ego network: {ego}"])


@pytest.mark.filterwarnings("ignore:assortativity undefined")
def test_cli_inspect_finds_a_keyword_that_is_only_a_later_edge_target(tmp_path, capsys):
    # under --only macro the edge lists are the only vocabulary, and "y" is
    # in no first cell and in no first row of "hub"
    (tmp_path / "c.jsonl").write_text("".join(
        json.dumps({"id": i, "venue": "v", "year": 2020, "keywords": ["hub", kw]}) + "\n"
        for i, kw in (("r1", "x"), ("r2", "y"))
    ), "utf-8")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"inputs": ["c.jsonl"]}), "utf-8")
    out = tmp_path / "b"
    assert cli.main(["run", "--config", str(config), "--out", str(out), "--only", "macro"]) == 0
    assert (out / "slices" / "all" / "edges.csv").read_text("utf-8").endswith("hub,x,1\nhub,y,1\n")
    capsys.readouterr()
    assert cli.main(["inspect", "y", "--bundle", str(out)]) == 0
    assert capsys.readouterr().out == "keyword: y\ncanonical: y\n  [2020] -\n  [all] -\n"


def test_cli_inspect_of_a_keyword_that_folds_to_nothing_looks_it_up_as_written(bundle, capsys):
    # folding rejects "---", so no fold step is shown and it is looked up as it is
    assert cli.main(["inspect", "--bundle", str(bundle), "--", "---"]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("kcn: error: keyword '---' not found; nearest canonical keywords: ")
    assert len(printed.err.splitlines()) == 1


def test_cli_inspect_needs_finished_bundle(tmp_path):
    res = _run_cli("inspect", "anything", "--bundle", str(tmp_path))
    assert res.returncode == 1
    assert "manifest.json" in res.stderr


def _cut_row(first: str | None):
    """A damage that cuts to its first cell the first CSV row after the header
    whose first cell is ``first``, or whatever its first cell when ``first`` is None."""

    def cut(text: str) -> str:
        lines = text.split("\n")
        i = next(i for i in range(1, len(lines))
                 if first is None or lines[i].split(",")[0] == first)
        lines[i] = lines[i].split(",")[0]
        return "\n".join(lines)

    return cut


@pytest.mark.parametrize(
    ("name", "text"),
    [
        ("manifest.json", "{"),
        ("manifest.json", "[]"),
        ("emerging.json", '[{"keyword": '),
        ("audit.jsonl", '{"raw": "x"\n'),
        # one byte that is not UTF-8
        ("manifest.json", b"\xff"),
        ("emerging.json", b"[\xff]"),
        ("audit.jsonl", b"\xff\n"),
        ("frequency.csv", b"keyword,count\n\xff,1\n"),
        ("slices/all/edges.csv", b"source,target,weight\n\xff,b,1\n"),
        # a row of one cell: the inspected keyword's, or any edge
        ("frequency.csv", _cut_row("neural network")),
        ("slices/all/membership_all.csv", _cut_row("neural network")),
        ("slices/2020/betweenness_2020.csv", _cut_row("neural network")),
        ("slices/all/edges.csv", _cut_row(None)),
    ],
    ids=["manifest", "manifest-not-object", "emerging", "audit", "manifest-utf8",
         "emerging-utf8", "audit-utf8", "frequency-utf8", "slice-csv-utf8",
         "frequency-row", "membership-row", "betweenness-row", "edges-row"],
)
def test_cli_inspect_damaged_bundle_file_is_one_error_line(tmp_path, bundle, name, text):
    damaged = tmp_path / "bundle"
    shutil.copytree(bundle, damaged)
    path = damaged / name
    if callable(text):
        text = text(path.read_text("utf-8"))
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    before = _tree(damaged)
    res = _run_cli("inspect", "neural network", "--bundle", str(damaged))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("kcn: error:")
    assert len(res.stderr.splitlines()) == 1
    assert str(path) in res.stderr
    assert _tree(damaged) == before


@pytest.mark.parametrize(
    ("name", "text", "where"),
    [
        ("emerging.json", '{"a": 1}', ""),
        ("emerging.json", '[{"keyword": "x"}, {"keyword": 3}]', ": entry 2"),
        ("emerging.json", '[["x"]]', ": entry 1"),
        ("audit.jsonl", '{"rule": "fold", "raw": "A", "canonical": "a"}\n[1]\n', ":2"),
        ("audit.jsonl", '{"rule": "merge"}\n', ":1"),
        ("audit.jsonl", '{"rule": "merge", "raw": "x", "canonical": null}\n', ":1"),
    ],
    ids=["emerging-object", "emerging-keyword", "emerging-entry", "audit-list",
         "audit-missing", "audit-null"],
)
def test_cli_inspect_bundle_entry_of_the_wrong_shape_is_one_error_line(
    tmp_path, bundle, name, text, where
):
    damaged = tmp_path / "bundle"
    shutil.copytree(bundle, damaged)
    (damaged / name).write_text(text, "utf-8")
    res = _run_cli("inspect", "neural network", "--bundle", str(damaged))
    assert res.returncode == 1
    assert res.stderr.startswith(f"kcn: error: {damaged / name}{where}: ")
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    ("slices", "message"),
    [
        (7, "'slices' must be a list of strings"),
        ([2020, "all"], "'slices' must be a list of strings"),
        (["2020", "."], "slice label '.' cannot name a slice directory"),
        ([".."], "slice label '..' cannot name a slice directory"),
        (["x" * 300], f"slice label '{'x' * 300}' is over 200 bytes as a file name"),
        (["v\x0bw"], "label holds a control or non-XML character: 'v\\x0bw'"),
    ],
    ids=["int", "int-label", "dot", "dot-dot", "long", "control"],
)
def test_cli_inspect_bad_manifest_slices_is_one_error_line(tmp_path, bundle, slices, message):
    damaged = tmp_path / "bundle"
    shutil.copytree(bundle, damaged)
    manifest = damaged / "manifest.json"
    payload = json.loads(manifest.read_text("utf-8"))
    payload["slices"] = slices
    manifest.write_text(json.dumps(payload), "utf-8")
    res = _run_cli("inspect", "neural network", "--bundle", str(damaged))
    assert res.returncode == 1
    assert res.stderr == f"kcn: error: {manifest}: {message}\n"


@pytest.mark.parametrize("where", ["directory", "missing/x.csv", "fifo"])
def test_cli_export_to_an_unwritable_path_is_one_error_line(tmp_path, where):
    out = tmp_path / where
    if where == "directory":
        out.mkdir()
    elif where == "fifo":
        os.mkfifo(out)  # a named pipe, which a written file must not replace
    res = _run_cli(
        "export", "--config", str(CONFIG), "--format", "csv", "--out", str(out)
    )
    assert res.returncode == 1
    assert res.stderr.startswith("kcn: error:")
    assert len(res.stderr.splitlines()) == 1
    assert str(out) in res.stderr
    assert _tree(tmp_path) == {}
    if where == "fifo":
        assert res.stderr == f"kcn: error: cannot write {out}: not a regular file\n"
        assert stat.S_ISFIFO(out.stat().st_mode)


def _denied(monkeypatch, path: Path, *names: str) -> None:
    """Make each ``os.<name>`` of ``path`` fail as it does for a user without
    the permission, so that a test shows it as root too."""
    for name in names:
        def call(target, *args, _real=getattr(os, name), **kwargs):
            if str(target) == str(path):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(target))
            return _real(target, *args, **kwargs)

        monkeypatch.setattr(os, name, call)


@pytest.mark.parametrize("denied", [("listdir",), ("listdir", "stat")], ids=["list", "search"])
def test_cli_run_into_a_directory_it_cannot_look_at_is_one_error_line(
    tmp_path, monkeypatch, capsys, denied
):
    # a mode-0300 directory cannot be listed; under a parent without search
    # permission it can be neither listed nor stat'ed
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("keep", "utf-8")
    _denied(monkeypatch, out, *denied)
    assert cli.main(["run", "--config", str(CONFIG), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"kcn: error: cannot write {out}: {os.strerror(errno.EACCES)}\n"
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(out) == ["keep.txt"]


@pytest.mark.parametrize(
    "name", ["manifest.json", "audit.jsonl", "emerging.json", "slices/all/edges.csv", "ego"]
)
def test_cli_inspect_bundle_file_it_cannot_look_at_is_one_error_line(
    bundle, monkeypatch, capsys, name
):
    # a missing file reads as empty, one that cannot be stat'ed is an error
    path = bundle / name if name != "ego" else min(bundle.glob("ego_*.graphml"))
    _denied(monkeypatch, path, "stat")
    assert cli.main(["inspect", "neural network", "--bundle", str(bundle)]) == 1
    denied = PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    assert capsys.readouterr() == ("", f"kcn: error: cannot read {path}: {denied}\n")


def test_a_run_without_a_whole_corpus_slice_writes_every_ego_file(tmp_path, capsys):
    # the ego networks come from the whole corpus, as with an all slice,
    # which no year-ranked table includes
    raw = json.loads(CONFIG.read_text("utf-8"))
    raw["inputs"] = [str(DATA / "synthetic_corpus.jsonl")]
    ranges = [{"label": "early", "years": [2020, 2021]}, {"label": "late", "years": [2022, 2024]}]
    egos = []
    for name, slices in (("ranges", ranges), ("with-all", [*ranges, {"label": "all", "years": "all"}])):
        raw["slices"] = slices
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(raw), "utf-8")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        egos.append({k: v for k, v in _tree(tmp_path / name).items() if k.startswith("ego_")})
    out = tmp_path / "ranges"
    emerging = [e["keyword"] for e in json.loads((out / "emerging.json").read_text("utf-8"))]
    names = ego_file_names(emerging)
    assert emerging and sorted(egos[0]) == sorted(names)
    assert egos[0] == egos[1]
    capsys.readouterr()
    assert cli.main(["inspect", emerging[0], "--bundle", str(out)]) == 0
    assert f"ego network: {names[0]}" in capsys.readouterr().out.splitlines()


def test_cli_export_failed_write_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "keep.graphml"
    out.write_bytes(b"old bytes\n")
    write_text = Path.write_text

    def full(path, text, *args, **kwargs):
        # half the text reaches the disk, then the disk is full
        write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", full)
    args = ["export", "--config", str(CONFIG), "--slice", "all", "--format", "graphml"]
    assert cli.main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"kcn: error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert out.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["keep.graphml"]
    monkeypatch.setattr(Path, "write_text", write_text)
    assert cli.main([*args, "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"<?xml")
    assert os.listdir(tmp_path) == ["keep.graphml"]


def test_cli_export_formats(tmp_path):
    for fmt, ext in (("graphml", "graphml"), ("dot", "dot"), ("csv", "csv")):
        out = tmp_path / f"g.{ext}"
        res = _run_cli(
            "export", "--config", str(CONFIG), "--slice", "2020",
            "--format", fmt, "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        assert out.is_file() and out.stat().st_size > 0
    text = (tmp_path / "g.csv").read_text()
    assert text.splitlines()[0] == "source,target,weight"


@pytest.mark.parametrize("label", ["all", "2020"])
def test_cli_export_csv_matches_run_edges(tmp_path, bundle, label):
    out = tmp_path / f"{label}.csv"
    res = _run_cli(
        "export", "--config", str(CONFIG), "--slice", label,
        "--format", "csv", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == (bundle / "slices" / label / "edges.csv").read_bytes()


@pytest.mark.parametrize("command", ["run", "export"])
def test_cli_slice_that_selects_no_records_is_one_build_line(tmp_path, capsys, command):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"inputs": [str(DATA / "synthetic_corpus.jsonl")],
                                  "slices": [2019]}), "utf-8")
    args = {"run": ["--out", str(tmp_path / "out")],
            "export": ["--slice", "2019", "--format", "csv", "--out", str(tmp_path / "x.csv")]}
    assert cli.main([command, "--config", str(config), *args[command]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "kcn: error: [build] slice '2019' selects no records\n"
    assert _tree(tmp_path) == {"c.json": config.read_bytes()}


def test_cli_export_unknown_slice(tmp_path):
    res = _run_cli(
        "export", "--config", str(CONFIG), "--slice", "1877",
        "--format", "csv", "--out", str(tmp_path / "x.csv"),
    )
    assert res.returncode == 1
    assert "unknown slice" in res.stderr


def test_cli_requires_subcommand():
    res = _run_cli()
    assert res.returncode == 2  # argparse usage error
