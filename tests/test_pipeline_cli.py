from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kcn.config import load_config
from kcn.errors import ConfigError, StageError
from kcn.pipeline import run_pipeline

from conftest import DATA

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
    assert config.protected_path is not None
    assert config.protected_path.name == "protected.tsv"
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
    with pytest.raises(ConfigError, match="invalid JSON"):
        p = tmp_path / "broken.json"
        p.write_text("{", "utf-8")
        load_config(p)


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


def test_load_config_lexicon_null_disables(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps(
            {"inputs": ["c.jsonl"], "lexicon": {"protected": None}}
        ),
        "utf-8",
    )
    config = load_config(p)
    assert config.protected_path is None
    assert config.abbrev_path is not None  # others keep the default


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


def test_summary_tsv_and_json_agree(bundle):
    tsv_rows = list(
        csv.DictReader((bundle / "summary.tsv").open(), delimiter="\t")
    )
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


def test_membership_covers_largest_component(bundle):
    rows = list(csv.DictReader((bundle / "slices/all/membership_all.csv").open()))
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
    rows = list(csv.DictReader((bundle / "slices/all/dendrogram_all.csv").open()))
    q = None
    for row in rows:
        q_after = float(row["q_after"])
        if q is not None:
            assert q_after == pytest.approx(q + float(row["delta_q"]), abs=1e-9)
        q = q_after
    steps = [int(row["step"]) for row in rows]
    assert steps == list(range(1, len(rows) + 1))


def test_betweenness_csv_ranked(bundle):
    rows = list(csv.DictReader((bundle / "slices/all/betweenness_all.csv").open()))
    assert 0 < len(rows) <= 20
    values = [float(r["value"]) for r in rows]
    assert values == sorted(values, reverse=True)
    assert [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))


def test_frequency_csv_counts(bundle):
    rows = list(csv.DictReader((bundle / "frequency.csv").open()))
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


@pytest.mark.parametrize("label", [".", ".."])
def test_dot_slice_labels_rejected(tmp_path, label):
    # slices/. and slices/.. would be the slices directory and the bundle root
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


def test_cli_inspect_known_keyword(bundle):
    res = _run_cli("inspect", "Neural Networks", "--bundle", str(bundle))
    assert res.returncode == 0, res.stderr
    assert "canonical: neural network" in res.stdout
    assert "fold: Neural Networks -> neural networks" in res.stdout
    assert "singular: neural networks -> neural network" in res.stdout
    assert "articles:" in res.stdout
    assert "[all]" in res.stdout


def test_cli_inspect_unknown_keyword_suggests(bundle):
    res = _run_cli("inspect", "neural netwrk", "--bundle", str(bundle))
    assert res.returncode == 1
    assert "not found" in res.stderr
    assert "neural network" in res.stderr


def test_cli_inspect_needs_finished_bundle(tmp_path):
    res = _run_cli("inspect", "anything", "--bundle", str(tmp_path))
    assert res.returncode == 1
    assert "manifest.json" in res.stderr


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
