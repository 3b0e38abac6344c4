"""End-to-end analysis pipeline producing a report bundle.

A run ingests and filters the corpus, normalizes keywords, builds one
co-occurrence graph per slice, and emits structural summaries, community
clusterings, and centrality-based trend tables into an output directory.
``prepare`` is the one path from a config to normalized records and
slices; ``kcn run`` and ``kcn export`` both take it.

Bundle layout::

    manifest.json               run provenance; written last, so its
                                presence marks a complete bundle
    filter_report.json          excluded records and why
    audit.jsonl                 every keyword rewrite
    summary.tsv / summary.json  one structural-metrics row per slice
    frequency.csv               keywords by article count
    emerging.json               keywords newly entering top betweenness
    ego_<keyword>.graphml       neighborhood of each emerging keyword
    slices/<label>/             per-slice edge list, distribution files,
                                cluster files, and betweenness table

Every output byte is a pure function of the input files and the config;
reruns produce identical bundles.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .communities import cluster_profiles, fast_greedy, name_clusters
from .config import RunConfig
from .corpus import Corpus, FilterReport, concat_corpora, filter_eligible, load_corpus
from .errors import ConfigError, FitError, KcnError, StageError
from .graph import (
    SliceSpec,
    WeightedGraph,
    build_kcn,
    largest_component,
    to_edge_csv,
    write_graphml,
)
from .normalize import NormalizationLexicon, default_lexicon_dir, load_lexicon, normalize_corpus
from .structure import average_clustering, ccdf, fit_power_law, profile_nodes, summarize
from .trends import detect_emerging, ego_network, frequency_table, top_k_table, weighted_betweenness

STAGES = ("macro", "meso", "micro")

_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")


def run_pipeline(
    config: RunConfig,
    out_dir: str | Path | None = None,
    only: set[str] | None = None,
    force: bool = False,
) -> dict:
    """Execute a full run and write the bundle to ``out_dir``.

    ``only`` restricts which analysis stages emit files (ingest,
    normalization, and graph building always execute). Any failure removes
    the partially written bundle and re-raises tagged with its stage.
    Returns a small summary of what was written.
    """
    stages = set(STAGES) if only is None else set(only)
    unknown = stages - set(STAGES)
    if unknown:
        raise ConfigError(f"unknown stages: {sorted(unknown)}")
    target = Path(out_dir) if out_dir is not None else config.output_dir
    if target is None:
        raise ConfigError("no output directory: set output_dir or pass --out")
    if target.exists() and any(target.iterdir()):
        if not force:
            raise ConfigError(
                f"output directory {target} is not empty (use --force to replace)"
            )
        shutil.rmtree(target)
    target.mkdir(parents=True, exist_ok=True)

    try:
        return _run(config, target, stages)
    except Exception:
        shutil.rmtree(target, ignore_errors=True)  # never leave partial bundles
        raise


class Prepared(NamedTuple):
    """Everything between a config and its slice graphs."""

    corpus: Corpus  # as loaded, before filtering
    report: FilterReport
    normalized: Corpus
    lexicon: NormalizationLexicon
    slices: list[SliceSpec]


def prepare(config: RunConfig) -> Prepared:
    """Ingest, filter and normalize the inputs and resolve the slices.

    Configured slice labels are checked before any input is read; the
    default slices are each year of the normalized corpus plus ``all``.
    Failures are tagged with their stage.
    """
    if config.slices is not None:
        # each label names its own directory under slices/, inside the bundle
        safe = {s.label: _safe_name(s.label) for s in config.slices}
        for label, name in safe.items():
            if name in (".", ".."):
                raise ConfigError(f"slice label {label!r} cannot name a slice directory")
        if len(set(safe.values())) != len(safe):
            raise ConfigError(f"slice labels collide after sanitizing: {sorted(safe)}")
    with _stage("ingest"):
        corpus = concat_corpora(
            load_corpus(spec.path, spec.format) for spec in config.inputs
        )
    with _stage("filter"):
        filtered, report = filter_eligible(corpus, config.max_keywords)
    with _stage("normalize"):
        lexicon = load_lexicon(
            protected_path=config.protected_path,
            abbrev_path=config.abbrev_path,
            merges_path=config.merges_path,
            synonym_threshold=config.synonym_threshold,
            exhaustive_pairing=config.exhaustive_pairing,
        )
        normalized, lexicon = normalize_corpus(filtered, lexicon)
    slices = list(config.slices or _default_slices(normalized))
    return Prepared(corpus, report, normalized, lexicon, slices)


def _run(config: RunConfig, out: Path, stages: set[str]) -> dict:
    corpus, report, normalized, lexicon, slices = prepare(config)
    labels = [s.label for s in slices]

    with _stage("build"):
        graphs = {s.label: build_kcn(normalized, s) for s in slices}

    results = [
        _analyze_slice(
            config, stages, graphs[s.label], s, out / "slices" / _safe_name(s.label)
        )
        for s in slices
    ]

    if "macro" in stages:
        with _stage("macro"):
            _write_summary_files(out, results)

    emerging = []
    if "micro" in stages:
        with _stage("micro"):
            # full table, so lookups work for every canonical keyword
            vocabulary = {kw for r in normalized.records for kw in r.keywords}
            _write_csv(
                out / "frequency.csv",
                ["keyword", "count"],
                frequency_table(normalized, max(1, len(vocabulary))),
            )
            year_results = sorted(
                (r for r in results if r["spec"].years is not None),
                key=lambda r: (r["spec"].years[0], r["spec"].years[1], r["spec"].label),
            )
            if len(year_results) >= 2:
                emerging = detect_emerging([r["table"] for r in year_results])
            _write_json(
                out / "emerging.json",
                [
                    {"keyword": e.keyword, "first_year": e.first_year,
                     "value": e.value}
                    for e in emerging
                ],
            )
            _write_ego_files(out, config, graphs, slices, emerging)

    with _stage("report"):
        _write_json(out / "filter_report.json", report.to_json())
        lexicon.write_audit_jsonl(out / "audit.jsonl")
        manifest = _manifest(config, labels, corpus, normalized, report)
        _write_json(out / "manifest.json", manifest)  # commit marker, last

    return {
        "output_dir": str(out),
        "slices": labels,
        "records": len(normalized),
        "emerging": [e.keyword for e in emerging],
    }


def _analyze_slice(
    config: RunConfig,
    stages: set[str],
    g: WeightedGraph,
    spec: SliceSpec,
    slice_dir: Path,
) -> dict:
    slice_dir.mkdir(parents=True, exist_ok=True)
    (slice_dir / "edges.csv").write_text(to_edge_csv(g), "utf-8")
    result: dict = {"spec": spec, "label": spec.label}

    if "macro" in stages:
        with _stage("macro"):
            summary = summarize(g)
            values = sorted(
                (g.strength(v) if config.power_law_on == "strength" else g.degree(v))
                for v in g.labels()
            )
            positive = [v for v in values if v > 0]
            fit = None
            fit_error = None
            try:
                fit = fit_power_law(positive, discrete=config.discrete_power_law)
            except FitError as exc:
                fit_error = str(exc)
            result["summary"] = summary
            result["c_unweighted"] = average_clustering(g, weighted=False)
            result["fit"] = fit
            result["fit_error"] = fit_error
            _write_tsv(
                slice_dir / "ccdf.tsv",
                ["value", "ccdf"],
                [(_fmt(x), _fmt(p)) for x, p in ccdf(values)],
            )
            profiles, bins = profile_nodes(g)
            mean_c = {b.degree: b.mean_clustering_w for b in bins}
            mean_r = {b.degree: b.mean_knn_ratio for b in bins}
            _write_tsv(
                slice_dir / "clustering_vs_degree.tsv",
                ["degree", "clustering_w", "degree_mean"],
                sorted(
                    (p.degree, _fmt(p.clustering_w), _fmt(mean_c[p.degree]))
                    for p in profiles
                ),
            )
            _write_tsv(
                slice_dir / "knn_ratio_vs_degree.tsv",
                ["degree", "knn_ratio", "degree_mean"],
                sorted(
                    (p.degree, _fmt(p.knn_ratio), _fmt(mean_r[p.degree]))
                    for p in profiles
                ),
            )

    if "meso" in stages:
        with _stage("meso"):
            core = largest_component(g)
            partition = name_clusters(core, fast_greedy(core))
            profiles = cluster_profiles(core, partition, config.profile_k)
            unclustered = sorted(set(g.labels()) - set(core.labels()))
            _write_json(
                slice_dir / f"clusters_{_safe_name(spec.label)}.json",
                {
                    "q": partition.modularity,
                    "clusters": [
                        {
                            "id": p.cluster_id,
                            "name": p.name,
                            "size": p.size,
                            "top": [
                                {"keyword": kw, "in_group_degree": w}
                                for kw, w in p.top
                            ],
                        }
                        for p in profiles
                    ],
                    "unclustered": unclustered,
                },
            )
            _write_csv(
                slice_dir / f"membership_{_safe_name(spec.label)}.csv",
                ["keyword", "cluster", "cluster_name"],
                sorted(
                    (kw, cid, partition.cluster_names[cid])
                    for kw, cid in partition.assignment.items()
                ),
            )
            _write_csv(
                slice_dir / f"dendrogram_{_safe_name(spec.label)}.csv",
                ["step", "cluster_a", "cluster_b", "delta_q", "q_after"],
                [
                    (i + 1, s.a, s.b, _fmt(s.delta_q), _fmt(s.q_after))
                    for i, s in enumerate(partition.merge_trace)
                ],
            )

    if "micro" in stages:
        with _stage("micro"):
            table = top_k_table(
                g, config.top_k, spec.label, values=weighted_betweenness(g)
            )
            result["table"] = table
            _write_csv(
                slice_dir / f"betweenness_{_safe_name(spec.label)}.csv",
                ["keyword", "value", "rank"],
                [
                    (kw, _fmt(value), rank)
                    for rank, (kw, value) in enumerate(table.rows, 1)
                ],
            )
    return result


def _write_summary_files(out: Path, results: list[dict]) -> None:
    rows = []
    json_rows = []
    for r in results:
        s = r["summary"]
        fit = r["fit"]
        rows.append(
            (
                r["label"], s.n, s.m, f"{s.d:.3f}", f"{s.c:.3f}", f"{s.z:.3f}",
                f"{s.s:.3f}", s.lc, "" if s.r is None else f"{s.r:.3f}",
            )
        )
        json_rows.append(
            {
                "slice": r["label"],
                "n": s.n,
                "m": s.m,
                "d": s.d,
                "c": s.c,
                "c_unweighted": r["c_unweighted"],
                "z": s.z,
                "s": s.s,
                "lc": s.lc,
                "r": s.r,
                "power_law": None if fit is None else {
                    "alpha": fit.alpha,
                    "xmin": fit.xmin,
                    "ks_stat": fit.ks_stat,
                    "n_tail": fit.n_tail,
                },
                "power_law_error": r["fit_error"],
            }
        )
    _write_tsv(
        out / "summary.tsv",
        ["years", "n", "m", "d", "c", "z", "s", "lc", "r"],
        rows,
    )
    _write_json(out / "summary.json", json_rows)


def _write_ego_files(
    out: Path,
    config: RunConfig,
    graphs: dict[str, WeightedGraph],
    slices: list[SliceSpec],
    emerging: list,
) -> None:
    # ego views come from the first whole-corpus slice, when one exists
    overall = next((s.label for s in slices if s.years is None), None)
    if overall is None:
        return
    g = graphs[overall]
    used: set[str] = set()
    for entry in emerging:
        if entry.keyword not in g:
            continue
        view = ego_network(
            g, entry.keyword, config.top_k, degree_scope=config.ego_degree_scope
        )
        name = _safe_name(f"ego_{entry.keyword}")
        if name in used:
            name = f"{name}_{len(used)}"
        used.add(name)
        write_graphml(
            view.graph,
            out / f"{name}.graphml",
            labeled={view.ego, *view.labeled_alters},
        )


def _manifest(
    config: RunConfig,
    labels: list[str],
    loaded: Corpus,
    normalized: Corpus,
    report,
) -> dict:
    # echo the effective settings, not just the keys the user wrote
    echo = {
        "seed": config.seed,
        "slices": config.raw.get("slices"),
        "thresholds": {
            "max_keywords": config.max_keywords,
            "synonym_threshold": config.synonym_threshold,
            "top_k": config.top_k,
            "profile_k": config.profile_k,
        },
        "flags": {
            "exhaustive_pairing": config.exhaustive_pairing,
            "power_law_on": config.power_law_on,
            "discrete_power_law": config.discrete_power_law,
            "ego_degree_scope": config.ego_degree_scope,
        },
    }
    inputs = [
        {"path": _given_path(entry), "sha256": _sha256(spec.path)}
        for entry, spec in zip(config.raw.get("inputs", []), config.inputs)
    ]
    lexicon = {}
    for key, path in (
        ("protected", config.protected_path),
        ("abbrev", config.abbrev_path),
        ("merges", config.merges_path),
    ):
        if path is None:
            lexicon[key] = None
        else:
            source = (
                f"packaged:{path.name}"
                if path.parent == default_lexicon_dir()
                else str(config.raw.get("lexicon", {}).get(key, path.name))
            )
            lexicon[key] = {"source": source, "sha256": _sha256(path)}
    distinct = {kw for rec in normalized.records for kw in rec.keywords}
    return {
        "bundle_format": 1,
        "tool": {"name": "kcn", "version": __version__},
        "config": echo,
        "inputs": inputs,
        "lexicon": lexicon,
        "slices": labels,
        "records": {
            "loaded": len(loaded),
            "retained": report.retained,
            "excluded": len(report.excluded),
        },
        "keywords": {"distinct_canonical": len(distinct)},
    }


def _default_slices(corpus: Corpus) -> list[SliceSpec]:
    return [SliceSpec.year(y) for y in corpus.years()] + [SliceSpec.all()]


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _safe_name(text: str) -> str:
    return _SAFE_RE.sub("_", text)


def _given_path(entry: object) -> str:
    return entry if isinstance(entry, str) else str(entry.get("path", ""))


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", "utf-8")


def _write_tsv(path: Path, header: list[str], rows) -> None:
    lines = ["\t".join(header)]
    lines.extend("\t".join(str(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", "utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), "utf-8")
