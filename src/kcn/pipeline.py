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
    ego_<keyword>.graphml       neighborhood of each emerging keyword, named
                                by ``ego_file_names``
    slices/<label>/             per-slice edge list, distribution files,
                                cluster files, and betweenness table, named
                                by ``slice_file``

Every output byte is a pure function of the input files and the config;
reruns produce identical bundles.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .communities import cluster_profiles, fast_greedy
from .config import FLAG_KEYS, THRESHOLD_KEYS, RunConfig
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
from .trends import (
    CentralityTable,
    _forked,
    _prefix_sum,
    _steps,
    betweenness_scores,
    detect_emerging,
    ego_network,
    frequency_table,
    top_k_table,
    weighted_betweenness,
)

# unused since cluster_profiles names the clusters; kept bound because perfbench/tracer.py wraps it
from .communities import name_clusters

STAGES = ("macro", "meso", "micro")

# safe names keep letters and digits of any script; \w is [A-Za-z0-9_] on ASCII
_SAFE_RE = re.compile(r"[^\w.-]+")

# longest ego file name (suffix and ".graphml" included) and safe slice label,
# in bytes; file systems commonly refuse names over 255 bytes
_EGO_NAME_BYTES = 200

# the fixed cost of a slice's files, in keyword pairs; see _schedule
_SLICE_PAIRS = 100

# distinct keywords times keyword pairs that cost as much betweenness as
# one keyword pair costs build, files, macro and meso; see _schedule
_BETWEENNESS_PAIRS = 50

# per-slice files whose name repeats the slice label
_LABELED_KINDS = frozenset({"clusters", "membership", "dendrogram", "betweenness"})


def run_pipeline(
    config: RunConfig,
    out_dir: str | Path | None = None,
    only: set[str] | None = None,
    force: bool = False,
) -> dict:
    """Execute a full run and write the bundle to ``out_dir``.

    ``only`` restricts which analysis stages emit files (ingest,
    normalization, and graph building always execute). The bundle is built
    in a sibling directory of ``out_dir`` and moved into place only once it
    is complete, so a failed run leaves an existing bundle as it was; the
    failure is re-raised tagged with its stage, or as a ``ConfigError``
    when that directory cannot be made or moved. Returns a small summary
    of what was written.
    """
    stages = set(STAGES) if only is None else set(only)
    unknown = stages - set(STAGES)
    if unknown:
        raise ConfigError(f"unknown stages: {sorted(unknown)}")
    target = Path(out_dir) if out_dir is not None else config.output_dir
    if target is None:
        raise ConfigError("no output directory: set output_dir or pass --out")
    if target.exists() and not target.is_dir():
        raise ConfigError(f"output path {target} is not a directory")
    if target.exists() and any(target.iterdir()) and not force:
        raise ConfigError(
            f"output directory {target} is not empty (use --force to replace)"
        )
    try:
        # a hidden sibling, so the final move is a rename within one
        # directory; a link to the output directory is followed, so the link
        # itself stays. A link loop is a RuntimeError before Python 3.13
        final = target.resolve()
        staging = final.with_name(f".{final.name}.{os.urandom(6).hex()}")
        staging.parent.mkdir(parents=True, exist_ok=True)
        staging.mkdir()
    except (OSError, RuntimeError) as exc:
        raise _unwritable(target, exc) from exc
    try:
        summary = _run(config, staging, stages)
        try:
            _commit(staging, final)
        except OSError as exc:
            raise _unwritable(target, exc) from exc
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)  # never leave partial bundles
        raise
    return {"output_dir": str(target), **summary}


def _unwritable(target: Path, exc: Exception) -> ConfigError:
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return ConfigError(f"cannot write {target}: {reason}")


def _commit(staging: Path, target: Path) -> None:
    """Move the finished bundle in ``staging`` to ``target``.

    An existing ``target`` is renamed aside first and removed only once the
    new bundle is in place; if the move fails, it is renamed back.
    """
    aside = None
    if target.exists():
        aside = staging.with_name(staging.name + ".old")
        os.replace(target, aside)
    try:
        os.replace(staging, target)
    except OSError:
        if aside is not None:
            os.replace(aside, target)
        raise
    if aside is not None:
        shutil.rmtree(aside)


class Prepared(NamedTuple):
    """Everything between a config and its slice graphs."""

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
    _check_slice_labels(config)
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
    return Prepared(report, normalized, lexicon, slices)


def _run(config: RunConfig, out: Path, stages: set[str]) -> dict:
    report, normalized, lexicon, slices = prepare(config)
    labels = [s.label for s in slices]
    vocabulary = {kw for r in normalized.records for kw in r.keywords}
    results, whole = _analyze_slices(config, stages, normalized, slices, out)

    if "macro" in stages:
        with _stage("macro"):
            _write_summary_files(out, results)

    emerging = []
    if "micro" in stages:
        with _stage("micro"):
            # full table, so lookups work for every canonical keyword
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
            if whole is not None:
                # the first whole-corpus graph keeps every record, so every
                # emerging keyword is one of its nodes
                _write_ego_files(out, config, whole, emerging)

    with _stage("report"):
        _write_json(out / "filter_report.json", report.to_json())
        lexicon.write_audit_jsonl(out / "audit.jsonl")
        manifest = _manifest(config, labels, report, len(vocabulary))
        _write_json(out / "manifest.json", manifest)  # commit marker, last

    return {
        "slices": labels,
        "records": len(normalized),
        "emerging": [e.keyword for e in emerging],
    }


def _analyze_slices(
    config: RunConfig,
    stages: set[str],
    normalized: Corpus,
    slices: list[SliceSpec],
    out: Path,
) -> tuple[list[dict], WeightedGraph | None]:
    """Build, ``edges.csv``, macro, meso and betweenness of every slice.

    Returns the ``_analyze_slice`` results in slice order and, when micro
    runs, the graph of the first whole-corpus slice, or None when there is
    none. ``trends._forked`` runs two shares, in a forked child and here.
    This process builds the kept slice before the fork. The child sums
    the first half of that slice's Brandes sources and sends the sum
    first, then analyses the slices ``_schedule`` gives it, writing their
    files into ``out`` itself, and sends their outcomes. This process
    analyses the kept slice and its other slices, receives the sum and
    adds its own sources onto it in source order, then receives the
    child's outcomes. So no byte depends on the split, and a run that
    leaves the child no work forks none. Each slice ends as its result or
    its ``StageError``, the kept slice's betweenness included, and the
    first error in slice order is raised, as in the serial loop.
    """
    keep, theirs = _schedule(normalized, slices, "micro" in stages)
    mine = [i for i in range(len(slices)) if i not in theirs and i != keep]
    g, cut, built = None, 0, {}
    if keep is not None:
        mine.insert(0, keep)
        try:
            with _stage("build"):
                built[keep] = g = build_kcn(normalized, slices[keep])
            cut = g.n // 2
        except StageError as exc:
            built[keep] = exc

    def child():
        prefix = None  # without a cut
        if cut:
            try:
                with _stage("micro"):
                    prefix = _prefix_sum(_steps(g), range(cut))
            except StageError as exc:
                prefix = exc
        yield prefix
        yield _slice_share(config, stages, normalized, slices, out, theirs, {})

    def here(receive):
        outcomes = _slice_share(config, stages, normalized, slices, out, mine, built)
        prefix = receive()
        # the kept slice's Dijkstra steps are derived after the slices, so
        # that no meso runs on top of them; a failure at or before that
        # slice comes first in slice order, so its sources are not summed
        if g is not None and not any(
            isinstance(outcomes[i], StageError) for i in outcomes if i <= keep
        ):
            try:
                if isinstance(prefix, StageError):
                    raise prefix
                with _stage("micro"):
                    values = betweenness_scores(g, _prefix_sum(_steps(g), range(cut, g.n), prefix))
                    outcomes[keep]["table"] = _write_betweenness(
                        config, g, slices[keep], out, values
                    )
            except StageError as exc:
                outcomes[keep] = exc
        outcomes.update(receive())
        return outcomes

    work = [f"slices {', '.join(slices[i].label for i in theirs)}"] if theirs else []
    if cut:
        work.append(f"sources 0-{cut - 1} of {slices[keep].label}")
    if theirs and "macro" in stages:
        # the fits need it; loaded once here, not in both processes
        import numpy  # noqa: F401

    outcomes = _forked(
        child,
        here,
        lambda code: KcnError(f"worker for {' and '.join(work)} failed with exit code {code}"),
        bool(work),
    )
    results = []
    # a slice a share skipped comes after one that failed
    for i in range(len(slices)):
        if isinstance(outcomes[i], StageError):
            raise outcomes[i]
        results.append(outcomes[i])
    return results, (g if keep is not None and slices[keep].years is None else None)


def _schedule(
    normalized: Corpus, slices: list[SliceSpec], micro: bool
) -> tuple[int | None, list[int]]:
    """The slice this process keeps, and the slices a forked child analyses.

    A slice's phase (build, files, macro, meso) costs the keyword pairs of
    its records plus ``_SLICE_PAIRS``; its betweenness costs its distinct
    keywords times those pairs, over ``_BETWEENNESS_PAIRS``. This process
    keeps the slice of highest total cost: a whole-corpus slice of equals,
    then the first. With ``micro`` that slice is returned as ``keep``, and
    its betweenness, whose sources both processes share after their
    slices, is not counted; without, ``keep`` is None. Then by falling
    load (phase cost plus, with ``micro``, betweenness cost), ties in
    slice order, each other slice goes to the side with the lower total
    so far, ties to this process. The child's slices are returned
    ascending. The rule reads only the inputs.
    """
    pairs: dict[int, int] = {}  # by year
    keywords: dict[int, set[str]] = {}
    for r in normalized.records:
        k = len(r.keywords)
        pairs[r.year] = pairs.get(r.year, 0) + k * (k - 1) // 2
        keywords.setdefault(r.year, set()).update(r.keywords)
    phase, betweenness = [], []
    for spec in slices:
        years = [year for year in pairs if spec.contains(year)]
        p = sum(pairs[year] for year in years)
        distinct = len(set().union(*(keywords[year] for year in years)))
        phase.append(_SLICE_PAIRS + p)
        betweenness.append(distinct * p // _BETWEENNESS_PAIRS)
    kept = max(
        range(len(slices)),
        key=lambda i: (phase[i] + betweenness[i], slices[i].years is None, -i),
    )
    loads = [a + (b if micro else 0) for a, b in zip(phase, betweenness)]
    loads[kept] = phase[kept]
    rest = sorted((i for i in range(len(slices)) if i != kept), key=lambda i: -loads[i])
    totals = [loads[kept], 0]  # this process, the child
    theirs = []
    for i in rest:
        side = int(totals[1] < totals[0])
        totals[side] += loads[i]
        if side:
            theirs.append(i)
    return (kept if micro else None), sorted(theirs)


def _slice_share(
    config: RunConfig,
    stages: set[str],
    normalized: Corpus,
    slices: list[SliceSpec],
    out: Path,
    indices: list[int],
    built: dict[int, WeightedGraph | StageError],
) -> dict[int, dict | StageError]:
    """Build and analyse ``slices[i]`` for each ``i`` in ``indices``, in order.

    ``built`` holds the graph of a slice built already, or the error that
    stopped its build. That slice comes first in ``indices`` and skips
    micro, so that its meso, the peak of the phase, starts from the
    smallest base; every other graph is dropped before the next is built.
    Returns each slice's outcome by index: its result or its
    ``StageError``. Once a slice fails, the slices after it in slice order
    do not run; those before it still do.
    """
    outcomes: dict[int, dict | StageError] = {}
    first = len(slices)  # the first failed slice so far
    for i in indices:
        if i > first:
            break
        try:
            g = built.get(i)
            if isinstance(g, StageError):
                raise g
            if g is None:
                with _stage("build"):
                    g = build_kcn(normalized, slices[i])
            outcomes[i] = _analyze_slice(
                config, stages - {"micro"} if i in built else stages, g, slices[i], out
            )
        except StageError as exc:
            outcomes[i] = exc
            first = min(first, i)
    return outcomes


def _analyze_slice(
    config: RunConfig,
    stages: set[str],
    g: WeightedGraph,
    spec: SliceSpec,
    out: Path,
) -> dict:
    with _stage("build"):
        edges = slice_file(out, spec.label, "edges", "csv")
        edges.parent.mkdir(parents=True, exist_ok=True)
        edges.write_text(to_edge_csv(g), "utf-8")
    result: dict = {"spec": spec, "label": spec.label}

    if "macro" in stages:
        with _stage("macro"):
            summary = summarize(g)
            values = sorted(
                (sum(row.values()) if config.power_law_on == "strength" else len(row))
                for row in g.adjacency()
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
                slice_file(out, spec.label, "ccdf", "tsv"),
                ["value", "ccdf"],
                [(_fmt(x), _fmt(p)) for x, p in ccdf(values)],
            )
            profiles, bins = profile_nodes(g)
            mean_c = {b.degree: b.mean_clustering_w for b in bins}
            mean_r = {b.degree: b.mean_knn_ratio for b in bins}
            _write_tsv(
                slice_file(out, spec.label, "clustering_vs_degree", "tsv"),
                ["degree", "clustering_w", "degree_mean"],
                sorted(
                    (p.degree, _fmt(p.clustering_w), _fmt(mean_c[p.degree]))
                    for p in profiles
                ),
            )
            _write_tsv(
                slice_file(out, spec.label, "knn_ratio_vs_degree", "tsv"),
                ["degree", "knn_ratio", "degree_mean"],
                sorted(
                    (p.degree, _fmt(p.knn_ratio), _fmt(mean_r[p.degree]))
                    for p in profiles
                ),
            )

    if "meso" in stages:
        with _stage("meso"):
            core = largest_component(g)
            partition = fast_greedy(core)
            profiles = cluster_profiles(core, partition, config.profile_k)
            names = {p.cluster_id: p.name for p in profiles}
            unclustered = sorted(set(g.labels()) - set(core.labels()))
            _write_json(
                slice_file(out, spec.label, "clusters", "json"),
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
                slice_file(out, spec.label, "membership", "csv"),
                ["keyword", "cluster", "cluster_name"],
                sorted(
                    (kw, cid, names[cid])
                    for kw, cid in partition.assignment.items()
                ),
            )
            _write_csv(
                slice_file(out, spec.label, "dendrogram", "csv"),
                ["step", "cluster_a", "cluster_b", "delta_q", "q_after"],
                [
                    (i + 1, s.a, s.b, _fmt(s.delta_q), _fmt(s.q_after))
                    for i, s in enumerate(partition.merge_trace)
                ],
            )

    if "micro" in stages:
        with _stage("micro"):
            result["table"] = _write_betweenness(config, g, spec, out, weighted_betweenness(g))

    return result


def _write_betweenness(
    config: RunConfig, g: WeightedGraph, spec: SliceSpec, out: Path, values: dict[str, float]
) -> CentralityTable:
    table = top_k_table(g, config.top_k, spec.label, values=values)
    _write_csv(
        slice_file(out, spec.label, "betweenness", "csv"),
        ["keyword", "value", "rank"],
        [
            (kw, _fmt(value), rank)
            for rank, (kw, value) in enumerate(table.rows, 1)
        ],
    )
    return table


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
    out: Path, config: RunConfig, g: WeightedGraph, emerging: list
) -> None:
    names = ego_file_names([entry.keyword for entry in emerging])
    for entry, name in zip(emerging, names):
        view = ego_network(
            g, entry.keyword, config.top_k, degree_scope=config.ego_degree_scope
        )
        write_graphml(
            view.graph, out / name, labeled={view.ego, *view.labeled_alters}
        )


def ego_file_names(keywords: list[str]) -> list[str]:
    """File name of each keyword's ego network, given in ``emerging.json`` order.

    The name is ``ego_<keyword>`` made filename-safe, plus ``.graphml``.
    When an earlier keyword holds it already, a ``_<n>`` suffix is added,
    with ``n`` the first free number from the count of earlier keywords.
    A name is cut to ``_EGO_NAME_BYTES`` bytes, suffix and extension
    included, by dropping the end of the keyword part.
    """
    room = _EGO_NAME_BYTES - len(".graphml")
    used: set[str] = set()
    names = []
    for keyword in keywords:
        base = _safe_name(f"ego_{keyword}")
        name = _clip(base, room)
        suffix = len(used)
        while name in used:
            tail = f"_{suffix}"
            name = _clip(base, room - len(tail)) + tail
            suffix += 1
        used.add(name)
        names.append(f"{name}.graphml")
    return names


def slice_file(bundle: Path, label: str, kind: str, ext: str) -> Path:
    """Path of one of a slice's files in ``bundle``.

    ``slices/<safe>/<kind>_<safe>.<ext>`` for the cluster and betweenness
    files, ``slices/<safe>/<kind>.<ext>`` for the rest, where ``<safe>``
    is the label made filename-safe.
    """
    safe = _safe_name(label)
    name = f"{kind}_{safe}" if kind in _LABELED_KINDS else kind
    return bundle / "slices" / safe / f"{name}.{ext}"


def _manifest(
    config: RunConfig, labels: list[str], report: FilterReport, distinct: int
) -> dict:
    # echo the effective settings, not just the keys the user wrote
    echo = {
        "seed": config.seed,
        "slices": config.raw.get("slices"),
        "thresholds": {key: getattr(config, key) for key in THRESHOLD_KEYS},
        "flags": {key: getattr(config, key) for key in FLAG_KEYS},
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
    return {
        "bundle_format": 1,
        "tool": {"name": "kcn", "version": __version__},
        "config": echo,
        "inputs": inputs,
        "lexicon": lexicon,
        "slices": labels,
        "records": {
            "loaded": report.retained + len(report.excluded),
            "retained": report.retained,
            "excluded": len(report.excluded),
        },
        "keywords": {"distinct_canonical": distinct},
    }


def _check_slice_labels(config: RunConfig) -> None:
    """Reject configured slice labels that cannot each name a slice directory."""
    # each label names its own directory under slices/, inside the bundle
    safe = {s.label: _safe_name(s.label) for s in config.slices or ()}
    for label, name in safe.items():
        if name in (".", ".."):
            raise ConfigError(f"slice label {label!r} cannot name a slice directory")
        if len(name.encode()) > _EGO_NAME_BYTES:
            raise ConfigError(
                f"slice label {label!r} is over {_EGO_NAME_BYTES} bytes as a file name"
            )
    if len(set(safe.values())) != len(safe):
        raise ConfigError(f"slice labels collide after sanitizing: {sorted(safe)}")


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


def _clip(text: str, size: int) -> str:
    """The longest prefix of ``text`` that is at most ``size`` UTF-8 bytes."""
    return text.encode()[:size].decode(errors="ignore")


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
