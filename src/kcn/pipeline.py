"""End-to-end analysis pipeline producing a report bundle.

A run ingests and filters the corpus, normalizes keywords, builds one
co-occurrence graph per slice, and emits structural summaries, community
clusterings, and centrality-based trend tables into an output directory.
``prepare`` is the one path from a config to normalized records and
slices; ``kcn run`` and ``kcn export`` both take it. The slice phase
shares whole slices between this process and at most one forked child,
and the ego networks come from one whole-corpus graph built after it.
``kcn.bundle`` owns the bundle's layout, file names and writers, down to
each slice table's columns; this module hands them computed values.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from typing import Callable, NamedTuple, TypeVar

from .bundle import (
    ego_file_names, replacing, write_betweenness, write_edges, write_macro, write_meso,
    write_report, write_summary, write_trends,
)
from .communities import cluster_profiles, fast_greedy
from .config import RunConfig
from .corpus import Corpus, FilterReport, concat_corpora, filter_eligible, load_corpus
from .errors import ConfigError, FitError, KcnError, StageError, stage
from .graph import SliceSpec, WeightedGraph, build_kcn, largest_component, to_edge_csv, write_graphml
from .normalize import NormalizationLexicon, load_lexicon, normalize_corpus
from .structure import average_clustering, ccdf, fit_power_law, profile_nodes, summarize
from .trends import (
    detect_emerging,
    ego_network,
    frequency_table,
    top_k_table,
    weighted_betweenness,
)

# unused since cluster_profiles names the clusters; kept bound because perfbench/tracer.py wraps it
from .communities import name_clusters

STAGES = ("macro", "meso", "micro")

T = TypeVar("T")
U = TypeVar("U")

# keywords times keyword pairs of betweenness that cost as much CPU as one
# keyword pair of build, files, macro and meso: the ratio of the two CPU
# costs pooled over every slice of four seeded corpora (BENCH_balance.json);
# see _schedule
_BETWEENNESS_PAIRS = 96


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
    is complete, by ``kcn.bundle.replacing``, so a failed run leaves an
    existing bundle as it was; the failure is re-raised tagged with its
    stage, or as a ``ConfigError`` when that directory holds an input or
    cannot be looked at, listed, made or moved. Returns a small summary of
    what was written.
    """
    stages = set(STAGES) if only is None else set(only)
    unknown = stages - set(STAGES)
    if unknown:
        raise ConfigError(f"unknown stages: {sorted(unknown)}")
    target = Path(out_dir) if out_dir is not None else config.output_dir
    if target is None:
        raise ConfigError("no output directory: set output_dir or pass --out")
    with replacing(target, config, directory=True) as staging:
        # in the block, so that replacing words an OSError, such as a
        # directory that cannot be listed, as one "cannot write" error
        try:
            held = os.listdir(target)
        except FileNotFoundError:
            held = []
        except NotADirectoryError:
            raise ConfigError(f"output path {target} is not a directory") from None
        if held and not force:
            raise ConfigError(
                f"output directory {target} is not empty (use --force to replace)"
            )
        summary = _run(config, staging, stages)
    return {"output_dir": str(target), **summary}


class Prepared(NamedTuple):
    """Everything between a config and its slice graphs."""

    report: FilterReport
    normalized: Corpus
    lexicon: NormalizationLexicon
    slices: list[SliceSpec]


def prepare(config: RunConfig) -> Prepared:
    """Ingest, filter and normalize the inputs and resolve the slices.

    The default slices are each year of the normalized corpus plus
    ``all``; configured ones were checked as the config was loaded.
    Failures are tagged with their stage.
    """
    with stage("ingest"):
        corpus = concat_corpora(
            load_corpus(spec.path, spec.format) for spec in config.inputs
        )
    with stage("filter"):
        filtered, report = filter_eligible(corpus, config.max_keywords)
    with stage("normalize"):
        lexicon = load_lexicon(
            **config.lexicon,
            synonym_threshold=config.synonym_threshold,
            exhaustive_pairing=config.exhaustive_pairing,
        )
        normalized, lexicon = normalize_corpus(filtered, lexicon)
    slices = list(config.slices or [*map(SliceSpec.year, normalized.years()), SliceSpec.all()])
    return Prepared(report, normalized, lexicon, slices)


def _run(config: RunConfig, out: Path, stages: set[str]) -> dict:
    report, normalized, lexicon, slices = prepare(config)
    labels = [s.label for s in slices]
    vocabulary = {kw for r in normalized.records for kw in r.keywords}
    results = _analyze_slices(config, stages, normalized, slices, out)

    if "macro" in stages:
        with stage("macro"):
            write_summary(out, results)

    emerging = []
    if "micro" in stages:
        with stage("micro"):
            # full table, so lookups work for every canonical keyword
            frequency = frequency_table(normalized, max(1, len(vocabulary)))
            year_results = sorted(
                (r for r in results if r["spec"].years is not None),
                key=lambda r: (r["spec"].years[0], r["spec"].years[1], r["spec"].label),
            )
            if len(year_results) >= 2:
                emerging = detect_emerging([r["table"] for r in year_results])
            write_trends(out, frequency, emerging)
            if emerging:
                # the whole-corpus graph keeps every record, so every
                # emerging keyword is one of its nodes
                _write_ego_files(out, config, build_kcn(normalized, SliceSpec.all()), emerging)

    with stage("report"):
        write_report(out, config, labels, report, len(vocabulary), lexicon.audit)

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
) -> list[dict]:
    """Build, ``edges.csv``, macro, meso and betweenness of every slice.

    Returns the ``_analyze_slice`` results in slice order. ``_forked`` runs
    two shares of whole slices, as ``_schedule`` gives them: a forked child
    analyses its slices, writing their files into ``out`` itself, and
    sends their outcomes; this process analyses the costliest slice first,
    then the rest of its share, and fits their power laws, then fits the
    child's. So every fit, and numpy, which the fits load, stays in this
    process, and numpy loads after this process's slices, with one BLAS
    thread so that no worker spins on the child's CPU. No byte depends on
    the split, and a run that leaves the child no work forks none. Each
    slice ends as its result or its ``StageError``, each fit included, and
    the first error in slice order is raised.
    """
    keep, theirs = _schedule(normalized, slices, "micro" in stages)
    mine = [keep, *(i for i in range(len(slices)) if i not in theirs and i != keep)]

    def here():
        outcomes = _slice_share(config, stages, normalized, slices, out, mine)
        _fit_power_laws(config, outcomes)
        return outcomes

    outcomes, received = _forked(
        lambda: _slice_share(config, stages, normalized, slices, out, theirs),
        here,
        f"slices {', '.join(slices[i].label for i in theirs)}" if theirs else "",
    )
    _fit_power_laws(config, received)
    outcomes.update(received)
    results = []
    # a slice a share skipped comes after one that failed
    for i in range(len(slices)):
        if isinstance(outcomes[i], StageError):
            raise outcomes[i]
        results.append(outcomes[i])
    return results


def _schedule(
    normalized: Corpus, slices: list[SliceSpec], micro: bool
) -> tuple[int, list[int]]:
    """The costliest slice, which this process analyses first, and the
    slices a forked child analyses.

    Prices are ints from one pass over the records. A slice's phase (build,
    files, macro, meso) costs its distinct keyword pairs, which is its
    graph's edge count m, times ``_BETWEENNESS_PAIRS``. With ``micro`` its
    betweenness adds its distinct keywords, which is its node count n,
    times m: each source's Dijkstra relaxes each edge at most once. By
    falling price, ties in slice order, each slice goes to the side with
    the lower total so far, ties to this process: LPT scheduling (Graham
    1969). So the first, the costliest slice, first of equals, is kept
    here. The child's slices are returned ascending. The rule reads only
    the inputs.
    """
    # keyword ids in order of first use; the pair of ids a < b is the int
    # base[b] + a, with base[b] = b(b - 1)/2: ints and plain loops keep
    # this pass leaner than tuples of keywords would (BENCH_balance.json)
    index: dict[str, int] = {}
    base: list[int] = []
    keywords: dict[int, set[str]] = {}  # by year
    pairs: dict[int, set[int]] = {}  # by year
    for r in normalized.records:
        ids = []
        for kw in r.keywords:  # each once, as normalized
            i = index.get(kw)
            if i is None:
                i = index[kw] = len(base)
                base.append(i * (i - 1) // 2)
            ids.append(i)
        ids.sort()
        keywords.setdefault(r.year, set()).update(r.keywords)
        add = pairs.setdefault(r.year, set()).add
        for j in range(1, len(ids)):
            b = base[ids[j]]
            for a in ids[:j]:
                add(b + a)
    loads = []
    for spec in slices:
        years = [year for year in pairs if spec.contains(year)]
        n = len(set().union(*(keywords[year] for year in years)))
        m = len(set().union(*(pairs[year] for year in years)))
        loads.append(m * _BETWEENNESS_PAIRS + (n * m if micro else 0))
    order = sorted(range(len(slices)), key=lambda i: -loads[i])
    totals = [0, 0]  # this process, the child
    theirs = []
    for i in order:
        side = int(totals[1] < totals[0])
        totals[side] += loads[i]
        if side:
            theirs.append(i)
    return order[0], sorted(theirs)


def _workers() -> int:
    """Processes ``_forked`` may use: 2 with two CPUs or more, else 1.

    With 1, ``_forked`` runs the child's share here, after this process's.
    A run forks once, and only one child plus this process has been
    measured. 1 where ``os.fork`` is missing or another Python thread is
    running, since a forked child inherits only the forking thread and
    any lock another thread holds stays locked. kcn loads numpy only after
    its fork, so it forks with no native pool, and numpy's BLAS pool then
    has one thread unless the caller set ``OPENBLAS_NUM_THREADS``. A caller
    that loaded numpy first may hold a BLAS pool, which is not counted;
    OpenBLAS shuts its pool down around a fork.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _forked(child: Callable[[], U], here: Callable[[], T], work: str) -> tuple[T, U]:
    """Run ``child`` in a forked child process and ``here`` in this one, and
    return both results.

    The child pickles its result onto a pipe, which this process reads once
    ``here`` returns. Where ``work``, the child's share as an error names
    it, is empty, ``_workers()`` is 1 or no pipe or child can be made,
    ``child`` runs here, after ``here``. A child that raises prints its
    traceback and exits non-zero; a child that ends without sending its
    result, or exits non-zero, raises ``KcnError("worker for <work> failed
    with exit code <code>")``. If ``here`` raises, the child is killed. The
    child is reaped before this returns or raises, so it never outlives the
    files it writes to. A result larger than the pipe buffer (64 KiB on
    Linux) makes the child wait until it is read, which cannot deadlock:
    the child waits for nothing else.
    """
    pid, fds = None, ()
    if work and _workers() > 1:
        try:
            fds = os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
    if pid is None:
        return here(), child()
    read_fd, write_fd = fds
    import pickle  # only here: importing it costs about 2 ms

    if pid == 0:
        # never return into the parent's code or run its exit hooks
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as fh:
                pickle.dump(child(), fh)
            code = 0
        except Exception:
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write_fd)

    sent = finished = False
    reader = open(read_fd, "rb")
    try:
        result = here()
        try:
            received = pickle.load(reader)
            sent = True
        except (EOFError, pickle.UnpicklingError):
            pass  # the child exited, or died mid-result
        finished = True
    finally:
        if not finished:
            import signal  # only here: importing it costs about 1 ms

            os.kill(pid, signal.SIGKILL)
        reader.close()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not sent:
        raise KcnError(f"worker for {work} failed with exit code {code}")
    return result, received


def _slice_share(
    config: RunConfig,
    stages: set[str],
    normalized: Corpus,
    slices: list[SliceSpec],
    out: Path,
    indices: list[int],
) -> dict[int, dict | StageError]:
    """Build and analyse ``slices[i]`` for each ``i`` in ``indices``, in order.

    Returns each slice's outcome by index: its result or its
    ``StageError``. With macro a result holds its power-law fit's input,
    ``positive``, for ``_fit_power_laws``. Once a slice fails, the slices
    after it in slice order do not run; those before it still do.
    """
    outcomes: dict[int, dict | StageError] = {}
    first = len(slices)  # the first failed slice so far
    for i in indices:
        if i > first:
            break
        try:
            with stage("build"):
                g = build_kcn(normalized, slices[i])
            outcomes[i] = _analyze_slice(config, stages, g, slices[i], out)
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
    with stage("build"):
        write_edges(out, spec.label, to_edge_csv(g))
    result: dict = {"spec": spec, "label": spec.label}

    if "macro" in stages:
        with stage("macro"):
            result["summary"] = summarize(g)
            values = sorted(
                (sum(row.values()) if config.power_law_on == "strength" else len(row))
                for row in g.adjacency()
            )
            result["c_unweighted"] = average_clustering(g, weighted=False)
            # the power-law fit's input; _fit_power_laws fits it
            result["positive"] = [v for v in values if v > 0]
            write_macro(out, spec.label, ccdf(values), *profile_nodes(g))

    if "meso" in stages:
        with stage("meso"):
            core = largest_component(g)
            partition = fast_greedy(core)
            profiles = cluster_profiles(core, partition, config.profile_k)
            unclustered = set(g.labels()) - set(core.labels())
            write_meso(out, spec.label, partition, profiles, unclustered)

    if "micro" in stages:
        with stage("micro"):
            table = top_k_table(g, config.top_k, spec.label, values=weighted_betweenness(g))
            write_betweenness(out, spec.label, table.rows)
            result["table"] = table

    return result


def _fit_power_laws(config: RunConfig, outcomes: dict[int, dict | StageError]) -> None:
    """Fit the power-law tail of each result that holds ``positive`` values.

    Sets the result's ``fit`` and ``fit_error``, the message of a
    ``FitError``. Any other error becomes the slice's outcome, tagged macro.
    """
    for i, result in outcomes.items():
        if isinstance(result, StageError) or "positive" not in result:
            continue
        positive = result.pop("positive")
        try:
            with stage("macro"):
                try:
                    fit = fit_power_law(positive, discrete=config.discrete_power_law)
                    result["fit"], result["fit_error"] = fit, None
                except FitError as exc:
                    result["fit"], result["fit_error"] = None, str(exc)
        except StageError as exc:
            outcomes[i] = exc


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
