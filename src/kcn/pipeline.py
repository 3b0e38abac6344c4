"""End-to-end analysis pipeline producing a report bundle.

A run ingests and filters the corpus, normalizes keywords, builds one
co-occurrence graph per slice, and emits structural summaries, community
clusterings, and centrality-based trend tables into an output directory.
``prepare`` is the one path from a config to normalized records and
slices; ``kcn run`` and ``kcn export`` both take it. ``kcn.bundle`` owns
the bundle's layout, file names and writers, down to each slice table's
columns; this module hands them computed values.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, TypeVar

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
    CentralityTable,
    betweenness_scores,
    betweenness_sum,
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
    cannot be made or moved. Returns a small summary of what was written.
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
    with replacing(target, config, directory=True) as staging:
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
            protected_path=config.protected_path,
            abbrev_path=config.abbrev_path,
            merges_path=config.merges_path,
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
    results, whole = _analyze_slices(config, stages, normalized, slices, out)

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
            if whole is not None:
                # the first whole-corpus graph keeps every record, so every
                # emerging keyword is one of its nodes
                _write_ego_files(out, config, whole, emerging)

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
) -> tuple[list[dict], WeightedGraph | None]:
    """Build, ``edges.csv``, macro, meso and betweenness of every slice.

    Returns the ``_analyze_slice`` results in slice order and, when micro
    runs, the graph of the first whole-corpus slice, or None when there is
    none. ``_forked`` runs two shares, in a forked child and here, as
    ``_schedule`` prices them. When micro runs, this process builds the
    kept slice before the fork; when there is also a cut, the child sums
    that slice's first ``cut`` Brandes sources with ``betweenness_sum``
    and sends the sum first. Without micro the cut is 0 and the kept slice
    is built in its turn, so that no graph is held through the share. The
    child then analyses the slices ``_schedule`` gives it, writing their
    files into ``out`` itself, and sends their outcomes. This process
    analyses the kept slice first, then its other slices, and fits their
    power laws, then sums the kept slice's sources from the cut on, in
    source order onto the sum it receives when there is a cut; then it
    receives the child's outcomes and fits theirs. So every fit, and
    numpy, which the fits load, stays in this process, and numpy loads
    after this process's slices, with one BLAS thread so that no worker
    spins on the child's CPU. No byte depends on the split, and a run
    that leaves the child no work forks none. Each slice ends as its
    result or its ``StageError``, the kept slice's betweenness and each
    fit included, and the first error in slice order is raised.
    """
    keep, theirs, cut = _schedule(normalized, slices, "micro" in stages)
    mine = [keep, *(i for i in range(len(slices)) if i not in theirs and i != keep)]
    g, built = None, {}
    if "micro" in stages:
        try:
            with stage("build"):
                built[keep] = g = build_kcn(normalized, slices[keep])
        except StageError as exc:
            built[keep] = exc
            cut = 0

    def child():
        if cut:
            try:
                with stage("micro"):
                    prefix = betweenness_sum(g, range(cut))
            except StageError as exc:
                prefix = exc
            yield prefix
        yield _slice_share(config, stages, normalized, slices, out, theirs, {})

    def here(receive):
        outcomes = _slice_share(config, stages, normalized, slices, out, mine, built)
        _fit_power_laws(config, outcomes)
        prefix = receive() if cut else None
        # the kept slice's sources are summed after the slices, so that no
        # meso runs on top of its Dijkstra steps; a failure at or before
        # that slice comes first in slice order, so its sources are not summed
        if g is not None and not any(
            isinstance(outcomes[i], StageError) for i in outcomes if i <= keep
        ):
            try:
                if isinstance(prefix, StageError):
                    raise prefix
                with stage("micro"):
                    values = betweenness_scores(g, betweenness_sum(g, range(cut, g.n), prefix))
                    outcomes[keep]["table"] = _write_betweenness(
                        config, g, slices[keep], out, values
                    )
            except StageError as exc:
                outcomes[keep] = exc
        received = receive()
        _fit_power_laws(config, received)
        outcomes.update(received)
        return outcomes

    work = [f"slices {', '.join(slices[i].label for i in theirs)}"] if theirs else []
    if cut:
        work.append(f"sources 0-{cut - 1} of {slices[keep].label}")
    outcomes = _forked(child, here, " and ".join(work))
    results = []
    # a slice a share skipped comes after one that failed
    for i in range(len(slices)):
        if isinstance(outcomes[i], StageError):
            raise outcomes[i]
        results.append(outcomes[i])
    return results, (g if slices[keep].years is None else None)


def _schedule(
    normalized: Corpus, slices: list[SliceSpec], micro: bool
) -> tuple[int, list[int], int]:
    """The slice this process keeps, the slices a forked child analyses, and
    the cut: how many of the kept slice's first Brandes sources the child sums.

    Prices are ints from one pass over the records. A slice's phase (build,
    files, macro, meso) costs its distinct keyword pairs, which is its
    graph's edge count m, times ``_BETWEENNESS_PAIRS``. Its betweenness
    costs its distinct keywords, which is its node count n, times m: each
    source's Dijkstra relaxes each edge at most once. This process keeps
    the slice of highest total price: a whole-corpus slice of equals, then
    the first, returned as ``keep``, which this process analyses first.
    With ``micro`` its betweenness, whose sources both processes share
    after their slices, is not counted. Then by falling load (phase
    price plus, with ``micro``, betweenness price), ties in slice order,
    each other slice goes to the side with the lower total so far, ties to
    this process: LPT scheduling (Graham 1969). With ``micro`` the cut is
    the number of the kept slice's sources, at m each, that evens the two
    totals, within 0 to n; else 0. The child's slices are returned
    ascending. The rule reads only the inputs.
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
    sizes = []  # (n, m) by slice
    for spec in slices:
        years = [year for year in pairs if spec.contains(year)]
        sizes.append((
            len(set().union(*(keywords[year] for year in years))),
            len(set().union(*(pairs[year] for year in years))),
        ))
    phase = [m * _BETWEENNESS_PAIRS for _, m in sizes]
    betweenness = [n * m for n, m in sizes]
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
    n, m = sizes[kept]
    # the child's total plus cut * m is this process's plus (n - cut) * m
    cut = (totals[0] - totals[1] + n * m) // (2 * m) if micro and m else 0
    return kept, sorted(theirs), min(max(cut, 0), n)


def _workers() -> int:
    """Processes ``_forked`` may use: 2 with two CPUs or more, else 1.

    With 1, ``_forked`` runs the child's share here, as it is received. A
    run forks once, and only one child plus this process has been
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


def _forked(
    child: Callable[[], Iterator[object]],
    here: Callable[[Callable[[], object]], T],
    work: str,
) -> T:
    """Run generator ``child`` in a forked child process and ``here`` in this one.

    Each object ``child`` yields is pickled in turn onto one pipe; ``here``
    gets ``receive``, which returns the next, and its result is returned.
    Where ``work``, the child's share as an error names it, is empty,
    ``_workers()`` is 1 or no pipe or child can be made, ``receive``
    advances the generator here instead: ``here`` runs to its first
    ``receive``, ``child`` to its first yield, and so on. A child that
    raises prints its traceback and exits non-zero. A ``receive`` that
    meets the pipe's end, or a non-zero exit after ``here`` returns, raises
    ``KcnError("worker for <work> failed with exit code <code>")``; if
    ``here`` raises, the child is killed. The child is reaped before this
    returns or raises, so it never outlives the files it writes to. A
    message larger than the pipe buffer (64 KiB on Linux; a first message
    of about 7,000 nodes) makes the child wait until it is received. That
    costs overlap, never a byte, and cannot deadlock: the child waits for
    nothing else.
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
        return here(child().__next__)
    read_fd, write_fd = fds
    import pickle  # only here: importing it costs about 2 ms

    if pid == 0:
        # send each message at once; never return into the parent's code
        # or run its exit hooks
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as fh:
                for message in child():
                    pickle.dump(message, fh)
                    fh.flush()
            code = 0
        except Exception:
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write_fd)

    status = None

    def reap() -> int:
        nonlocal status
        if status is None:
            status = os.waitpid(pid, 0)[1]
        return os.waitstatus_to_exitcode(status)

    def failed(code: int) -> KcnError:
        return KcnError(f"worker for {work} failed with exit code {code}")

    def receive():
        try:
            return pickle.load(reader)
        except (EOFError, pickle.UnpicklingError):
            # the child exited, or died mid-message
            raise failed(reap()) from None

    finished = False
    reader = open(read_fd, "rb")
    try:
        result = here(receive)
        finished = True
    finally:
        if not finished and status is None:
            import signal  # only here: importing it costs about 1 ms

            os.kill(pid, signal.SIGKILL)
        reader.close()
        code = reap()
    if code != 0:
        raise failed(code)
    return result


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
            g = built.get(i)
            if isinstance(g, StageError):
                raise g
            if g is None:
                with stage("build"):
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
            result["table"] = _write_betweenness(config, g, spec, out, weighted_betweenness(g))

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


def _write_betweenness(
    config: RunConfig, g: WeightedGraph, spec: SliceSpec, out: Path, values: dict[str, float]
) -> CentralityTable:
    table = top_k_table(g, config.top_k, spec.label, values=values)
    write_betweenness(out, spec.label, table.rows)
    return table


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
