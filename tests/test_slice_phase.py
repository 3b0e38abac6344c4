"""The slice phase of ``kcn run`` split between this process and a child.

``pipeline._analyze_slices`` hands the whole slices ``pipeline._schedule``
gives the child to one forked child when there are two CPUs, and analyses
the costliest slice first, then the rest of its own share. These tests pin
that the bundle does not depend on the split, that a failure reads as it
would in the serial loop, that a run forks at most once and builds each
slice graph once, that every power-law fit runs in this process, and that
no child or partial bundle outlives a run.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import time
from itertools import combinations
from pathlib import Path

import pytest

from kcn import cli, pipeline, trends
from kcn.config import load_config
from kcn.errors import GraphError, KcnError, StageError
from kcn.graph import SliceSpec
from kcn.pipeline import STAGES, run_pipeline
from kcn.structure import StructuralSummary
from kcn.trends import CentralityTable

from conftest import DATA
from test_trends import WORKER_COUNTS, needs_fork

# tests/data's slices and one year range, listed so that the two shares
# interleave in slice order: the child's slices come before, between and
# after this process's
CONFIG = DATA / "split_config.json"
SUBSETS = [set(c) for k in (1, 2, 3) for c in combinations(STAGES, k)]


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _discrete_config(tmp_path: Path) -> Path:
    raw = json.loads(CONFIG.read_text("utf-8"))
    raw["inputs"] = [str(DATA / "synthetic_corpus.jsonl")]
    raw.setdefault("flags", {})["discrete_power_law"] = True
    path = tmp_path / "discrete.json"
    path.write_text(json.dumps(raw), "utf-8")
    return path


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    """Bundles of the serial loop: one per ``only`` subset, plus discrete."""
    root = tmp_path_factory.mktemp("serial")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_workers", lambda: 1)
        trees = {}
        for only in SUBSETS:
            name = "-".join(sorted(only))
            run_pipeline(load_config(CONFIG), out_dir=root / name, only=only)
            trees[name] = _tree(root / name)
        run_pipeline(load_config(_discrete_config(root)), out_dir=root / "discrete")
        trees["discrete"] = _tree(root / "discrete")
    return trees


def _slices(micro: bool = True):
    prepared = pipeline.prepare(load_config(CONFIG))
    return prepared.slices, pipeline._schedule(prepared.normalized, prepared.slices, micro)[1]


def _all_nodes() -> int:
    """Nodes of the test config's all slice, more than any year slice has."""
    prepared = pipeline.prepare(load_config(CONFIG))
    sizes = [pipeline.build_kcn(prepared.normalized, spec).n for spec in prepared.slices]
    assert prepared.slices[-1].label == "all" and max(sizes[:-1]) < sizes[-1]
    return sizes[-1]


def _on_all_sources(monkeypatch, call) -> int:
    """Run ``call(source)`` before each of all's Brandes sources; returns
    all's node count, by which its Dijkstra steps are told apart."""
    n = _all_nodes()
    real = trends._source_delta

    def source_delta(nbrs, source):
        if len(nbrs) == n:
            call(source)
        return real(nbrs, source)

    monkeypatch.setattr(trends, "_source_delta", source_delta)
    return n


def test_the_test_config_gives_both_processes_slices():
    slices, theirs = _slices()
    assert 0 < len(theirs) < len(slices)
    # the costliest slice, all, stays here; each process has a slice
    # before one of the other's
    assert slices[-1].label == "all" and len(slices) - 1 not in theirs
    ours = [i for i in range(len(slices)) if i not in theirs]
    assert min(theirs) < min(ours) < max(theirs)


def test_the_outcomes_a_child_sends_survive_a_pickle_round_trip(tmp_path):
    # each slice's result crosses the fork pipe with its record types
    config = load_config(CONFIG)
    prepared = pipeline.prepare(config)
    indices = list(range(len(prepared.slices)))
    outcomes = pipeline._slice_share(
        config, set(STAGES), prepared.normalized, prepared.slices, tmp_path, indices
    )
    back = pickle.loads(pickle.dumps(outcomes))
    assert back == outcomes

    def types(results):
        return [(i, key, type(value)) for i, r in results.items() for key, value in r.items()]

    assert types(back) == types(outcomes)
    sent = {t for _, _, t in types(outcomes)}
    assert {SliceSpec, StructuralSummary, CentralityTable} <= sent


def test_child_share_repeats_and_leaves_a_lone_slice_here():
    prepared = pipeline.prepare(load_config(CONFIG))
    assert pipeline._schedule(prepared.normalized, prepared.slices, True)[1] == _slices()[1]
    for spec in prepared.slices:
        for micro in (True, False):
            assert pipeline._schedule(prepared.normalized, [spec], micro) == (0, [])


@pytest.mark.parametrize("micro", [True, False])
def test_the_price_counts_each_slice_graph_and_lpt_evens_the_shares(tmp_path, micro):
    slices = RANGES
    prepared = pipeline.prepare(load_config(_slices_config(tmp_path, slices)))
    sizes = [(g.n, g.m) for g in (pipeline.build_kcn(prepared.normalized, s) for s in prepared.slices)]
    # the phase at m each, plus, with micro, n·m of betweenness
    loads = [m * pipeline._BETWEENNESS_PAIRS + n * m * micro for n, m in sizes]
    keep, theirs = pipeline._schedule(prepared.normalized, prepared.slices, micro)
    assert keep == len(slices) - 1 and keep not in theirs  # all, the costliest
    # by falling load, ties in slice order, each slice goes to the side
    # with the lower total so far, ties to this process
    totals, want = [0, 0], []
    for i in sorted(range(len(slices)), key=lambda i: (-loads[i], i)):
        side = int(totals[1] < totals[0])
        totals[side] += loads[i]
        if side:
            want.append(i)
    assert theirs == sorted(want)
    assert 0 < len(theirs) < len(slices) - 1
    assert abs(totals[0] - totals[1]) <= loads[keep]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("only", SUBSETS, ids=lambda s: "-".join(sorted(s)))
def test_bundle_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, serial, workers, only):
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out", only=only)
    assert _tree(tmp_path / "out") == serial["-".join(sorted(only))]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_discrete_fit_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, serial, workers):
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    run_pipeline(load_config(_discrete_config(tmp_path)), out_dir=tmp_path / "out")
    assert _tree(tmp_path / "out") == serial["discrete"]


@needs_fork
@pytest.mark.parametrize("fails", ["pipe", "fork"])
def test_run_is_serial_when_no_child_can_start(tmp_path, monkeypatch, serial, fails):
    made: list[int] = []
    real_pipe = os.pipe

    def pipe():
        if fails == "pipe":
            raise OSError(errno.EMFILE, "Too many open files")
        fds = real_pipe()
        made.extend(fds)
        return fds

    def fork():
        if fails == "fork":
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        raise AssertionError("forked after a failed pipe")

    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    assert _tree(tmp_path / "out") == serial["macro-meso-micro"]
    # the run's one fork tried
    assert len(made) == (0 if fails == "pipe" else 2)
    for fd in made:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_bundle_bytes_do_not_depend_on_the_backbone(tmp_path, monkeypatch):
    # kcn run as shipped, then with betweenness run on every edge
    dropped: list[int] = []
    backbone = trends._backbone

    def counting(adj):
        rows = backbone(adj)
        dropped.append(sum(map(len, adj)) - sum(map(len, rows)))
        return rows

    monkeypatch.setattr(trends, "_backbone", counting)
    assert cli.main(["run", "--config", str(CONFIG), "--out", str(tmp_path / "backbone")]) == 0
    # the first call, this process's, is the all slice's betweenness
    assert dropped[0] > 0
    monkeypatch.setattr(trends, "_backbone", lambda adj: adj)
    assert cli.main(["run", "--config", str(CONFIG), "--out", str(tmp_path / "whole")]) == 0
    assert _tree(tmp_path / "backbone") == _tree(tmp_path / "whole")


def _slices_config(
    tmp_path: Path, slices: list[dict], inputs: Path = DATA / "synthetic_corpus.jsonl"
) -> Path:
    raw = json.loads(CONFIG.read_text("utf-8"))
    raw["inputs"] = [str(inputs)]
    raw["slices"] = slices
    path = tmp_path / "slices.json"
    path.write_text(json.dumps(raw), "utf-8")
    return path


YEARS = [{"label": str(y), "years": [y, y]} for y in range(2020, 2025)]
ALL = {"label": "all", "years": "all"}
# tests/data's years, two year ranges whose records repeat keyword pairs,
# and all
RANGES = [*YEARS, {"label": "2020-2022", "years": [2020, 2022]},
          {"label": "2022-2024", "years": [2022, 2024]}, ALL]


@needs_fork
def test_bytes_match_when_the_costliest_slice_is_a_year_range_and_there_is_no_all(
    tmp_path, monkeypatch
):
    slices = [YEARS[0], {"label": "2021-2023", "years": [2021, 2023]}, *YEARS[3:]]
    config = load_config(_slices_config(tmp_path, slices))
    prepared = pipeline.prepare(config)
    keep, theirs = pipeline._schedule(prepared.normalized, prepared.slices, True)
    assert prepared.slices[keep].label == "2021-2023"
    assert theirs
    trees = []
    for workers in (1, 2):
        monkeypatch.setattr(pipeline, "_workers", lambda: workers)
        run_pipeline(config, out_dir=tmp_path / str(workers))
        trees.append(_tree(tmp_path / str(workers)))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_ego_networks_come_from_all_when_a_year_range_ties_with_it(tmp_path, monkeypatch, workers):
    # a one-keyword record outside the range: the range ties with all on
    # cost, but an emerging keyword's frequency differs between the two
    corpus = tmp_path / "corpus.jsonl"
    extra = {"id": "z0001", "venue": "v", "year": 2019, "keywords": ["large language model"]}
    corpus.write_text(
        (DATA / "synthetic_corpus.jsonl").read_text("utf-8") + json.dumps(extra) + "\n", "utf-8"
    )
    span = {"label": "span", "years": [2020, 2024]}
    whole = {"label": "all", "years": "all"}
    # either process appends a line per build: the slice's label
    log = tmp_path / "builds.txt"
    build = pipeline.build_kcn

    def building(corpus, spec):
        with log.open("a", encoding="utf-8") as fh:
            fh.write(f"{spec.label}\n")
        return build(corpus, spec)

    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    monkeypatch.setattr(pipeline, "build_kcn", building)
    egos = []
    # either slice may be kept; the ego networks come from the whole
    # corpus, built once more after the slice phase
    for name, tied in (("span-first", [span, whole]), ("all-first", [whole, span])):
        config = load_config(_slices_config(tmp_path, [*YEARS, *tied], corpus))
        prepared = pipeline.prepare(config)
        # the records outside span add no keyword pair and no keyword, so
        # span and all have the same cost
        within = next(spec for spec in prepared.slices if spec.label == "span").contains
        records = prepared.normalized.records
        inside = {kw for r in records if within(r.year) for kw in r.keywords}
        assert all(len(r.keywords) == 1 and r.keywords[0] in inside
                   for r in records if not within(r.year))
        log.write_text("", "utf-8")
        run_pipeline(config, out_dir=tmp_path / name)
        builds = log.read_text("utf-8").splitlines()
        assert sorted(builds) == sorted([*(s.label for s in prepared.slices), "all"])
        assert builds[-1] == "all"
        egos.append({k: v for k, v in _tree(tmp_path / name).items() if k.startswith("ego_")})
    assert "ego_large_language_model.graphml" in egos[0]
    assert egos[0] == egos[1]


def _forks(tmp_path, monkeypatch, config, only) -> list[str]:
    """Run ``config`` on two CPUs; a line per fork: its pid and its live children."""
    log = tmp_path / "forks.txt"
    alive: set[int] = set()
    real_fork = os.fork
    real_waitpid = os.waitpid

    def fork():
        with log.open("a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {len(alive)}\n")
        pid = real_fork()
        if pid:
            alive.add(pid)
        return pid

    def waitpid(pid, options):
        result = real_waitpid(pid, options)
        alive.discard(pid)
        return result

    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    run_pipeline(config, out_dir=tmp_path / "out", only=only)
    return log.read_text("utf-8").splitlines() if log.exists() else []


@needs_fork
@pytest.mark.parametrize(("only", "forks"), [(None, 1), ({"macro", "meso"}, 1)])
def test_a_run_forks_one_child_at_a_time(tmp_path, monkeypatch, only, forks):
    # the slice phase's child
    assert _forks(tmp_path, monkeypatch, load_config(CONFIG), only) == [f"{os.getpid()} 0"] * forks


@needs_fork
@pytest.mark.parametrize("only", [None, {"macro", "meso"}])
def test_a_lone_slice_forks_no_child(tmp_path, monkeypatch, only):
    # this process keeps the one slice, so the child would have no work
    config = load_config(_slices_config(tmp_path, [{"label": "all", "years": "all"}]))
    assert _forks(tmp_path, monkeypatch, config, only) == []


@pytest.mark.parametrize("only", [None, {"macro", "meso"}], ids=["all-stages", "macro-meso"])
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_this_process_builds_the_costliest_slice_first(tmp_path, monkeypatch, workers, only):
    built: list[str] = []  # a forked child appends to its own copy
    build = pipeline.build_kcn

    def building(corpus, spec):
        built.append(spec.label)
        return build(corpus, spec)

    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    monkeypatch.setattr(pipeline, "build_kcn", building)
    run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out", only=only)
    # all, the costliest, then the rest of this process's share in order,
    # then, on one CPU, the child's share; with micro or without; with
    # micro, last, the whole corpus for the ego networks
    here, theirs = _labels(only is None)
    assert built == ["all", *(label for label in here if label != "all"),
                     *(theirs if workers == 1 else []), *(["all"] if only is None else [])]


# --- failures ---------------------------------------------------------------------


def _fail(monkeypatch, failures: dict[tuple[str, str], BaseException], delay: float = 0.0):
    """Make ``pipeline.<name>`` raise on slice ``label`` for each
    ``(label, name)`` of ``failures``; a forked child first sleeps ``delay``
    seconds per slice."""
    parent = os.getpid()
    current = {}
    build = pipeline.build_kcn

    def building(corpus, spec):
        if os.getpid() != parent:
            time.sleep(delay)
        current["label"] = spec.label
        return failing("build_kcn", build)(corpus, spec)

    def failing(name, real):
        def call(*args, **kwargs):
            exc = failures.get((current["label"], name))
            if exc is not None:
                raise exc
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(pipeline, "build_kcn", building)
    for name in {name for _, name in failures} - {"build_kcn"}:
        monkeypatch.setattr(pipeline, name, failing(name, getattr(pipeline, name)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _labels(micro: bool = True):
    slices, theirs = _slices(micro)
    ours = [i for i in range(len(slices)) if i not in theirs]
    return [slices[i].label for i in ours], [slices[i].label for i in theirs]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_child_stage_error_reads_as_in_the_serial_loop(tmp_path, monkeypatch, workers):
    _, theirs = _labels()
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    _fail(monkeypatch, {(theirs[-1], "fast_greedy"): GraphError("no clusters")})
    with pytest.raises(StageError) as info:
        run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    assert str(info.value) == "[meso] no clusters"
    assert info.value.stage == "meso"
    assert type(info.value.cause) is GraphError
    _assert_no_child_left()
    assert os.listdir(tmp_path) == []


class _TwoArgError(Exception):
    # pickles, but its args do not rebuild it
    def __init__(self, what: str, where: str) -> None:
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_child_error_that_does_not_unpickle_keeps_its_message(tmp_path, monkeypatch, workers):
    _, theirs = _labels()
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    _fail(monkeypatch, {(theirs[0], "summarize"): _TwoArgError("odd", "here")})
    with pytest.raises(KcnError, match=r"^\[macro\] odd at here$"):
        run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    _assert_no_child_left()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("first", ["ours", "theirs", "before_keep"])
def test_first_failing_slice_wins_then_first_failing_stage(tmp_path, monkeypatch, workers, first):
    ours, theirs = _labels()
    slices = [s.label for s in _slices()[0]]
    # the earlier failing slice fails in two stages, the later in one; in
    # before_keep the later is all, which this process runs first, and
    # the earlier is a slice this process runs after it
    early, late = {
        "ours": (ours[0], theirs[-1]),
        "theirs": (theirs[0], ours[-1]),
        "before_keep": (ours[0], "all"),
    }[first]
    assert slices.index(early) < slices.index(late)
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    _fail(
        monkeypatch,
        {
            (early, "fast_greedy"): GraphError(f"{early} meso"),
            (early, "summarize"): GraphError(f"{early} macro"),
            (late, "build_kcn"): GraphError(f"{late} build"),
        },
    )
    with pytest.raises(StageError) as info:
        run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    assert str(info.value) == f"[macro] {early} macro"
    _assert_no_child_left()
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("beside", [None, "ours", "theirs"])
def test_kept_slice_betweenness_failure_loses_to_a_year_slice_failure(
    tmp_path, monkeypatch, workers, beside
):
    # all, the kept slice, fails in its first source, in its last, or in
    # its meso, all of which this process runs first; a year slice of
    # either side fails in meso
    ours, theirs = _labels()
    year = {"ours": ours[0], "theirs": theirs[0]}.get(beside)
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    failures = {("all", "fast_greedy"): None}
    if beside is not None:
        failures[(year, "fast_greedy")] = GraphError(f"{year} meso")
    _fail(monkeypatch, failures)
    failing = []

    def fail(source):
        if source in failing:
            raise GraphError("all micro")

    n = _on_all_sources(monkeypatch, fail)
    for where in (0, n - 1, "meso"):
        failing[:] = [where]
        failures[("all", "fast_greedy")] = GraphError("all meso") if where == "meso" else None
        with pytest.raises(StageError) as info:
            run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
        if beside is None and where == "meso":
            assert str(info.value) == "[meso] all meso"
        elif beside is None:
            assert str(info.value) == "[micro] all micro"
            assert info.value.stage == "micro"
        else:
            assert str(info.value) == f"[meso] {year} meso"
        _assert_no_child_left()
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_a_full_disk_under_edges_csv_is_a_build_error(tmp_path, monkeypatch, capsys, workers):
    write_text = Path.write_text

    def full(path, *args, **kwargs):
        if path.name == "edges.csv":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    monkeypatch.setattr(Path, "write_text", full)
    assert cli.main(["run", "--config", str(CONFIG), "--out", str(tmp_path / "out")]) == 1
    error = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert capsys.readouterr().err == f"kcn: error: [build] {error}\n"
    _assert_no_child_left()
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_a_failed_build_of_the_kept_slice_alone_is_raised(tmp_path, monkeypatch, workers):
    # all is this process's first slice; its failure is its outcome, which
    # comes after every year slice in slice order
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    _fail(monkeypatch, {("all", "build_kcn"): GraphError("all build")})
    with pytest.raises(StageError, match=r"^\[build\] all build$"):
        run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    _assert_no_child_left()
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("late_side", ["ours", "theirs"])
def test_child_betweenness_failure_wins_over_a_later_meso_failure(
    tmp_path, monkeypatch, workers, late_side
):
    ours, theirs = _labels()
    slices = [s.label for s in _slices()[0]]
    early = theirs[0]
    late = next(
        label for label in (ours if late_side == "ours" else theirs)
        if slices.index(label) > slices.index(early)
    )
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    _fail(
        monkeypatch,
        {
            (early, "weighted_betweenness"): GraphError(f"{early} micro"),
            (late, "fast_greedy"): GraphError(f"{late} meso"),
        },
    )
    with pytest.raises(StageError) as info:
        run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    assert str(info.value) == f"[micro] {early} micro"
    assert info.value.stage == "micro"
    _assert_no_child_left()
    assert os.listdir(tmp_path) == []


def _fail_fit(monkeypatch, label: str, exc: Exception) -> None:
    """Make ``pipeline.fit_power_law`` raise ``exc`` on slice ``label``'s
    values. A share fits its slices after it has analysed them all, so a
    fit is told its slice by its input; call this before ``_fail``."""
    prepared = pipeline.prepare(load_config(CONFIG))
    inputs = {}
    for spec in prepared.slices:
        g = pipeline.build_kcn(prepared.normalized, spec)
        # the config fits the positive strengths
        inputs[spec.label] = sorted(s for s in (sum(row.values()) for row in g.adjacency()) if s)
    assert len({tuple(v) for v in inputs.values()}) == len(inputs)
    fit = pipeline.fit_power_law

    def failing(values, **kwargs):
        if list(values) == inputs[label]:
            raise exc
        return fit(values, **kwargs)

    monkeypatch.setattr(pipeline, "fit_power_law", failing)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("other", ["earlier_ours", "earlier_theirs", "later_ours", "later_theirs"])
def test_a_child_slice_fit_error_is_that_slice_outcome(tmp_path, monkeypatch, workers, other):
    # this process fits the child's slices once their outcomes arrive; an
    # error other than FitError is the macro failure of that slice, and
    # the first failing slice in slice order is raised
    ours, theirs = _labels()
    slices = [s.label for s in _slices()[0]]
    fitted = theirs[1]
    when, side = other.split("_")
    other_label = next(
        label for label in (ours if side == "ours" else theirs)
        if (slices.index(label) < slices.index(fitted)) == (when == "earlier")
        and label != fitted
    )
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    _fail_fit(monkeypatch, fitted, ValueError(f"{fitted} fit"))
    _fail(monkeypatch, {(other_label, "fast_greedy"): GraphError(f"{other_label} meso")})
    with pytest.raises(StageError) as info:
        run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    if when == "earlier":
        assert str(info.value) == f"[meso] {other_label} meso"
    else:
        assert str(info.value) == f"[macro] {fitted} fit"
        assert type(info.value.cause) is ValueError
    _assert_no_child_left()
    assert os.listdir(tmp_path) == []


@needs_fork
@pytest.mark.parametrize(
    ("error", "raised"),
    [(GraphError("parent slice"), StageError), (KeyboardInterrupt(), KeyboardInterrupt)],
    ids=["error", "interrupt"],
)
def test_parent_failure_while_the_child_writes_leaves_no_sibling(
    tmp_path, monkeypatch, error, raised
):
    ours, theirs = _labels()
    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    # the child sleeps before each of its slices, so this process fails first
    _fail(monkeypatch, {(ours[0], "build_kcn"): error}, delay=0.2)
    with pytest.raises(raised):
        run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    _assert_no_child_left()
    assert os.listdir(tmp_path) == []
    # a child left running would write its next slice into a new staging tree
    time.sleep(0.3)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_child_failure_under_force_keeps_old_bundle(tmp_path, monkeypatch, workers):
    _, theirs = _labels()
    old = tmp_path / "old"
    run_pipeline(load_config(CONFIG), out_dir=old)
    before = _tree(old)
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    _fail(monkeypatch, {(theirs[-1], "summarize"): GraphError("late")})
    with pytest.raises(StageError, match=r"^\[macro\] late$"):
        run_pipeline(load_config(CONFIG), out_dir=old, force=True)
    _assert_no_child_left()
    assert _tree(old) == before
    assert os.listdir(tmp_path) == ["old"]


def _child_work() -> str:
    prepared = pipeline.prepare(load_config(CONFIG))
    _, theirs = pipeline._schedule(prepared.normalized, prepared.slices, True)
    return "slices " + ", ".join(prepared.slices[i].label for i in theirs)


@needs_fork
def test_a_child_that_dies_is_an_error_naming_its_slices(tmp_path, monkeypatch):
    parent = os.getpid()
    build = pipeline.build_kcn

    def dying(corpus, spec):
        if os.getpid() != parent:
            os._exit(3)
        return build(corpus, spec)

    work = _child_work()
    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    monkeypatch.setattr(pipeline, "build_kcn", dying)
    with pytest.raises(KcnError, match=f"^worker for {work} failed with exit code 3$"):
        run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    _assert_no_child_left()
    assert os.listdir(tmp_path) == []
