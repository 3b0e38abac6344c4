"""The slice phase of ``kcn run`` split between this process and a child.

``pipeline._analyze_slices`` hands the slices ``pipeline._schedule``
gives the child to one forked child when there are two CPUs. These tests
pin that the bundle does not depend on the split, that a failure reads as
it would in the serial loop, that a run has at most one child at a time
and builds each slice graph once, and that no child or partial bundle
outlives a run.
"""

from __future__ import annotations

import errno
import json
import os
import time
from itertools import combinations
from pathlib import Path

import pytest

from kcn import cli, pipeline, trends
from kcn.config import load_config
from kcn.errors import GraphError, KcnError, StageError
from kcn.pipeline import STAGES, run_pipeline

from conftest import DATA
from test_trends import WORKER_COUNTS, needs_fork

CONFIG = DATA / "config.json"
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
        mp.setattr(trends, "_workers", lambda: 1)
        trees = {}
        for only in SUBSETS:
            name = "-".join(sorted(only))
            run_pipeline(load_config(CONFIG), out_dir=root / name, only=only)
            trees[name] = _tree(root / name)
        run_pipeline(load_config(_discrete_config(root)), out_dir=root / "discrete")
        trees["discrete"] = _tree(root / "discrete")
    return trees


def _slices():
    prepared = pipeline.prepare(load_config(CONFIG))
    return prepared.slices, pipeline._schedule(prepared.normalized, prepared.slices, True)[1]


def test_the_test_config_gives_both_processes_slices():
    slices, theirs = _slices()
    assert 0 < len(theirs) < len(slices)
    # the costliest slice, all, stays here; each process has a slice
    # before one of the other's
    assert slices[-1].label == "all" and len(slices) - 1 not in theirs
    ours = [i for i in range(len(slices)) if i not in theirs]
    assert min(theirs) < min(ours) < max(theirs)


def test_child_share_repeats_and_leaves_a_lone_slice_here():
    prepared = pipeline.prepare(load_config(CONFIG))
    assert pipeline._schedule(prepared.normalized, prepared.slices, True)[1] == _slices()[1]
    for spec in prepared.slices:
        assert pipeline._schedule(prepared.normalized, [spec], True) == (0, [])


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("only", SUBSETS, ids=lambda s: "-".join(sorted(s)))
def test_bundle_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, serial, workers, only):
    monkeypatch.setattr(trends, "_workers", lambda: workers)
    run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out", only=only)
    assert _tree(tmp_path / "out") == serial["-".join(sorted(only))]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_discrete_fit_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, serial, workers):
    monkeypatch.setattr(trends, "_workers", lambda: workers)
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

    monkeypatch.setattr(trends, "_workers", lambda: 2)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    assert _tree(tmp_path / "out") == serial["macro-meso-micro"]
    # the slice phase and each slice's betweenness tried
    assert len(made) == (0 if fails == "pipe" else 2 * (1 + len(_slices()[0])))
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
    # the last call, this process's, is the all slice's betweenness
    assert dropped[-1] > 0
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
        monkeypatch.setattr(trends, "_workers", lambda: workers)
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

    monkeypatch.setattr(trends, "_workers", lambda: workers)
    monkeypatch.setattr(pipeline, "build_kcn", building)
    egos = []
    # all is kept in both orders, so its graph gives the ego networks and
    # no slice graph is built twice
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
        keep, _ = pipeline._schedule(prepared.normalized, prepared.slices, True)
        assert prepared.slices[keep].label == "all"
        log.write_text("", "utf-8")
        run_pipeline(config, out_dir=tmp_path / name)
        assert sorted(log.read_text("utf-8").splitlines()) == sorted(s.label for s in prepared.slices)
        egos.append({k: v for k, v in _tree(tmp_path / name).items() if k.startswith("ego_")})
    assert "ego_large_language_model.graphml" in egos[0]
    assert egos[0] == egos[1]


@needs_fork
@pytest.mark.parametrize(("only", "forks"), [(None, 2), ({"macro", "meso"}, 1)])
def test_a_run_forks_one_child_at_a_time(tmp_path, monkeypatch, only, forks):
    # either process appends a line per fork: its pid and its live children
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

    monkeypatch.setattr(trends, "_workers", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out", only=only)
    # the slice phase's child, then the costliest slice's betweenness child
    assert log.read_text("utf-8").splitlines() == [f"{os.getpid()} 0"] * forks


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_this_process_builds_the_costliest_slice_first(tmp_path, monkeypatch, workers):
    built: list[str] = []  # a forked child appends to its own copy
    build = pipeline.build_kcn

    def building(corpus, spec):
        built.append(spec.label)
        return build(corpus, spec)

    monkeypatch.setattr(trends, "_workers", lambda: workers)
    monkeypatch.setattr(pipeline, "build_kcn", building)
    run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    # all, the costliest, then the rest of this process's share in order
    here = _labels()[0] if workers == 2 else [s.label for s in _slices()[0]]
    assert built == ["all", *(label for label in here if label != "all")]


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


def _labels():
    slices, theirs = _slices()
    ours = [i for i in range(len(slices)) if i not in theirs]
    return [slices[i].label for i in ours], [slices[i].label for i in theirs]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_child_stage_error_reads_as_in_the_serial_loop(tmp_path, monkeypatch, workers):
    _, theirs = _labels()
    monkeypatch.setattr(trends, "_workers", lambda: workers)
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
    monkeypatch.setattr(trends, "_workers", lambda: workers)
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
    monkeypatch.setattr(trends, "_workers", lambda: workers)
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
    # all, the kept slice, runs its betweenness after the phase, in this
    # process; a year slice of either side fails in meso
    ours, theirs = _labels()
    year = {"ours": ours[0], "theirs": theirs[0]}.get(beside)
    monkeypatch.setattr(trends, "_workers", lambda: workers)
    if beside is not None:
        _fail(monkeypatch, {(year, "fast_greedy"): GraphError(f"{year} meso")})
    kept = []
    build = pipeline.build_kcn
    betweenness = pipeline.weighted_betweenness

    def building(corpus, spec):
        g = build(corpus, spec)
        if spec.label == "all":
            kept.append(g)
        return g

    def failing(g):
        if any(g is k for k in kept):
            raise GraphError("all micro")
        return betweenness(g)

    monkeypatch.setattr(pipeline, "build_kcn", building)
    monkeypatch.setattr(pipeline, "weighted_betweenness", failing)
    with pytest.raises(StageError) as info:
        run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    if beside is None:
        assert str(info.value) == "[micro] all micro"
        assert info.value.stage == "micro"
    else:
        assert str(info.value) == f"[meso] {year} meso"
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
    monkeypatch.setattr(trends, "_workers", lambda: workers)
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
    monkeypatch.setattr(trends, "_workers", lambda: 2)
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
    monkeypatch.setattr(trends, "_workers", lambda: workers)
    _fail(monkeypatch, {(theirs[-1], "summarize"): GraphError("late")})
    with pytest.raises(StageError, match=r"^\[macro\] late$"):
        run_pipeline(load_config(CONFIG), out_dir=old, force=True)
    _assert_no_child_left()
    assert _tree(old) == before
    assert os.listdir(tmp_path) == ["old"]


@needs_fork
def test_a_child_that_dies_is_an_error_naming_its_slices(tmp_path, monkeypatch):
    _, theirs = _labels()
    parent = os.getpid()
    build = pipeline.build_kcn

    def dying(corpus, spec):
        if os.getpid() != parent:
            os._exit(3)
        return build(corpus, spec)

    monkeypatch.setattr(trends, "_workers", lambda: 2)
    monkeypatch.setattr(pipeline, "build_kcn", dying)
    with pytest.raises(KcnError, match=f"slices {', '.join(theirs)} failed with exit code 3"):
        run_pipeline(load_config(CONFIG), out_dir=tmp_path / "out")
    _assert_no_child_left()
    assert os.listdir(tmp_path) == []
