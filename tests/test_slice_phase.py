"""The slice phase of ``kcn run`` split between this process and a child.

``pipeline._analyze_slices`` hands the slices ``pipeline._child_share``
picks to one forked child when there are two CPUs. These tests pin that
the bundle does not depend on the split, that a failure reads as it would
in the serial loop, and that no child or partial bundle outlives a run.
"""

from __future__ import annotations

import errno
import json
import os
import time
from itertools import combinations
from pathlib import Path

import pytest

from kcn import pipeline, trends
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
    return prepared.slices, pipeline._child_share(prepared.normalized, prepared.slices)


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
    assert pipeline._child_share(prepared.normalized, prepared.slices) == _slices()[1]
    for spec in prepared.slices:
        assert pipeline._child_share(prepared.normalized, [spec]) == []


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
@pytest.mark.parametrize("first", ["ours", "theirs"])
def test_first_failing_slice_wins_then_first_failing_stage(tmp_path, monkeypatch, workers, first):
    ours, theirs = _labels()
    slices = [s.label for s in _slices()[0]]
    # the earlier failing slice fails in two stages, the later in one
    early, late = (ours[0], theirs[-1]) if first == "ours" else (theirs[0], ours[-1])
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
