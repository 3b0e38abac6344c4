"""The names the benchmark's tracer and set-up probe look up in ``kcn``.

``perfbench/tracer.py`` swaps a timing wrapper into every ``(module,
name)`` of its ``WRAPPED`` table and wraps ``kcn.pipeline._analyze_slice``
as the per-slice span; ``perfbench/run.py`` times ``kcn.cli.load_config``.
A refactor that unbinds any of them breaks every traced benchmark run, so
it has to fail here first.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_name_resolves():
    tracer = _load_tracer()
    missing = [
        f"{module_name}.{name}"
        for module_name, names in tracer.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(module_name), name, None))
    ]
    assert missing == []


def test_bundle_binds_no_wrapped_name():
    # kcn.pipeline and kcn.cli call each wrapped name through their own
    # binding; a call through a kcn.bundle binding would bypass the wrapper,
    # so its span would drop out and its time move into pipeline.self_s
    wrapped = {name for names in _load_tracer().WRAPPED.values() for name in names}
    assert sorted(wrapped & set(vars(importlib.import_module("kcn.bundle")))) == []


def test_slice_span_and_setup_probe_targets_exist():
    assert callable(importlib.import_module("kcn.pipeline")._analyze_slice)
    assert callable(importlib.import_module("kcn.cli").load_config)


def test_summarize_calls_average_clustering_through_its_module(monkeypatch):
    # the tracer's kcn.structure.average_clustering span is the only one
    # inside summarize, and the benchmark's self-test requires it
    structure = importlib.import_module("kcn.structure")
    graph = importlib.import_module("kcn.graph")
    calls = []
    original = structure.average_clustering

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(structure, "average_clustering", counting)
    g = graph.WeightedGraph.from_edges(
        [("a", "b", 2), ("b", "c", 1), ("a", "c", 3), ("c", "d", 1)]
    )
    assert structure.summarize(g).c == original(g, weighted=True)
    assert len(calls) == 1
