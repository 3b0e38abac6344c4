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


def test_slice_span_and_setup_probe_targets_exist():
    assert callable(importlib.import_module("kcn.pipeline")._analyze_slice)
    assert callable(importlib.import_module("kcn.cli").load_config)
