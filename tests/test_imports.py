"""Each ``kcn`` command loads only the modules it runs.

numpy loads only for the macro power-law fit and scipy only for the
discrete one, both with one BLAS thread unless the caller sets
``OPENBLAS_NUM_THREADS``; GraphML escaping needs no ``xml.sax``, whose
``saxutils`` pulls in ``urllib.request``, ``http.client`` and ``ssl``. No
command loads ``dataclasses``, which costs a third of the start-up, and
only ``kcn run`` loads ``_hashlib`` (OpenSSL), for its manifest. Each
probe is a fresh interpreter with only ``src`` on its path. Only
``pipeline``, which schedules the slices, imports the modules that run
processes.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIG = DATA / "config.json"
HEAVY = ("numpy", "scipy", "xml.sax", "urllib.request", "dataclasses", "_hashlib")

# runs ``kcn`` with the given arguments (or only loads the config), then
# prints which of HEAVY the interpreter holds as its last line
PROBE = f"""
import json, sys
from kcn.cli import main
from kcn.config import load_config
if len(sys.argv) > 1:
    code = main(sys.argv[1:])
else:
    load_config({str(CONFIG)!r})
    code = 0
print(json.dumps([code, [m for m in {HEAVY!r} if m in sys.modules]]))
"""


def _probe(tmp_path: Path, code: str, blas: str | None, *args: str) -> list:
    """Run ``code`` in a fresh interpreter with ``OPENBLAS_NUM_THREADS``
    set to ``blas`` (unset for None); return its last line, parsed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def _loaded(tmp_path: Path, *args: str) -> list[str]:
    code, loaded = _probe(tmp_path, PROBE, None, *args)
    assert code == 0
    return loaded


@pytest.mark.parametrize(
    "args, loads",
    [
        ((), []),
        (("export", "--config", str(CONFIG), "--slice", "all", "--format", "graphml",
          "--out", "all.graphml"), []),
        # shows the probe sees _hashlib: the manifest holds sha256 digests
        (("run", "--config", str(CONFIG), "--out", "bundle", "--only", "meso",
          "--only", "micro"), ["_hashlib"]),
    ],
    ids=["config", "export-graphml", "run-meso-micro"],
)
def test_command_loads_no_numpy_scipy_or_xml_sax(tmp_path, args, loads):
    assert _loaded(tmp_path, *args) == loads


def test_full_run_loads_numpy_for_the_fit(tmp_path):
    # shows the probe sees an import: macro fits a power law with numpy
    loaded = _loaded(tmp_path, "run", "--config", str(CONFIG), "--out", "bundle")
    assert "numpy" in loaded
    assert "xml.sax" not in loaded


def test_inspect_loads_no_numpy_scipy_or_xml_sax(tmp_path):
    _loaded(tmp_path, "run", "--config", str(CONFIG), "--out", "bundle",
            "--only", "meso", "--only", "micro")
    assert _loaded(tmp_path, "inspect", "Neural Networks", "--bundle", "bundle") == []


def test_no_module_imports_dataclasses():
    # the record types are NamedTuples: dataclasses loads inspect and ast,
    # and @dataclass compiles each type's methods as the module loads
    importers = [
        path.name
        for path in sorted((SRC / "kcn").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert importers == []


def test_graph_loads_only_corpus_and_errors(tmp_path):
    # the package root imports no submodule, so kcn.graph pulls in only its own imports
    probe = ("import json, sys, kcn.graph; print(json.dumps(sorted("
             "m for m in sys.modules if m == 'kcn' or m.startswith('kcn.'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == ["kcn", "kcn.corpus", "kcn.errors", "kcn.graph"]


# a kcn run on two CPUs; each process appends a line as it ends its share
# of the slices, saying whether it holds numpy, then this process prints
# whether it holds numpy at the end as its last line
SHARES = f"""
import json, os, sys
from kcn import pipeline
from kcn.cli import main
pipeline._workers = lambda: 2
parent = os.getpid()
share = pipeline._slice_share

def logged(*args):
    outcomes = share(*args)
    with open("shares.txt", "a", encoding="utf-8") as fh:
        side = "here" if os.getpid() == parent else "child"
        fh.write(f"{{side}} {{'numpy' in sys.modules}}\\n")
    return outcomes

pipeline._slice_share = logged
code = main(["run", "--config", {str(CONFIG)!r}, "--out", "bundle"])
print(json.dumps([code, "numpy" in sys.modules]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_only_this_process_loads_numpy_after_its_slices(tmp_path):
    # the child's fits run here, so the child never loads numpy
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", SHARES], capture_output=True,
                         text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == [0, True]
    shares = (tmp_path / "shares.txt").read_text("utf-8").splitlines()
    assert sorted(shares) == ["child False", "here False"]


# runs ``kcn`` with the given arguments, then prints its exit code, the
# OS threads this process holds and OPENBLAS_NUM_THREADS as its last line
THREADS = """
import json, os, sys
from kcn.cli import main
code = main(sys.argv[1:])
threads = len(os.listdir("/proc/self/task"))
print(json.dumps([code, threads, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""

# loads what a discrete fit loads, then prints the OS threads it holds
PLAIN = """
import os
import numpy, scipy.optimize, scipy.special
print(len(os.listdir("/proc/self/task")))
"""

needs_tasks = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task"
)


def _discrete_config(tmp_path: Path) -> Path:
    raw = json.loads(CONFIG.read_text("utf-8"))
    raw["inputs"] = [str(DATA / "synthetic_corpus.jsonl")]
    raw["flags"]["discrete_power_law"] = True
    path = tmp_path / "discrete.json"
    path.write_text(json.dumps(raw), "utf-8")
    return path


@needs_tasks
@pytest.mark.parametrize("discrete", [False, True], ids=["continuous", "discrete"])
def test_fit_loads_blas_with_one_thread_and_leaves_the_environment(tmp_path, discrete):
    # kcn makes no BLAS call, so numpy and scipy start no BLAS worker, and
    # the variable that sizes the pool at load is gone again afterwards
    config = _discrete_config(tmp_path) if discrete else CONFIG
    args = ("run", "--config", str(config), "--out", "bundle")
    assert _probe(tmp_path, THREADS, None, *args) == [0, 1, None]


@needs_tasks
def test_fit_keeps_the_callers_blas_threads(tmp_path):
    # a pool size the caller sets is kept, and the pools hold the threads a
    # plain import of numpy and scipy gives under the same setting
    args = ("run", "--config", str(_discrete_config(tmp_path)), "--out", "bundle")
    code, threads, blas = _probe(tmp_path, THREADS, "2", *args)
    assert [code, blas] == [0, "2"]
    assert threads == _probe(tmp_path, PLAIN, "2")


def test_only_pipeline_runs_processes():
    # trends holds analysis only: the fork and the CPU rule live beside the
    # schedule in pipeline, which takes only public names from trends
    pipeline = ast.parse((SRC / "kcn" / "pipeline.py").read_text("utf-8"))
    from_trends = [
        alias.name
        for node in ast.walk(pipeline)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "trends"
        for alias in node.names
    ]
    assert "weighted_betweenness" in from_trends
    assert [name for name in from_trends if name.startswith("_")] == []
    trends = ast.parse((SRC / "kcn" / "trends.py").read_text("utf-8"))
    defined = {node.name for node in trends.body if isinstance(node, ast.FunctionDef)}
    assert "weighted_betweenness" in defined and not defined & {"_forked", "_workers"}
    imported = {
        alias.name for node in ast.walk(trends) if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert "heapq" in imported and not imported & {"os", "sys", "threading"}


def test_no_module_imports_a_private_name_from_another():
    # a name another module needs is public where it is defined: the bundle
    # format's helpers live in kcn.bundle, stage in kcn.errors and
    # safe_name and NAME_BYTES in kcn.graph
    private = [
        f"{path.name}: {alias.name}"
        for path in sorted((SRC / "kcn").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").split(".")[0] == "kcn")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_pipeline_and_cli_bind_no_bundle_formatting():
    # the bundle's cell formatting, table writers and slice file names stay
    # behind kcn.bundle's per-kind writers and keyed reader
    import kcn.cli
    import kcn.pipeline

    names = ("fmt", "write_csv", "write_tsv", "write_json", "slice_file")
    bound = [
        f"{module.__name__}.{name}"
        for module in (kcn.pipeline, kcn.cli)
        for name in names
        if hasattr(module, name)
    ]
    assert bound == []
