"""Cheap self-test of the benchmark at a tiny corpus size.

    python3 perfbench/selftest.py

Checks that the generator writes identical bytes for the same seed and
different bytes for another seed, and that a traced run of each workload
records a span for every wrapped function its command reaches, with no
call slipping past a wrapper. It also checks that each workload bypasses
what it was designed to bypass. Exits nonzero on the first failed check.
Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

TINY = {"records": 150, "vocabulary": 100}

# span names a workload must never record, and ones it must record
BYPASSED = {
    "run_years": set(),
    "meso_vocab": {"weighted_betweenness", "ego_network"},
    "export_variants": {"weighted_betweenness", "fast_greedy", "summarize"},
}
REQUIRED = {
    "run_years": {"merge_synonyms", "fast_greedy", "weighted_betweenness", "ego_network", "slice"},
    "meso_vocab": {"merge_synonyms", "fast_greedy", "modularity", "average_clustering", "slice"},
    "export_variants": {"merge_synonyms", "similarity", "build_kcn", "to_graphml"},
}


def tiny(workload: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(workload, corpus=dataclasses.replace(workload.corpus, **TINY))


def check_generator(tmp: Path) -> None:
    workload = tiny(workloads.WORKLOADS["run_years"])

    def files(seed: int, name: str) -> list[bytes]:
        directory = tmp / name
        workloads.write_inputs(workload, seed, directory)
        return [(directory / f).read_bytes() for f in ("corpus.jsonl", "config.json")]

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    if first != again:
        raise SystemExit("generator: same seed gave different bytes")
    if first[0] == other[0] or first[1] == other[1]:
        raise SystemExit("generator: another seed gave the same bytes")
    print("generator: same seed same bytes, other seed other bytes")


def check_trace(tmp: Path, workload: workloads.Workload) -> None:
    name = workload.name
    directory = tmp / name
    config = workloads.write_inputs(tiny(workload), 3, directory)
    out = directory / "out"
    result_file = directory / "trace.json"
    spans_file = directory / "spans.jsonl"
    argv = [sys.executable, str(run.BENCH_DIR / "tracer.py"), str(result_file), str(spans_file),
            "--check-reach", "--", *workloads.command_args(workload, config, out)]
    proc = subprocess.run(argv, cwd=directory, env=run.kcn_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: traced run exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(result_file.read_text("utf-8"))
    spans = set(result["span_names"])
    missing = set(result["reached"]) - spans
    if missing:
        raise SystemExit(f"{name}: reached without a span: {sorted(missing)}")
    if result["bypassed"]:
        raise SystemExit(f"{name}: calls that skipped their wrapper: {result['bypassed']}")
    if spans & BYPASSED[name]:
        raise SystemExit(f"{name}: ran what it should bypass: {sorted(spans & BYPASSED[name])}")
    if not REQUIRED[name] <= spans:
        raise SystemExit(f"{name}: no span for {sorted(REQUIRED[name] - spans)}")
    written = {json.loads(line)["name"] for line in spans_file.read_text("utf-8").splitlines()}
    if written != spans:
        raise SystemExit(f"{name}: the spans file differs from the traced span names")
    metrics = result["metrics"]
    if name == "run_years" and not list(out.glob("ego_*.graphml")):
        raise SystemExit(f"{name}: no emerging keyword, so no ego file")
    if name != "run_years" and metrics["trends.betweenness_s"] != 0:
        raise SystemExit(f"{name}: trends.betweenness_s is not 0")
    print(f"{name}: {len(spans)} span names, every reached wrapper traced")


def main() -> int:
    run.WORK_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))
    try:
        check_generator(tmp)
        for workload in workloads.WORKLOADS.values():
            check_trace(tmp, workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
