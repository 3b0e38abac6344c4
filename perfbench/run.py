"""Benchmark of the ``kcn`` command line on seeded synthetic corpora.

    python3 perfbench/run.py --workload run_years --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is run from source, with
``src`` on ``PYTHONPATH``. Each workload generates its corpus and config
from ``--seed`` (see ``workloads.py``), then runs its ``kcn`` command in a
fresh ``python -m kcn`` process again and again for ``--seconds`` seconds.
Every run's output is hashed and compared with the sha256 recorded in
``reference.json`` for that workload and seed. A seed with no recorded
hash is checked for identical output across the runs instead.

``--trace 0`` reports the end-to-end metrics: ``run_s``, the median wall
time of the command from spawn to exit; ``setup_s``, the median CPU time
of a fresh interpreter that imports ``kcn.cli`` and loads the workload's
config, one probe after each command; and ``peak_rss_mb``, the median
peak RSS of the command's process. Both times are scaled to a nominal
machine speed by the CPU time of ``reference_job.py``, spawned just before
each probe and command (see :meth:`Bench.speed`); the unscaled wall
medians are printed too.

``--trace 1`` alternates untraced runs with runs of ``tracer.py`` and
reports its per-layer metrics, medians for times, plus the tracing
overhead. ``--workload all`` interleaves every workload in rounds and
prints both sets of metrics for each.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
nonzero when an output check fails.

``--record-references 0-99`` reruns every workload once per seed, and
once on the held-out seed, and rewrites ``reference.json``. Do that only
when a change to the program is meant to change its output bytes, and
say why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_DIR = WORK_ROOT / "spans"  # the spans of each workload's last traced run
COMMAND_TIMEOUT = 100.0
SETUP_CODE = "import sys\nfrom kcn.cli import load_config\nload_config(sys.argv[1])\n"
# about the CPU time of reference_job.py on a 2-core Intel Xeon VM; scaled
# times read as seconds at that speed
REFERENCE_NOMINAL_S = 0.35

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", metavar="FIRST-LAST", default=None)
    args = parser.parse_args(argv)

    if not (SRC / "kcn" / "__init__.py").is_file():
        print(f"perfbench: no kcn sources under {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{os.getpid()}"
    try:
        if args.record_references is not None:
            first, _, last = args.record_references.partition("-")
            seeds = [*range(int(first), int(last or first) + 1), workloads.HELD_OUT_SEED]
            return record_references(seeds, work)
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        benches = [Bench(workloads.WORKLOADS[n], args.seed, work / n) for n in names]
        return measure(benches, args.seconds, args.trace, args.workload == "all")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def kcn_env() -> dict[str, str]:
    """The environment of a ``kcn`` process: sources on the path, defaults."""
    env = dict(os.environ)
    env.pop("KCN_THREADS", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


class Bench:
    """One workload at one seed: its inputs, its runs and their samples."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = kcn_env()
        self.expected = _references().get(workload.name, {}).get(str(seed))
        # kept after the run, unlike the rest of the work directory
        self.spans = SPANS_DIR / f"{workload.name}.jsonl"
        self.first_hash: str | None = None
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- set-up -----------------------------------------------------------

    def prepare(self) -> None:
        self.config = workloads.write_inputs(self.workload, self.seed, self.work / "inputs")
        self.records = self.workload.corpus.records
        self.probe_setup(self.speed())  # untimed, to warm the file cache
        self.samples.clear()

    def speed(self) -> float:
        """Spawn ``reference_job.py``; return the nominal over its CPU time.

        The CPU speed of a shared machine changes in phases of seconds to
        minutes, by up to half, and not alike for every kind of work. The
        job mixes the two kinds a kcn command does, loading numpy in a
        fresh interpreter and pure-Python compute. A time multiplied by
        the speed measured just before it reads as the time at the nominal
        speed, and a change to kcn moves it while the job stays as it is.
        """
        _, cpu, _, code = self._spawn([sys.executable, str(BENCH_DIR / "reference_job.py")])
        if code != 0:
            raise RuntimeError(f"the reference job exited {code}")
        return REFERENCE_NOMINAL_S / cpu

    def probe_setup(self, speed: float) -> None:
        """Time one fresh interpreter that imports ``kcn.cli`` and loads the
        config, by its CPU (user plus system)."""
        wall, cpu, _, code = self._spawn([sys.executable, "-c", SETUP_CODE, str(self.config)])
        if code != 0:
            raise RuntimeError(f"{self.workload.name}: set-up probe exited {code}")
        self._sample("setup_s", cpu * speed)
        self._sample("setup_wall_s", wall)

    # -- runs -------------------------------------------------------------

    def run(self, speed: float) -> None:
        """Run the workload's command once; its wall time is scaled by ``speed``."""
        out = self._out()
        argv = [sys.executable, "-m", "kcn", *workloads.command_args(self.workload, self.config, out)]
        result = self._command(argv, out)
        if result is not None:
            wall, rss_mb, _, _ = result
            self._sample("run_s", wall * speed)
            self._sample("run_wall_s", wall)
            self._sample("peak_rss_mb", rss_mb)

    def run_traced(self) -> None:
        """Run the workload's command once under ``tracer.py``."""
        out = self._out()
        result_file = self.work / "trace.json"
        self.spans.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(result_file), str(self.spans),
                "--", *workloads.command_args(self.workload, self.config, out)]
        result = self._command(argv, out)
        if result is None:
            return
        wall, _, size, files = result
        self._sample("trace.run_s", wall)
        layer = json.loads(result_file.read_text("utf-8"))["metrics"]
        layer["pipeline.bundle_bytes"] = size
        layer["pipeline.bundle_files"] = files
        for name, _, timed in tracer.METRICS:
            if name not in layer:
                continue
            if timed:
                self._sample(name, layer[name])
            elif self.counts.setdefault(name, layer[name]) != layer[name]:
                self.problems.append(f"{name} changed between runs: "
                                     f"{self.counts[name]} then {layer[name]}")

    def _out(self) -> Path:
        return self.work / ("out" if self.workload.output == "bundle" else "out.graphml")

    def _command(self, argv: list[str], out: Path) -> tuple[float, float, int, int] | None:
        """Spawn one command and check its output; return its wall time,
        peak RSS in MB, and output bytes and files, or None if it failed."""
        wall, _, rss_mb, code = self._spawn(argv)
        self.attempted += 1
        try:
            digest, size, files = self._check(out, code)
        finally:
            shutil.rmtree(out, ignore_errors=True) if out.is_dir() else out.unlink(missing_ok=True)
        if digest is None:
            self.failed += 1
            return None
        return wall, rss_mb, size, files

    def _check(self, out: Path, code: int) -> tuple[str | None, int, int]:
        """Hash the output; return (sha256 or None on failure, bytes, files)."""
        name = self.workload.name
        if code != 0:
            self.problems.append(f"{name}: command exited {code}")
            return None, 0, 0
        if self.workload.output == "bundle":
            if not (out / "manifest.json").is_file():
                self.problems.append(f"{name}: bundle has no manifest.json")
                return None, 0, 0
            paths = sorted(p for p in out.rglob("*") if p.is_file())
        else:
            paths = [out] if out.is_file() else []
        h = hashlib.sha256()
        size = 0
        for p in paths:
            data = p.read_bytes()
            size += len(data)
            h.update(p.relative_to(out.parent).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
        digest = h.hexdigest()
        want = self.expected or self.first_hash
        if want is not None and digest != want:
            source = "reference.json" if self.expected else "the first run"
            self.problems.append(f"{name}: output sha256 {digest} differs from {source} ({want})")
            return None, 0, 0
        self.first_hash = digest
        return digest, size, len(paths)

    def _spawn(self, argv: list[str]) -> tuple[float, float, float, int]:
        """Run ``argv`` to completion.

        Returns the wall time, the CPU time (user plus system), the peak
        RSS in MB and the exit code.
        """
        self.work.mkdir(parents=True, exist_ok=True)
        with open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # a hung command is killed, and fails, well before the 180 s
            # a whole benchmark run may take
            killer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = (self.work / "stderr.txt").read_text("utf-8", "replace")[-2000:]
            print(f"perfbench: {argv[1:3]} exited {code}:\n{tail}", file=sys.stderr)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- results ----------------------------------------------------------

    def metrics(self, trace: bool) -> dict[str, dict]:
        out = {}
        if not trace:
            for name, unit in END_TO_END:
                out[name] = {"value": _median(self.samples.get(name)), "unit": unit}
            return out
        for name, unit, timed in tracer.METRICS:
            if timed:
                value = _median(self.samples.get(name))
            else:
                value = self.counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        overhead = out["trace.run_s"]["value"] - _median(self.samples.get("run_wall_s"))
        out["trace.overhead_s"]["value"] = overhead
        return out


def measure(benches: list[Bench], seconds: float, trace: int, both: bool) -> int:
    _print_machine()
    for b in benches:
        b.prepare()
    # one round runs every workload once, so slow phases of a shared
    # machine fall on all of them alike; the set-up probes are spread over
    # the rounds in the same way
    deadline = time.perf_counter() + seconds * len(benches)
    while True:
        for b in benches:
            speed = b.speed()
            b.probe_setup(speed)
            b.run(speed)
            if trace or both:
                b.run_traced()
        if time.perf_counter() >= deadline:
            break

    metrics: dict[str, dict] = {}
    for b in benches:
        prefix = f"{b.workload.name}." if both else ""
        wanted = [False, True] if both else [bool(trace)]
        print(f"\n{b.workload.name}: seed {b.seed}, {b.records} records, "
              f"reference {'recorded' if b.expected else 'not recorded; runs compared'}")
        for t in wanted:
            for name, m in b.metrics(t).items():
                metrics[prefix + name] = m
                print(f"  {name:30s} {m['value']:>16.6g} {m['unit']:6s}{_spread(b, name)}")
            if t:
                print(f"  spans of the last traced run: {b.spans}")
            else:  # the unscaled wall times, for reference
                for name in ("run_wall_s", "setup_wall_s"):
                    value = _median(b.samples.get(name))
                    print(f"  {name:30s} {value:>16.6g} s     {_spread(b, name)}")
        for problem in b.problems:
            print(f"  FAILED: {problem}")
    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    correct = failed == 0 and not any(b.problems for b in benches)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def record_references(seeds: list[int], work: Path) -> int:
    refs = _references()
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            b = Bench(workload, seed, work / name)
            b.expected = None
            b.config = workloads.write_inputs(workload, seed, b.work / "inputs")
            b.run(speed=1.0)  # only the output hash is kept
            if b.failed:
                print("\n".join(b.problems), file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = b.first_hash
            print(f"{name} seed {seed}: {b.first_hash}", flush=True)
    ordered = {n: dict(sorted(refs[n].items(), key=lambda kv: int(kv[0]))) for n in refs}
    REFERENCE.write_text(json.dumps(ordered, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


def _references() -> dict:
    return json.loads(REFERENCE.read_text("utf-8")) if REFERENCE.is_file() else {}


def _median(values: list[float] | None) -> float:
    return statistics.median(values) if values else 0.0


def _spread(b: Bench, name: str) -> str:
    values = b.samples.get(name)
    if not values or len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def _print_machine() -> None:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    versions = []
    for dist in ("numpy", "scipy"):
        try:
            versions.append(f"{dist} {metadata.version(dist)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{dist} missing")
    print(f"machine: nproc={os.cpu_count()} cpu={model!r} "
          f"python={sys.version.split()[0]} {' '.join(versions)}")


if __name__ == "__main__":
    sys.exit(main())
