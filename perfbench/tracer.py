"""Traced in-process run of one ``kcn`` command, timed layer by layer.

Run as ``python tracer.py RESULT_JSON SPANS_JSONL [--check-reach] --
KCN_ARGS...`` with the repo's ``src`` on ``PYTHONPATH``. It swaps timing
wrappers into the ``kcn`` modules by attribute assignment, calls
``kcn.cli.main`` in this process, and writes the per-layer metrics as one
JSON object to RESULT_JSON. Nothing inside the program changes; spans are
taken around the calls the program makes between its modules. They stay
in memory during the run and are written to SPANS_JSONL, one per line,
when it ends.

A span keeps its name, thread, parent, wall start and end, and the thread
CPU time it used. A layer's ``_s`` metric is thread-CPU self time: a
span's CPU minus that of its child spans on the same thread. A ``_wait_s``
metric is span wall time minus thread CPU, which on this pure-Python code
is mostly time spent waiting for the interpreter lock. The CPU of the
tracer's own hooks, which count work from call arguments and results, is
kept apart on each span and left out of every metric. Heap operations are
counted by replacing the ``heapq`` attribute of ``kcn.communities`` and
``kcn.trends`` with a counting proxy.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import itertools
import json
import math
import sys
import threading
import time
from dataclasses import dataclass

# (module, names) whose attribute is replaced by a timing wrapper; the
# public names kcn.pipeline and kcn.cli import, plus the nested calls
WRAPPED = {
    "kcn.cli": (
        "load_config", "build_kcn", "to_dot", "to_edge_csv", "to_graphml",
        "fold_case_hyphens", "load_lexicon", "normalize_corpus", "similarity",
        "concat_corpora", "filter_eligible", "load_corpus", "run_pipeline",
    ),
    "kcn.pipeline": (
        "cluster_profiles", "fast_greedy", "name_clusters", "concat_corpora",
        "filter_eligible", "load_corpus", "build_kcn", "largest_component",
        "to_edge_csv", "write_graphml", "load_lexicon", "normalize_corpus",
        "average_clustering", "ccdf", "fit_power_law", "profile_nodes",
        "summarize", "detect_emerging", "ego_network", "frequency_table",
        "top_k_table", "weighted_betweenness",
    ),
    "kcn.normalize": ("merge_synonyms", "similarity"),
    "kcn.structure": ("average_clustering",),
    "kcn.communities": ("modularity",),
}

# span name -> the per-layer metric its self time counts toward; wrapped
# names missing here (config loading, run_pipeline, an exporter the
# workloads never call) fall into pipeline.self_s
LAYER_TIME = {
    "load_corpus": "corpus.load_s",
    "concat_corpora": "corpus.load_s",
    "filter_eligible": "corpus.filter_s",
    "load_lexicon": "normalize.lexicon_s",
    "normalize_corpus": "normalize.normalize_s",
    "fold_case_hyphens": "normalize.normalize_s",
    "merge_synonyms": "normalize.merge_s",
    "similarity": "normalize.dp_s",
    "build_kcn": "graph.build_s",
    "largest_component": "graph.lcc_s",
    "to_edge_csv": "graph.edge_csv_s",
    "to_graphml": "graph.graphml_s",
    "write_graphml": "graph.graphml_s",
    "summarize": "structure.summarize_s",
    "average_clustering": "structure.clustering_s",
    "profile_nodes": "structure.profile_s",
    "fit_power_law": "structure.fit_s",
    "ccdf": "structure.fit_s",
    "fast_greedy": "communities.fast_greedy_s",
    "modularity": "communities.modularity_s",
    "name_clusters": "communities.naming_s",
    "cluster_profiles": "communities.naming_s",
    "weighted_betweenness": "trends.betweenness_s",
    "top_k_table": "trends.tables_s",
    "detect_emerging": "trends.tables_s",
    "frequency_table": "trends.tables_s",
    "ego_network": "trends.ego_s",
}

# (metric, unit, timed) in report order; a timed metric is reported as a
# median over runs, any other must repeat exactly. The pipeline.* byte
# counts and the trace.* wall times are measured around this process
METRICS = [
    ("corpus.load_s", "s", True),
    ("corpus.filter_s", "s", True),
    ("corpus.records", "count", False),
    ("normalize.lexicon_s", "s", True),
    ("normalize.normalize_s", "s", True),
    ("normalize.merge_s", "s", True),
    ("normalize.dp_s", "s", True),
    ("normalize.forms", "count", False),
    ("normalize.pairs", "count", False),
    ("normalize.dp_calls", "count", False),
    ("normalize.dp_hit_ratio", "ratio", False),
    ("normalize.merged_forms", "count", False),
    ("graph.build_s", "s", True),
    ("graph.lcc_s", "s", True),
    ("graph.edge_csv_s", "s", True),
    ("graph.graphml_s", "s", True),
    ("graph.nodes", "count", False),
    ("graph.edges", "count", False),
    ("structure.summarize_s", "s", True),
    ("structure.clustering_s", "s", True),
    ("structure.profile_s", "s", True),
    ("structure.fit_s", "s", True),
    ("structure.wedges", "count", False),
    ("communities.fast_greedy_s", "s", True),
    ("communities.modularity_s", "s", True),
    ("communities.naming_s", "s", True),
    ("communities.merges", "count", False),
    ("communities.heap_pushes", "count", False),
    ("communities.heap_pops", "count", False),
    ("communities.stale_pop_ratio", "ratio", False),
    ("trends.betweenness_s", "s", True),
    ("trends.betweenness_wait_s", "s", True),
    ("trends.sources", "count", False),
    ("trends.heap_pushes", "count", False),
    ("trends.heap_pops", "count", False),
    ("trends.scale_bits", "bits", False),
    ("trends.tables_s", "s", True),
    ("trends.ego_s", "s", True),
    ("pipeline.self_s", "s", True),
    ("pipeline.slice_wait_s", "s", True),
    ("pipeline.cpu_s", "s", True),
    ("pipeline.parallelism", "ratio", True),
    ("pipeline.bundle_bytes", "bytes", False),
    ("pipeline.bundle_files", "count", False),
    ("trace.run_s", "s", True),
    ("trace.overhead_s", "s", True),
]


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    cpu: float = 0.0
    child_cpu: float = 0.0
    hook_cpu: float = 0.0  # the tracer's hooks around this call


class CountingHeapq:
    """Stand-in for the ``heapq`` module that counts pushes and pops."""

    def __init__(self) -> None:
        # next() on itertools.count is atomic under the interpreter lock,
        # so worker threads never lose an increment
        self._pushes = itertools.count()
        self._pops = itertools.count()

    def heappush(self, heap, item) -> None:
        next(self._pushes)
        heapq.heappush(heap, item)

    def heappop(self, heap):
        next(self._pops)
        return heapq.heappop(heap)

    def __getattr__(self, name):
        return getattr(heapq, name)

    def totals(self) -> tuple[int, int]:
        """(pushes, pops); read once, after the run."""
        return next(self._pushes), next(self._pops)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        # next() on itertools.count is atomic under the interpreter lock;
        # the similarity hook runs once per call, so it takes no lock
        self._dp_calls = itertools.count()
        self._dp_hits = itertools.count()
        self.counts = {
            "corpus.records": 0,
            "normalize.forms": 0,
            "normalize.pairs": 0,
            "normalize.merged_forms": 0,
            "graph.nodes": 0,
            "graph.edges": 0,
            "structure.wedges": 0,
            "communities.merges": 0,
            "trends.sources": 0,
            "trends.scale_bits": 0,
        }
        self.threshold = 0.0

    def _add(self, key: str, value: int) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, fn, name: str, after=None, before=None):
        """Return ``fn`` timed as span ``name``; hooks see args and result."""
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            hook0 = time.thread_time()
            if before is not None:
                before(*args, **kwargs)
            span = Span(
                name, next(ids), stack[-1].id if stack else None,
                threading.get_ident(), time.perf_counter(),
            )
            stack.append(span)
            cpu0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu1 = time.thread_time()
                span.cpu = cpu1 - cpu0
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if after is not None:
                after(result, *args, **kwargs)
            # the hooks ran outside the span, on the parent's clock; count
            # them as the parent's child time so no layer is charged
            span.hook_cpu = (cpu0 - hook0) + (time.thread_time() - cpu1)
            if stack:
                stack[-1].child_cpu += span.cpu + span.hook_cpu
            return result

        return traced

    # -- hooks that turn call arguments and results into work counts -----

    def _loaded(self, corpus, *args, **kwargs) -> None:
        self._add("corpus.records", len(corpus))

    def _merge_before(self, keywords, lexicon) -> None:
        self.threshold = lexicon.synonym_threshold
        self._merged_before = len(lexicon.merge_map)
        v = len(keywords)
        self._add("normalize.forms", v)
        self._add("normalize.pairs", v * (v - 1) // 2)

    def _merge_after(self, lexicon, keywords, _lexicon) -> None:
        self._add("normalize.merged_forms", len(lexicon.merge_map) - self._merged_before)

    def _scored(self, score, a, b) -> None:
        next(self._dp_calls)
        if score >= self.threshold:
            next(self._dp_hits)

    def _built(self, g, *args, **kwargs) -> None:
        self._add("graph.nodes", g.n)
        self._add("graph.edges", g.m)

    def _summarized(self, summary, g) -> None:
        self._add("structure.wedges", sum(k * (k - 1) // 2 for k in map(g.degree, g.labels())))

    def _clustered(self, partition, g) -> None:
        self._add("communities.merges", len(partition.merge_trace))

    def _betweenness(self, values, g) -> None:
        self._add("trends.sources", g.n)
        weights = [w for _, _, w in g.edges()]
        bits = math.lcm(*weights).bit_length() if weights else 0
        with self._lock:
            self.counts["trends.scale_bits"] = max(self.counts["trends.scale_bits"], bits)

    def install(self) -> dict[str, CountingHeapq]:
        """Swap the wrappers and heap proxies into the ``kcn`` modules."""
        hooks = {
            "load_corpus": (None, self._loaded),
            "merge_synonyms": (self._merge_before, self._merge_after),
            "similarity": (None, self._scored),
            "build_kcn": (None, self._built),
            "summarize": (None, self._summarized),
            "fast_greedy": (None, self._clustered),
            "weighted_betweenness": (None, self._betweenness),
        }
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for name in names:
                before, after = hooks.get(name, (None, None))
                setattr(module, name, self.wrap(getattr(module, name), name, after, before))
        # one span per slice task submitted to the thread pool; its self
        # time is file writing
        pipeline = importlib.import_module("kcn.pipeline")
        pipeline._analyze_slice = self.wrap(pipeline._analyze_slice, "slice")
        heaps = {}
        for module_name in ("kcn.communities", "kcn.trends"):
            module = importlib.import_module(module_name)
            heaps[module_name] = module.heapq = CountingHeapq()
        return heaps

    def metrics(self, wall: float, cpu: float, heaps: dict[str, CountingHeapq]) -> dict:
        main = threading.main_thread().ident
        out = {key: 0.0 for key in set(LAYER_TIME.values())}
        attributed = 0.0
        hooks = 0.0
        betweenness_wait = 0.0
        slice_wait = 0.0
        for span in self.spans:
            self_cpu = span.cpu - span.child_cpu
            hooks += span.hook_cpu
            key = LAYER_TIME.get(span.name)
            if key is not None:
                out[key] += self_cpu
                attributed += self_cpu
            if span.name == "weighted_betweenness":
                betweenness_wait += (span.end - span.start) - span.cpu
            if span.thread != main and span.parent is None:
                slice_wait += (span.end - span.start) - span.cpu
        c = self.counts
        pushes, pops = heaps["kcn.communities"].totals()
        t_pushes, t_pops = heaps["kcn.trends"].totals()
        dp_calls, dp_hits = next(self._dp_calls), next(self._dp_hits)
        merges = c["communities.merges"]
        out.update(
            {
                "corpus.records": c["corpus.records"],
                "normalize.forms": c["normalize.forms"],
                "normalize.pairs": c["normalize.pairs"],
                "normalize.dp_calls": dp_calls,
                "normalize.dp_hit_ratio": dp_hits / dp_calls if dp_calls else 0.0,
                "normalize.merged_forms": c["normalize.merged_forms"],
                "graph.nodes": c["graph.nodes"],
                "graph.edges": c["graph.edges"],
                "structure.wedges": c["structure.wedges"],
                "communities.merges": merges,
                "communities.heap_pushes": pushes,
                "communities.heap_pops": pops,
                "communities.stale_pop_ratio": (pops - merges) / pops if pops else 0.0,
                "trends.betweenness_wait_s": betweenness_wait,
                "trends.sources": c["trends.sources"],
                "trends.heap_pushes": t_pushes,
                "trends.heap_pops": t_pops,
                "trends.scale_bits": c["trends.scale_bits"],
                "pipeline.self_s": cpu - attributed - hooks,
                "pipeline.slice_wait_s": slice_wait,
                "pipeline.cpu_s": cpu,
                "pipeline.parallelism": cpu / wall if wall > 0 else 0.0,
            }
        )
        return out


def _reach_recorder(wrapped_codes: dict, reached: set, bypassed: set):
    """Profile hook recording calls into the originals of wrapped names.

    A call counts as reached when it comes through a wrapper, and as a
    bypass when code of a module whose binding was wrapped calls the
    original directly.
    """
    def hook(frame, event, arg):
        if event != "call":
            return
        bindings = wrapped_codes.get(frame.f_code)
        if bindings is None:
            return
        caller = frame.f_back
        if caller is not None and caller.f_code is _WRAPPER_CODE:
            reached.add(caller.f_locals.get("name") or frame.f_code.co_name)
            return
        module = caller.f_globals.get("__name__") if caller is not None else None
        if module in bindings:
            bypassed.add(f"{module}.{frame.f_code.co_name}")

    return hook


_WRAPPER_CODE = Tracer().wrap(lambda: None, "probe").__code__


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, kcn_args = argv[:split], argv[split + 1:]
    result_path, spans_path = opts[:2]
    check_reach = "--check-reach" in opts

    import kcn.cli

    tracer = Tracer()
    originals = {}
    for module_name, names in WRAPPED.items():
        module = importlib.import_module(module_name)
        for name in names:
            originals.setdefault(getattr(module, name).__code__, set()).add(module_name)
    heaps = tracer.install()

    reached: set[str] = set()
    bypassed: set[str] = set()
    if check_reach:
        hook = _reach_recorder(originals, reached, bypassed)
        sys.setprofile(hook)
        threading.setprofile(hook)

    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        code = kcn.cli.main(kcn_args)
    finally:
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        if check_reach:
            sys.setprofile(None)
            threading.setprofile(None)

    result = {
        "exit": code,
        "metrics": tracer.metrics(wall, cpu, heaps),
        "span_names": sorted({s.name for s in tracer.spans}),
    }
    if check_reach:
        result["reached"] = sorted(reached)
        result["bypassed"] = sorted(bypassed)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in sorted(tracer.spans, key=lambda s: s.id):
            fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
