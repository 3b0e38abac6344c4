"""The bundle format: its file names, writers and readers.

Bundle layout::

    manifest.json               run provenance; written last, so its
                                presence marks a complete bundle
    filter_report.json          excluded records and why
    audit.jsonl                 every keyword rewrite
    summary.tsv / summary.json  one structural-metrics row per slice
    frequency.csv               keywords by article count
    emerging.json               keywords newly entering top betweenness
    ego_<keyword>.graphml       neighborhood of each emerging keyword, named
                                by ``ego_file_names``
    slices/<label>/             per-slice edge list, distribution files,
                                cluster files, and betweenness table, named
                                by ``slice_file``

Every output byte is a pure function of the input files and the config;
reruns produce identical bundles. ``replacing`` moves a bundle or export into place.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import __version__
from .communities import ClusterProfile, Partition
from .config import FLAG_KEYS, THRESHOLD_KEYS, RunConfig
from .corpus import FilterReport
from .errors import ConfigError, GraphError, KcnError, parse_json, read_csv, read_lines, read_text
from .graph import NAME_BYTES, SliceSpec, safe_name
from .normalize import default_lexicon_dir
from .structure import DegreeBin, NodeProfile

# per-slice files whose name repeats the slice label
_LABELED_KINDS = frozenset({"clusters", "membership", "dendrogram", "betweenness"})
# the header of each table read_bundle reads by keyword; edges.csv's is
# graph.to_edge_csv's, source, target and weight
_FREQUENCY = ["keyword", "count"]
_MEMBERSHIP = ["keyword", "cluster", "cluster_name"]
_BETWEENNESS = ["keyword", "value", "rank"]


@contextmanager
def replacing(target: Path, config: RunConfig, directory: bool = False) -> Iterator[Path]:
    """Yield a hidden sibling of ``target``, ``.<name>.<random hex>``, to
    write in; once the block ends, rename it over ``target``, or over the
    target of a link there. A ``directory`` sibling is made with its parents,
    and an old ``target`` is renamed aside to ``<sibling>.old`` until the new
    one is in place; a file replaces ``target`` in one rename. A block that
    raises leaves ``target`` as it was and the sibling removed. A ``target``
    that is, or is above, an input file of ``config``, its lexicon files and
    the config file included, is refused before anything is written, as is
    a file ``target`` that exists but is not a regular file: a directory, a
    named pipe, a socket or a device. Each refusal and ``OSError``, the
    block's too, end as one ``ConfigError`` that reads ``cannot write
    <target>: <reason>``."""
    def unwritable(exc: Exception) -> ConfigError:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        return ConfigError(f"cannot write {target}: {reason}")

    try:
        final = target.resolve()
    except (OSError, RuntimeError) as exc:  # a link loop is a RuntimeError before 3.13
        raise unwritable(exc) from exc
    for path in [*(spec.path for spec in config.inputs), *config.lexicon.values(), config.path]:
        if path is not None and (
            final == (real := Path(os.path.realpath(path))) or final in real.parents
        ):
            raise ConfigError(f"cannot write {target}: it would replace the input {path}")
    if not directory and os.path.exists(final) and not os.path.isfile(final):
        raise ConfigError(f"cannot write {target}: not a regular file")
    partial = final.with_name(f".{final.name}.{os.urandom(6).hex()}")
    try:
        if directory:
            partial.parent.mkdir(parents=True, exist_ok=True)
            partial.mkdir()
        yield partial
        aside = None
        if directory and final.exists():
            aside = partial.with_name(partial.name + ".old")
            os.replace(final, aside)
        try:
            os.replace(partial, final)
        except OSError:
            if aside is not None:
                os.replace(aside, final)
            raise
        if aside is not None:
            shutil.rmtree(aside)
    except OSError as exc:
        raise unwritable(exc) from exc
    finally:
        if directory:
            shutil.rmtree(partial, ignore_errors=True)
        else:
            partial.unlink(missing_ok=True)


def slice_file(bundle: Path, label: str, kind: str, ext: str) -> Path:
    """Path of one of a slice's files in ``bundle``.

    ``slices/<safe>/<kind>_<safe>.<ext>`` for the cluster and betweenness
    files, ``slices/<safe>/<kind>.<ext>`` for the rest, where ``<safe>``
    is the label made filename-safe.
    """
    safe = safe_name(label)
    name = f"{kind}_{safe}" if kind in _LABELED_KINDS else kind
    return bundle / "slices" / safe / f"{name}.{ext}"


def ego_file_names(keywords: list[str]) -> list[str]:
    """File name of each keyword's ego network, given in ``emerging.json`` order.

    The name is ``ego_<keyword>`` made filename-safe, plus ``.graphml``.
    When an earlier keyword holds it already, a ``_<n>`` suffix is added,
    with ``n`` the first free number from the count of earlier keywords.
    A name is cut to ``NAME_BYTES`` bytes, suffix and extension
    included, by dropping the end of the keyword part.
    """
    room = NAME_BYTES - len(".graphml")
    used: set[str] = set()
    names = []
    for keyword in keywords:
        base = safe_name(f"ego_{keyword}")
        name = _clip(base, room)
        suffix = len(used)
        while name in used:
            tail = f"_{suffix}"
            name = _clip(base, room - len(tail)) + tail
            suffix += 1
        used.add(name)
        names.append(f"{name}.graphml")
    return names


def _clip(text: str, size: int) -> str:
    """The longest prefix of ``text`` that is at most ``size`` UTF-8 bytes."""
    return text.encode()[:size].decode(errors="ignore")


def fmt(value: float) -> str:
    return repr(float(value))


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", "utf-8")


def write_tsv(path: Path, header: list[str], rows) -> None:
    lines = ["\t".join(header)]
    lines.extend("\t".join(str(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", "utf-8")


def write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), "utf-8")


def write_edges(out: Path, label: str, text: str) -> None:
    """``edges.csv`` of slice ``label``: ``text``, the edge list
    ``graph.to_edge_csv`` gives. It is a slice's first file, so this makes
    the slice's directory."""
    path = slice_file(out, label, "edges", "csv")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, "utf-8")


def write_macro(
    out: Path, label: str, points: list[tuple[float, float]], profiles: list[NodeProfile],
    bins: list[DegreeBin],
) -> None:
    """``ccdf.tsv``, ``clustering_vs_degree.tsv`` and ``knn_ratio_vs_degree.tsv``
    of slice ``label``: the ``structure.ccdf`` points, then each node's
    profile beside its degree bin's mean, from ``structure.profile_nodes``,
    sorted by degree."""
    write_tsv(slice_file(out, label, "ccdf", "tsv"), ["value", "ccdf"],
              [(fmt(x), fmt(p)) for x, p in points])
    mean_c = {b.degree: b.mean_clustering_w for b in bins}
    mean_r = {b.degree: b.mean_knn_ratio for b in bins}
    write_tsv(
        slice_file(out, label, "clustering_vs_degree", "tsv"),
        ["degree", "clustering_w", "degree_mean"],
        sorted((p.degree, fmt(p.clustering_w), fmt(mean_c[p.degree])) for p in profiles),
    )
    write_tsv(
        slice_file(out, label, "knn_ratio_vs_degree", "tsv"),
        ["degree", "knn_ratio", "degree_mean"],
        sorted((p.degree, fmt(p.knn_ratio), fmt(mean_r[p.degree])) for p in profiles),
    )


def write_meso(
    out: Path, label: str, partition: Partition, profiles: list[ClusterProfile],
    unclustered: set[str],
) -> None:
    """``clusters_<label>.json``, ``membership_<label>.csv`` and
    ``dendrogram_<label>.csv``: the CNM ``partition``, its clusters'
    ``profiles`` and the keywords outside the largest component."""
    names = {p.cluster_id: p.name for p in profiles}
    write_json(slice_file(out, label, "clusters", "json"), {
        "q": partition.modularity,
        "clusters": [
            {
                "id": p.cluster_id,
                "name": p.name,
                "size": p.size,
                "top": [{"keyword": kw, "in_group_degree": w} for kw, w in p.top],
            }
            for p in profiles
        ],
        "unclustered": sorted(unclustered),
    })
    write_csv(
        slice_file(out, label, "membership", "csv"),
        _MEMBERSHIP,
        sorted((kw, cid, names[cid]) for kw, cid in partition.assignment.items()),
    )
    write_csv(
        slice_file(out, label, "dendrogram", "csv"),
        ["step", "cluster_a", "cluster_b", "delta_q", "q_after"],
        [
            (i + 1, s.a, s.b, fmt(s.delta_q), fmt(s.q_after))
            for i, s in enumerate(partition.merge_trace)
        ],
    )


def write_betweenness(out: Path, label: str, rows: list[tuple[str, float]]) -> None:
    """``betweenness_<label>.csv``: the ``(keyword, value)`` ``rows`` of a
    ``trends.top_k_table``, ranked from 1 in their order."""
    write_csv(
        slice_file(out, label, "betweenness", "csv"),
        _BETWEENNESS,
        [(kw, fmt(value), rank) for rank, (kw, value) in enumerate(rows, 1)],
    )


def write_summary(out: Path, results: list[dict]) -> None:
    """``summary.tsv`` and ``summary.json``: one row per slice result."""
    rows = []
    json_rows = []
    for r in results:
        s, fit = r["summary"], r["fit"]
        rows.append((r["label"], s.n, s.m, f"{s.d:.3f}", f"{s.c:.3f}", f"{s.z:.3f}",
                     f"{s.s:.3f}", s.lc, "" if s.r is None else f"{s.r:.3f}"))
        json_rows.append({
            "slice": r["label"], **s._asdict(), "c_unweighted": r["c_unweighted"],
            "power_law": None if fit is None else fit._asdict(),
            "power_law_error": r["fit_error"],
        })
    write_tsv(out / "summary.tsv", ["years", "n", "m", "d", "c", "z", "s", "lc", "r"], rows)
    write_json(out / "summary.json", json_rows)


def write_trends(out: Path, frequency: list[tuple[str, int]], emerging: list) -> None:
    """``frequency.csv`` and ``emerging.json``."""
    write_csv(out / "frequency.csv", _FREQUENCY, frequency)
    write_json(out / "emerging.json", [e._asdict() for e in emerging])


def write_audit(out: Path, audit: list[tuple[str, str, str]]) -> None:
    """``audit.jsonl``: one ``(raw, canonical, rule)`` rewrite per line."""
    lines = [
        json.dumps({"raw": raw, "canonical": canonical, "rule": rule})
        for raw, canonical, rule in audit
    ]
    (out / "audit.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")


def write_report(
    out: Path, config: RunConfig, labels: list[str], report: FilterReport, distinct: int,
    audit: list[tuple[str, str, str]],
) -> None:
    """``filter_report.json``, ``audit.jsonl`` and, last, ``manifest.json``,
    so that a manifest marks a complete bundle."""
    write_json(out / "filter_report.json", report.to_json())
    write_audit(out, audit)
    # echo the effective settings, not just the keys the user wrote
    echo = {
        "seed": config.seed,
        "slices": config.raw.get("slices"),
        "thresholds": {key: getattr(config, key) for key in THRESHOLD_KEYS},
        "flags": {key: getattr(config, key) for key in FLAG_KEYS},
    }
    inputs = [
        {"path": entry if isinstance(entry, str) else entry["path"], "sha256": _sha256(spec.path)}
        for entry, spec in zip(config.raw["inputs"], config.inputs)
    ]
    lexicon = {}
    for key, path in config.lexicon.items():
        if path is None:
            lexicon[key] = None
        else:
            source = (
                f"packaged:{path.name}"
                if path.parent == default_lexicon_dir()
                else config.raw["lexicon"][key]
            )
            lexicon[key] = {"source": source, "sha256": _sha256(path)}
    write_json(out / "manifest.json", {
        "bundle_format": 1,
        "tool": {"name": "kcn", "version": __version__},
        "config": echo,
        "inputs": inputs,
        "lexicon": lexicon,
        "slices": labels,
        "records": {
            "loaded": report.retained + len(report.excluded),
            "retained": report.retained,
            "excluded": len(report.excluded),
        },
        "keywords": {"distinct_canonical": distinct},
    })


def _sha256(path: Path) -> str:
    import hashlib  # only here: it loads OpenSSL, which only the manifest needs

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_bundle(bundle: Path) -> tuple[dict, dict, dict, dict]:
    """What ``kcn inspect`` reads: ``audit.jsonl`` as rule to raw to canonical;
    ``frequency.csv`` as keyword to article count; by slice label, its
    membership table as keyword to (cluster, cluster name), its betweenness
    table as keyword to (value, rank) and the set of keywords its edge list
    names; and each ``emerging.json`` keyword's ego file name, where the
    bundle holds that file. Every value is the text of its cell; a keyword's
    first row counts. A missing file but the manifest reads as empty; a
    damaged one, or one that cannot be looked at, an error."""
    path = bundle / "manifest.json"
    if not _is_file(path):
        raise KcnError(f"{bundle} is not a finished bundle (no manifest.json)")
    manifest = parse_json(read_text(path, KcnError), path, KcnError)
    if not isinstance(manifest, dict):
        raise KcnError(f"{path}: manifest must be a JSON object")
    slices = manifest.get("slices", [])
    if not isinstance(slices, list) or not all(isinstance(s, str) for s in slices):
        raise KcnError(f"{path}: 'slices' must be a list of strings")
    for label in slices:
        try:
            SliceSpec(label)
        except GraphError as exc:
            raise KcnError(f"{path}: {exc}") from exc
    path = bundle / "audit.jsonl"
    audit: dict[str, dict[str, str]] = {}
    for where, line in read_lines(path, KcnError) if _is_file(path) else ():
        entry = _entry(parse_json(line, where, KcnError), where, ("rule", "raw", "canonical"))
        audit.setdefault(entry["rule"], {})[entry["raw"]] = entry["canonical"]
    # each table is read reversed, so that a keyword's first row is the one kept
    rows = _table(bundle / "frequency.csv", len(_FREQUENCY))
    articles = {kw: count for kw, count in reversed(rows)}
    tables = {}
    for label in slices:
        rows = _table(slice_file(bundle, label, "membership", "csv"), len(_MEMBERSHIP))
        clusters = {kw: (cid, name) for kw, cid, name in reversed(rows)}
        rows = _table(slice_file(bundle, label, "betweenness", "csv"), len(_BETWEENNESS))
        ranks = {kw: (value, rank) for kw, value, rank in reversed(rows)}
        rows = _table(slice_file(bundle, label, "edges", "csv"), 3)
        named = {kw for source, target, _ in rows for kw in (source, target)}
        tables[label] = clusters, ranks, named
    path = bundle / "emerging.json"
    keywords = []
    if _is_file(path):
        entries = parse_json(read_text(path, KcnError), path, KcnError)
        if not isinstance(entries, list):
            raise KcnError(f"{path}: expected a JSON list of entries")
        keywords = [_entry(e, f"{path}: entry {i}", ("keyword",))["keyword"]
                    for i, e in enumerate(entries, 1)]
    egos = {kw: name for kw, name in zip(keywords, ego_file_names(keywords))
            if _is_file(bundle / name)}
    return audit, articles, tables, egos


def _entry(value, where: str, fields: tuple[str, ...]) -> dict:
    """``value`` if it is a JSON object whose ``fields`` are all strings;
    otherwise an error naming ``where``."""
    if not isinstance(value, dict):
        raise KcnError(f"{where}: expected a JSON object")
    for name in fields:
        if not isinstance(value.get(name), str):
            raise KcnError(f"{where}: {name!r} must be a string")
    return value


def _table(path: Path, width: int) -> list[list[str]]:
    """The non-empty rows after the header of the CSV file at ``path``, each
    ``width`` cells wide; no rows when there is no such file."""
    return [row for _, row in read_csv(path, KcnError, width)[1]] if _is_file(path) else []


def _is_file(path: Path) -> bool:
    """Whether ``path`` is a regular file; False when it is missing, and an
    error naming it, as ``read_text`` words one, when it cannot be looked at."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except (FileNotFoundError, NotADirectoryError):
        return False
    except OSError as exc:
        raise KcnError(f"cannot read {path}: {exc}") from exc
