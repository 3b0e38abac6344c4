"""Command line interface.

``kcn run`` executes the full pipeline from a config file, ``kcn inspect``
looks one keyword up across a finished bundle, and ``kcn export`` writes a
slice graph as GraphML, DOT, or CSV. Errors print a stage-tagged
diagnostic to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .config import load_config
from .errors import KcnError, NormalizationError, read_text
from .graph import build_kcn, to_dot, to_edge_csv, to_graphml
from .normalize import (
    RULE_ABBREV,
    RULE_FOLD,
    RULE_MERGE,
    RULE_PAREN,
    RULE_SINGULAR,
    fold_case_hyphens,
    similarity,
)
from .pipeline import STAGES, _safe_name, ego_file_names, prepare, run_pipeline, slice_file

# unused since export goes through prepare(); kept bound because perfbench/tracer.py wraps them
from .corpus import concat_corpora, filter_eligible, load_corpus
from .normalize import load_lexicon, normalize_corpus


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except KcnError as exc:
        print(f"kcn: error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcn",
        description="Keyword co-occurrence network analysis for "
        "bibliographic corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline from a config file")
    run.add_argument("--config", required=True, type=Path)
    run.add_argument(
        "--out", type=_out_path, default=None,
        help="output directory (overrides output_dir from the config)",
    )
    run.add_argument(
        "--only", action="append", choices=STAGES, default=None,
        help="emit only this analysis stage (repeatable)",
    )
    run.add_argument(
        "--force", action="store_true",
        help="replace a non-empty output directory",
    )
    run.set_defaults(handler=_cmd_run)

    inspect = sub.add_parser(
        "inspect", help="look a keyword up across a finished bundle"
    )
    inspect.add_argument("keyword")
    inspect.add_argument("--bundle", required=True, type=Path)
    inspect.set_defaults(handler=_cmd_inspect)

    export = sub.add_parser("export", help="export one slice graph")
    export.add_argument("--config", required=True, type=Path)
    export.add_argument("--slice", default="all", dest="slice_label")
    export.add_argument(
        "--format", required=True, choices=("graphml", "dot", "csv")
    )
    export.add_argument("--out", type=_out_path, default=None)
    export.set_defaults(handler=_cmd_export)
    return parser


def _out_path(text: str) -> Path:
    """The path of ``--out``; an empty one would name the working directory."""
    if not text:
        raise KcnError("--out must not be empty")
    return Path(text)


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    only = None if args.only is None else set(args.only)
    result = run_pipeline(config, out_dir=args.out, only=only, force=args.force)
    print(f"bundle written to {result['output_dir']}")
    print(f"slices: {', '.join(result['slices'])}")
    if result["emerging"]:
        print(f"emerging keywords: {', '.join(result['emerging'])}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    prepared = prepare(load_config(args.config))
    by_label = {s.label: s for s in prepared.slices}
    if args.slice_label not in by_label:
        raise KcnError(
            f"unknown slice {args.slice_label!r}; defined: {sorted(by_label)}"
        )
    g = build_kcn(prepared.normalized, by_label[args.slice_label])
    out = args.out or Path(f"kcn_{_safe_name(args.slice_label)}.{args.format}")
    text = {
        "graphml": to_graphml,
        "dot": to_dot,
        "csv": to_edge_csv,
    }[args.format](g)
    try:
        out.write_text(text, "utf-8")
    except OSError as exc:
        raise KcnError(f"cannot write {out}: {exc.strerror or exc}") from exc
    print(f"wrote {out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    bundle: Path = args.bundle
    manifest_path = bundle / "manifest.json"
    if not manifest_path.is_file():
        raise KcnError(f"{bundle} is not a finished bundle (no manifest.json)")
    manifest = _load_json(read_text(manifest_path, KcnError), manifest_path)
    if not isinstance(manifest, dict):
        raise KcnError(f"{manifest_path}: manifest must be a JSON object")
    slices = manifest.get("slices", [])
    if not isinstance(slices, list) or not all(isinstance(s, str) for s in slices):
        raise KcnError(f"{manifest_path}: 'slices' must be a list of strings")
    for label in slices:
        # slices/. and slices/.. would be the slices directory and the bundle root
        if _safe_name(label) in (".", ".."):
            raise KcnError(
                f"{manifest_path}: slice label {label!r} cannot name a slice directory"
            )

    chain = _audit_chain(bundle, args.keyword)
    canonical = chain[-1][1] if chain else args.keyword
    frequency = _table(bundle / "frequency.csv", 2)
    tables = {
        label: [
            _table(slice_file(bundle, label, kind, "csv"), 3)
            for kind in ("membership", "betweenness", "edges")
        ]
        for label in slices
    }
    emerging = bundle / "emerging.json"
    ego = None
    if emerging.is_file():
        entries = _load_json(read_text(emerging, KcnError), emerging)
        if not isinstance(entries, list):
            raise KcnError(f"{emerging}: expected a JSON list of entries")
        keywords = [
            _entry(e, f"{emerging}: entry {i}", ("keyword",))["keyword"]
            for i, e in enumerate(entries, 1)
        ]
        ego = dict(zip(keywords, ego_file_names(keywords))).get(canonical)

    vocabulary = {row[0] for row in frequency}
    for membership, _, edges in tables.values():
        vocabulary.update(row[0] for row in membership)
        vocabulary.update(kw for row in edges for kw in row[:2])
    if vocabulary and canonical not in vocabulary:
        nearest = sorted(
            vocabulary, key=lambda kw: (-similarity(canonical, kw), kw)
        )[:5]
        raise KcnError(
            f"keyword {args.keyword!r} not found; "
            f"nearest canonical keywords: {', '.join(nearest)}"
        )

    def row_of(table: list[list[str]]) -> list[str] | None:
        return next((row for row in table if row[0] == canonical), None)

    print(f"keyword: {args.keyword}")
    for raw, out, rule in chain:
        print(f"  {rule}: {raw} -> {out}")
    print(f"canonical: {canonical}")
    row = row_of(frequency)
    if row is not None:
        print(f"articles: {row[1]}")
    for label, (membership, betweenness, _) in tables.items():
        parts = []
        row = row_of(membership)
        if row is not None:
            parts.append(f"cluster {row[1]} ({row[2]})")
        row = row_of(betweenness)
        if row is not None:
            parts.append(f"betweenness rank {row[2]} ({row[1]})")
        print(f"  [{label}] " + ("; ".join(parts) if parts else "-"))
    if ego is not None and (bundle / ego).is_file():
        print(f"ego network: {ego}")
    return 0


def _audit_chain(bundle: Path, keyword: str) -> list[tuple[str, str, str]]:
    path = bundle / "audit.jsonl"
    if not path.is_file():
        return []
    by_rule: dict[str, dict[str, str]] = {}
    for lineno, line in enumerate(read_text(path, KcnError).split("\n"), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        entry = _entry(_load_json(line, where), where, ("rule", "raw", "canonical"))
        by_rule.setdefault(entry["rule"], {})[entry["raw"]] = entry["canonical"]
    chain = []
    current = keyword
    # fold live so case and hyphen variants resolve even when the exact
    # raw string never occurred in the corpus
    try:
        folded = fold_case_hyphens(current)
    except NormalizationError:
        folded = current
    if folded != current:
        chain.append((current, folded, RULE_FOLD))
        current = folded
    for rule in (RULE_PAREN, RULE_ABBREV, RULE_SINGULAR, RULE_MERGE):
        nxt = by_rule.get(rule, {}).get(current)
        if nxt is not None and nxt != current:
            chain.append((current, nxt, rule))
            current = nxt
    return chain


def _load_json(text: str, where: Path | str):
    """``json.loads`` of one bundle file's text; an error names ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise KcnError(f"{where}: invalid JSON: {exc}") from exc


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
    if not path.is_file():
        return []
    reader = csv.reader(io.StringIO(read_text(path, KcnError), newline=""))
    next(reader, None)  # header
    rows = []
    for row in reader:
        if row and len(row) != width:
            raise KcnError(
                f"{path}:{reader.line_num}: expected {width} fields, got {len(row)}"
            )
        if row:
            rows.append(row)
    return rows
