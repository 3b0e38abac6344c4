"""Command line interface.

``kcn run`` executes the full pipeline from a config file, ``kcn inspect``
looks one keyword up across a finished bundle, and ``kcn export`` writes a
slice graph as GraphML, DOT, or CSV. Errors print a stage-tagged
diagnostic to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bundle import read_bundle, replacing
from .config import load_config
from .errors import KcnError, NormalizationError, stage
from .graph import build_kcn, safe_name, to_dot, to_edge_csv, to_graphml
from .normalize import (
    RULE_ABBREV,
    RULE_FOLD,
    RULE_MERGE,
    RULE_PAREN,
    RULE_SINGULAR,
    fold_case_hyphens,
    similarity,
)
from .pipeline import STAGES, prepare, run_pipeline

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
    config = load_config(args.config)
    prepared = prepare(config)
    by_label = {s.label: s for s in prepared.slices}
    if args.slice_label not in by_label:
        raise KcnError(
            f"unknown slice {args.slice_label!r}; defined: {sorted(by_label)}"
        )
    with stage("build"):
        g = build_kcn(prepared.normalized, by_label[args.slice_label])
    out = args.out or Path(f"kcn_{safe_name(args.slice_label)}.{args.format}")
    text = {
        "graphml": to_graphml,
        "dot": to_dot,
        "csv": to_edge_csv,
    }[args.format](g)
    with replacing(out, config) as partial:
        partial.write_text(text, "utf-8")
    print(f"wrote {out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    bundle: Path = args.bundle
    audit, articles, tables, ego_files = read_bundle(bundle)
    chain = _audit_chain(audit, args.keyword)
    canonical = chain[-1][1] if chain else args.keyword
    ego = ego_files.get(canonical)

    vocabulary = set(articles)
    for clusters, _, named in tables.values():
        vocabulary.update(clusters, named)
    if vocabulary and canonical not in vocabulary:
        nearest = sorted(
            vocabulary, key=lambda kw: (-similarity(canonical, kw), kw)
        )[:5]
        raise KcnError(
            f"keyword {args.keyword!r} not found; "
            f"nearest canonical keywords: {', '.join(nearest)}"
        )

    print(f"keyword: {args.keyword}")
    for raw, out, rule in chain:
        print(f"  {rule}: {raw} -> {out}")
    print(f"canonical: {canonical}")
    if canonical in articles:
        print(f"articles: {articles[canonical]}")
    for label, (clusters, ranks, _) in tables.items():
        parts = []
        if canonical in clusters:
            cluster, name = clusters[canonical]
            parts.append(f"cluster {cluster} ({name})")
        if canonical in ranks:
            value, rank = ranks[canonical]
            parts.append(f"betweenness rank {rank} ({value})")
        print(f"  [{label}] " + ("; ".join(parts) if parts else "-"))
    if ego is not None and (bundle / ego).is_file():
        print(f"ego network: {ego}")
    return 0


def _audit_chain(by_rule: dict, keyword: str) -> list[tuple[str, str, str]]:
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
