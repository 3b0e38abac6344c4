"""Keyword normalization pipeline.

Raw bibliographic keywords are rewritten into canonical forms through five
ordered stages: case/hyphen folding, parenthetical abbreviation extraction,
whole-keyword abbreviation expansion, final-token singularization, and
similarity-based synonym merging. Every rewrite is recorded as a
``(raw, canonical, rule)`` triple in an audit trail, so a run can be
replayed and checked after the fact.

The merge stage scores keyword pairs with a normalized indel similarity
(100 at identity, 0 at total dissimilarity) and unions pairs at or above
the lexicon threshold into groups; each group collapses onto its most
frequent member.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .corpus import ArticleRecord, Corpus
from .errors import LexiconError, NormalizationError, read_text
from .graph import xml_can_hold

RULE_FOLD = "fold"
RULE_PAREN = "paren"
RULE_ABBREV = "abbrev"
RULE_SINGULAR = "singular"
RULE_MERGE = "merge"

DEFAULT_SYNONYM_THRESHOLD = 90.0

# ASCII hyphen-minus plus the Unicode hyphen/dash family
_HYPHENS = "-‐‑‒–—―"
_WS_RE = re.compile(r"\s+")
# trailing parenthetical over a paren-free full form, e.g. "explainable ai (xai)"
_PAREN_RE = re.compile(r"^(?P<full>[^()]*\S)\s*\((?P<short>[^()]*)\)$")

_IRREGULAR_SINGULARS = {
    "children": "child",
    "data": "data",
    "analyses": "analysis",
    "criteria": "criterion",
    "media": "media",
}


class NormalizationLexicon:
    """Mutable state threaded through a normalization run.

    ``protected_tokens`` are exempt from singularization, ``abbrev_map``
    rewrites whole keywords (short form to expansion), and ``merge_map``
    holds the variant-to-canonical rewrites produced by synonym merging.
    ``allow_pairs`` force a merge regardless of score; ``deny_pairs``
    suppress the direct pairing (groups may still join through a third
    form, since merging is transitively closed). The run fills
    ``merge_map`` and ``audit``. Each instance holds its own sets and
    dicts, copies of those it is given.
    """

    def __init__(
        self,
        protected_tokens: Iterable[str] = (),
        abbrev_map: Mapping[str, str] | None = None,
        synonym_threshold: float = DEFAULT_SYNONYM_THRESHOLD,
        *,
        allow_pairs: Iterable[frozenset[str]] = (),
        deny_pairs: Iterable[frozenset[str]] = (),
        exhaustive_pairing: bool = False,
    ) -> None:
        self.protected_tokens = set(protected_tokens)
        self.abbrev_map = dict(abbrev_map or {})
        self.synonym_threshold = synonym_threshold
        self.allow_pairs = set(allow_pairs)
        self.deny_pairs = set(deny_pairs)
        self.exhaustive_pairing = exhaustive_pairing
        self.merge_map: dict[str, str] = {}
        self.audit: list[tuple[str, str, str]] = []
        self._seen: set[tuple[str, str, str]] = set()

    def record(self, raw: str, canonical: str, rule: str) -> None:
        """Append an audit entry, once per distinct rewrite."""
        entry = (raw, canonical, rule)
        if entry not in self._seen:
            self._seen.add(entry)
            self.audit.append(entry)

    def register_abbrev(self, short: str, full: str) -> None:
        """Add ``short -> full``, flattening so values never become keys."""
        if short == full:
            return
        full = self.abbrev_map.get(full, full)
        if short == full:
            return
        if short in self.abbrev_map:
            return  # first registration wins
        self.abbrev_map[short] = full
        # re-point entries whose value is the new key
        for key, value in self.abbrev_map.items():
            if value == short:
                self.abbrev_map[key] = full

    def canonical(self, keyword: str) -> str:
        return self.merge_map.get(keyword, keyword)


def fold_case_hyphens(raw: str) -> str:
    """Lowercase, replace hyphens with spaces, and collapse whitespace."""
    folded = raw.lower()
    for ch in _HYPHENS:
        if ch in folded:
            folded = folded.replace(ch, " ")
    folded = _WS_RE.sub(" ", folded).strip()
    if not folded:
        raise NormalizationError(f"keyword is empty after folding: {raw!r}")
    if not xml_can_hold(folded):
        raise NormalizationError(f"keyword holds a character GraphML cannot hold: {raw!r}")
    return folded


def singularize(keyword: str, protected: set[str] | frozenset[str]) -> str:
    """Singularize the final whitespace token of ``keyword``.

    Ordered rules, first match wins: protected tokens stay unchanged; a
    small irregular table; ``-ies`` -> ``-y`` (token longer than 4);
    ``-ses`` -> ``-sis`` (token longer than 4); a trailing ``-s`` is
    stripped unless the token ends in ``ss``, ``us``, or ``is``. Earlier
    tokens are never touched.
    """
    head, sep, last = keyword.rpartition(" ")
    if last in protected:
        return keyword
    if last in _IRREGULAR_SINGULARS:
        new = _IRREGULAR_SINGULARS[last]
    elif last.endswith("ies") and len(last) > 4:
        new = last[:-3] + "y"
    elif last.endswith("ses") and len(last) > 4:
        new = last[:-3] + "sis"
    elif last.endswith("s") and not last.endswith(("ss", "us", "is")):
        new = last[:-1]
    else:
        return keyword
    if not new:
        return keyword  # never erase a bare "s" token
    return head + sep + new


def expand_parenthetical(keyword: str, lexicon: NormalizationLexicon) -> str:
    """Strip a trailing ``(short)`` group and register ``short -> full``.

    Only matches a paren-free full form followed by one trailing
    parenthetical, so the output is stable under re-application.
    Unbalanced parentheses leave the keyword unchanged and drop a
    warning breadcrumb into the audit trail.
    """
    if "(" not in keyword and ")" not in keyword:
        return keyword
    if not _balanced(keyword):
        lexicon.record(keyword, keyword, RULE_PAREN)
        return keyword
    match = _PAREN_RE.match(keyword)
    if match is None:
        return keyword
    full = match.group("full").strip()
    short = match.group("short").strip()
    if not short:
        return keyword
    lexicon.register_abbrev(short, full)
    return full


def apply_abbrev_map(keyword: str, lexicon: NormalizationLexicon) -> str:
    """Expand ``keyword`` when it, or its singular, is a known short form.

    The singular counts so that a plural short form ("llms") expands like
    its singular: singularization runs after this stage, and a second
    normalization would otherwise expand the "llm" the first one left.
    """
    abbrev = lexicon.abbrev_map
    if keyword in abbrev:
        return abbrev[keyword]
    return abbrev.get(singularize(keyword, lexicon.protected_tokens), keyword)


def similarity(a: str, b: str) -> float:
    """Normalized indel similarity on a 0..100 scale.

    Defined as ``100 * (1 - D / (len(a) + len(b)))`` where ``D`` is the
    insert/delete edit distance, computed from the longest common
    subsequence. Symmetric; 100 on identical strings (including two empty
    strings); 0 when the strings share no characters.
    """
    if a == b:
        return 100.0
    total = len(a) + len(b)
    dist = total - 2 * _lcs_len(a, b)
    return 100.0 * (1.0 - dist / total)


def merge_synonyms(
    keywords: Mapping[str, int] | Iterable[str], lexicon: NormalizationLexicon
) -> NormalizationLexicon:
    """Group near-identical keywords and fill ``lexicon.merge_map``.

    Pairs scoring at or above the lexicon threshold are unioned
    (transitively closed); allow-listed pairs are unioned regardless of
    score and deny-listed pairs are never paired directly. Each group's
    canonical form is its most frequent member, ties broken by shorter
    string, then lexicographic order. Grouping depends only on the keyword
    multiset, not on input order.

    Candidate pairs share a first character or differ in length by at most
    3, unless ``lexicon.exhaustive_pairing`` forces all pairs. Of those,
    only pairs whose q-gram count bound on the score can reach the
    threshold are scored: keys are visited by ascending length and looked
    up in an inverted q-gram index of the shorter keys, and short pairs
    sharing no q-gram are enumerated directly. ``q`` (1 to 3) is derived
    from the threshold; see ``_candidate_pairs``. The bound never drops a
    pair that scores at or above the threshold, so the result equals
    scoring every pair.
    """
    counts = Counter(dict(keywords)) if isinstance(keywords, Mapping) else Counter(keywords)
    if "" in counts:
        raise NormalizationError("cannot merge an empty keyword: ''")
    keys = sorted(counts)
    index = {k: i for i, k in enumerate(keys)}
    parent = list(range(len(keys)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for pair in sorted(lexicon.allow_pairs, key=sorted):
        members = sorted(pair)
        if len(members) == 2 and all(m in index for m in members):
            union(index[members[0]], index[members[1]])

    threshold = lexicon.synonym_threshold
    for i, j in _candidate_pairs(keys, threshold):
        ki, kj = keys[i], keys[j]
        if not lexicon.exhaustive_pairing:
            if ki[0] != kj[0] and abs(len(ki) - len(kj)) > 3:
                continue
        if frozenset((ki, kj)) in lexicon.deny_pairs:
            continue
        if similarity(ki, kj) >= threshold:
            union(i, j)

    groups: dict[int, list[str]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(find(i), []).append(key)
    for members in groups.values():
        if len(members) < 2:
            continue
        canonical = min(members, key=lambda k: (-counts[k], len(k), k))
        for member in members:
            if member != canonical:
                lexicon.merge_map[member] = canonical
                lexicon.record(member, canonical, RULE_MERGE)
    return lexicon


def _candidate_pairs(keys: list[str], threshold: float) -> Iterator[tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, that may score at or above ``threshold``.

    An exact q-gram count filter (Ukkonen 1992). If ``a`` and ``b`` have an
    LCS of length ``L`` and indel distance ``D = |a| + |b| - 2L``, every
    indel breaks at most ``q - 1`` of the ``L - q + 1`` q-grams of the LCS,
    so their q-gram multisets overlap in ``C >= L - q + 1 - (q - 1) D``
    grams. Solved for ``L``, this gives
    ``L <= (C + (q - 1)(1 + |a| + |b|)) // (2q - 1)``, and a pair is
    dropped only when that bound (capped by the shorter length) scores
    below the threshold.

    Keys are visited in ascending length. Each is looked up in an inverted
    index of the keys visited before it, whose postings carry q-gram
    multiplicities, so one lookup yields ``C`` for every earlier key that
    shares a gram. Pairs sharing none can still pass when ``|a| + |b|`` is
    small; they are enumerated from the short end of the length order.

    ``q`` is the largest value up to 3 with ``200 (q - 1) / (2q - 1)``
    below the threshold, so the zero-overlap bound falls below the
    threshold as keys grow. At ``q = 1`` the bound is the character count
    bound.
    """
    q = 1
    while q < 3 and 200 * q / (2 * q + 1) < threshold:
        q += 1
    spread = 2 * q - 1
    slack = q - 1
    # a pair sharing no gram has bound (q - 1)(1 + total) // (2q - 1), which
    # scores below the threshold past this total (plus one for rounding)
    excess = threshold * spread - 200 * slack
    max_zero_total = 200 * slack / excess + 1 if excess > 0 else float("inf")

    lengths = [len(k) for k in keys]
    order = sorted(range(len(keys)), key=lengths.__getitem__)
    postings: dict[str, deque[tuple[int, int, int]]] = {}
    for pos, j in enumerate(order):
        kj, lj = keys[j], lengths[j]
        grams = Counter(kj[x : x + q] for x in range(lj - q + 1))
        overlap: dict[int, int] = {}
        for gram, mj in grams.items():
            posting = postings.get(gram, ())
            # a key too short to reach the threshold even as a subsequence
            # of kj stays too short for every longer key: drop it for good
            while posting and 200.0 * posting[0][1] / (posting[0][1] + lj) < threshold:
                posting.popleft()
            for i, _, mi in posting:
                overlap[i] = overlap.get(i, 0) + (mi if mi < mj else mj)
        for r in range(pos):
            i = order[r]
            if lengths[i] + lj > max_zero_total:
                break
            overlap.setdefault(i, 0)
        for i, common in overlap.items():
            li = lengths[i]  # li <= lj: keys are visited by length
            total = li + lj
            bound = (common + slack * (1 + total)) // spread
            if 200.0 * (bound if bound < li else li) / total >= threshold:
                yield (i, j) if i < j else (j, i)
        for gram, mj in grams.items():
            postings.setdefault(gram, deque()).append((j, lj, mj))


def normalize_corpus(
    corpus: Corpus, lexicon: NormalizationLexicon
) -> tuple[Corpus, NormalizationLexicon]:
    """Run the full pipeline over every keyword of every record.

    Stages apply per keyword in order fold, parenthetical, abbreviation,
    singularization; synonym merging then runs once over the resulting
    keyword multiset (one count per record containing the form). All
    parenthetical registrations complete before any abbreviation lookup,
    so the result does not depend on record order. Within-record
    duplicates produced by any stage are collapsed, keeping first
    occurrence order. The pipeline is idempotent: normalizing an already
    normalized corpus changes nothing.
    """
    first_seen: dict[str, str] = {}
    for record in corpus.records:
        for raw in record.keywords:
            first_seen.setdefault(raw, record.id)

    folded: dict[str, str] = {}
    for raw, rec_id in first_seen.items():
        try:
            folded[raw] = fold_case_hyphens(raw)
        except NormalizationError as exc:
            raise NormalizationError(f"record {rec_id!r}: {exc}") from exc
        if folded[raw] != raw:
            lexicon.record(raw, folded[raw], RULE_FOLD)

    # each stage rewrites every distinct form before the next one starts,
    # so all abbreviation registrations complete before any lookup
    premerge = folded
    for rule, rewrite in (
        (RULE_PAREN, lambda form: expand_parenthetical(form, lexicon)),
        (RULE_ABBREV, lambda form: apply_abbrev_map(form, lexicon)),
        (RULE_SINGULAR, lambda form: singularize(form, lexicon.protected_tokens)),
    ):
        step: dict[str, str] = {}
        for form in dict.fromkeys(premerge.values()):
            step[form] = rewrite(form)
            if step[form] != form:
                lexicon.record(form, step[form], rule)
        premerge = {raw: step[form] for raw, form in premerge.items()}

    counts: Counter[str] = Counter()
    for record in corpus.records:
        counts.update({premerge[raw] for raw in record.keywords})
    merge_synonyms(counts, lexicon)

    new_records = []
    for record in corpus.records:
        out: list[str] = []
        seen: set[str] = set()
        for raw in record.keywords:
            canonical = lexicon.canonical(premerge[raw])
            if canonical not in seen:
                seen.add(canonical)
                out.append(canonical)
        new_records.append(
            ArticleRecord(record.id, record.venue, record.year, tuple(out))
        )
    return Corpus(records=tuple(new_records)), lexicon


def load_lexicon(
    protected_path: str | Path | None = None,
    abbrev_path: str | Path | None = None,
    merges_path: str | Path | None = None,
    synonym_threshold: float = DEFAULT_SYNONYM_THRESHOLD,
    exhaustive_pairing: bool = False,
) -> NormalizationLexicon:
    """Build a lexicon from up to three TSV files.

    ``protected_path`` holds one token per line; ``abbrev_path`` holds
    ``short<TAB>full`` rows; ``merges_path`` holds
    ``variant<TAB>canonical<TAB>allow|deny`` rows. Blank lines and ``#``
    comments are skipped everywhere. Entries are folded (and, for merge
    rows, singularized) on load so they compare against pipeline forms.
    """
    if not 0.0 <= float(synonym_threshold) <= 100.0:
        raise LexiconError(
            f"synonym threshold must be within 0..100, got {synonym_threshold}"
        )
    lexicon = NormalizationLexicon(
        synonym_threshold=float(synonym_threshold),
        exhaustive_pairing=exhaustive_pairing,
    )
    if protected_path is not None:
        for lineno, fields in _tsv_rows(protected_path):
            with _row(protected_path, lineno):
                if len(fields) != 1:
                    raise LexiconError("expected one token per line")
                lexicon.protected_tokens.add(fold_case_hyphens(fields[0]))
    if abbrev_path is not None:
        for lineno, fields in _tsv_rows(abbrev_path):
            with _row(abbrev_path, lineno):
                if len(fields) != 2:
                    raise LexiconError("expected short<TAB>full")
                lexicon.register_abbrev(
                    fold_case_hyphens(fields[0]), fold_case_hyphens(fields[1])
                )
    if merges_path is not None:
        for lineno, fields in _tsv_rows(merges_path):
            with _row(merges_path, lineno):
                if len(fields) != 3 or fields[2] not in ("allow", "deny"):
                    raise LexiconError("expected variant<TAB>canonical<TAB>allow|deny")
                pair = frozenset(_merge_stage_form(text, lexicon) for text in fields[:2])
                if len(pair) != 2:
                    raise LexiconError("pair normalizes to a single form")
                if fields[2] == "allow":
                    lexicon.allow_pairs.add(pair)
                else:
                    lexicon.deny_pairs.add(pair)
    conflict = lexicon.allow_pairs & lexicon.deny_pairs
    if conflict:
        listed = sorted(tuple(sorted(p)) for p in conflict)
        raise LexiconError(f"pairs listed as both allow and deny: {listed}")
    return lexicon


def default_lexicon_dir() -> Path:
    """Directory holding the lexicon files shipped with the package."""
    return Path(__file__).resolve().parent / "data"


def _merge_stage_form(text: str, lexicon: NormalizationLexicon) -> str:
    # merge runs after folding, abbreviation expansion, and singularization
    form = apply_abbrev_map(fold_case_hyphens(text), lexicon)
    return singularize(form, lexicon.protected_tokens)


@contextmanager
def _row(path: str | Path, lineno: int):
    """Prefix ``<path>:<lineno>: `` to the error of a lexicon row, the
    entry's folding included."""
    try:
        yield
    except (LexiconError, NormalizationError) as exc:
        raise LexiconError(f"{path}:{lineno}: {exc}") from exc


def _tsv_rows(path: str | Path) -> list[tuple[int, list[str]]]:
    text = read_text(path, LexiconError, "lexicon file ")
    rows: list[tuple[int, list[str]]] = []
    # only "\n" ends a row, as in errors.read_lines, whose blank-line skip
    # would come before this check; a CRLF's "\r" is stripped with the
    # last field, and any other "\r" would hide a row end
    for lineno, line in enumerate(text.split("\n"), 1):
        if "\r" in line.removesuffix("\r"):
            raise LexiconError(f"{path}:{lineno}: carriage return inside a row")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rows.append((lineno, [f.strip() for f in line.split("\t")]))
    return rows


def _balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _lcs_len(a: str, b: str) -> int:
    # bit-parallel LCS (Allison and Dix 1986; Hyyrö 2004) over the shorter
    # string: after each char of b, bit x of ``row`` is clear where the LCS
    # of a[:x + 1] with b so far exceeds that of a[:x], so the clear bits
    # count the LCS. Python ints span any length of a
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return 0
    masks: dict[str, int] = {}
    bit = 1
    for ch in a:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    full = bit - 1
    row = full
    for ch in b:
        match = row & masks.get(ch, 0)
        row = ((row + match) | (row - match)) & full
    return len(a) - row.bit_count()
