from __future__ import annotations

import json
import random
import re
import string

import pytest

from kcn.bundle import read_bundle, write_audit
from kcn.corpus import ArticleRecord, Corpus
from kcn.errors import LexiconError, NormalizationError
from kcn.normalize import (
    DEFAULT_SYNONYM_THRESHOLD,
    RULE_ABBREV,
    RULE_FOLD,
    RULE_MERGE,
    RULE_PAREN,
    RULE_SINGULAR,
    NormalizationLexicon,
    apply_abbrev_map,
    expand_parenthetical,
    fold_case_hyphens,
    load_lexicon,
    merge_synonyms,
    normalize_corpus,
    similarity,
    singularize,
)

import oracles

# --- folding -----------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, folded",
    [
        ("E-Learning  Systems", "e learning systems"),
        ("  Machine   Learning ", "machine learning"),
        ("self‐regulated–learning", "self regulated learning"),
        ("human—computer―interaction", "human computer interaction"),
        ("A‑B‒C", "a b c"),
        ("already clean", "already clean"),
        ("tab\tand\nnewline", "tab and newline"),
    ],
)
def test_fold_case_hyphens(raw, folded):
    assert fold_case_hyphens(raw) == folded


@pytest.mark.parametrize("raw", ["", "   ", "---", " – — "])
def test_fold_rejects_empty_results(raw):
    with pytest.raises(NormalizationError):
        fold_case_hyphens(raw)


@pytest.mark.parametrize(
    "raw", ["a\x00b", "a\x08", "\x0eb", "x\x1by", "x\ud800y", "\udfff", "a\ufffe", "a\uffff"]
)
def test_fold_rejects_characters_graphml_cannot_hold(raw):
    with pytest.raises(NormalizationError, match="GraphML cannot hold"):
        fold_case_hyphens(raw)
    # the other controls XML lacks are whitespace, and fold into spaces
    assert fold_case_hyphens("a\x0b\x0c\x1c\x1fb") == "a b"


def test_fold_is_idempotent():
    rng = random.Random(7)
    alphabet = string.ascii_letters + " -–—\t"
    for _ in range(200):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        try:
            once = fold_case_hyphens(raw)
        except NormalizationError:
            continue
        assert fold_case_hyphens(once) == once


# --- singularization -----------------------------------------------------------


@pytest.mark.parametrize(
    "keyword, expected",
    [
        ("neural networks", "neural network"),
        ("intelligent tutoring systems", "intelligent tutoring system"),
        ("technologies", "technology"),
        ("case studies", "case study"),
        ("crises", "crisis"),
        ("analyses", "analysis"),  # irregular, ahead of the -ses rule
        ("children", "child"),
        ("learning data", "learning data"),
        ("criteria", "criterion"),
        ("social media", "social media"),
        ("glass", "glass"),  # -ss guard
        ("campus", "campus"),  # -us guard
        ("analysis", "analysis"),  # -is guard
        ("s", "s"),  # a bare token is never erased
        ("ties", "tie"),  # too short for the -ies rule; plain -s strip applies
        ("moocs", "mooc"),
        # the -ses rule misfires on ordinary plurals of -se nouns; the
        # behavior is frozen here so a change is a deliberate decision
        ("courses", "coursis"),
    ],
)
def test_singularize(keyword, expected):
    assert singularize(keyword, frozenset()) == expected


def test_singularize_protected_tokens():
    protected = frozenset({"analytics", "ses", "series"})
    assert singularize("learning analytics", protected) == "learning analytics"
    assert singularize("ses", protected) == "ses"
    assert singularize("time series", protected) == "time series"
    # protection looks at the final token only
    assert singularize("series models", protected) == "series model"


def test_singularize_touches_final_token_only():
    assert singularize("systems of systems", frozenset()) == "systems of system"


# --- lexicon -------------------------------------------------------------------


def test_lexicons_share_no_set_dict_or_list():
    given = {"ses"}
    a, b = NormalizationLexicon(), NormalizationLexicon(protected_tokens=given)
    containers = {
        name for name, value in vars(a).items() if isinstance(value, (set, dict, list))
    }
    assert {"protected_tokens", "abbrev_map", "merge_map", "audit", "allow_pairs",
            "deny_pairs"} <= containers
    for name in containers:
        assert getattr(a, name) is not getattr(b, name), name
    b.protected_tokens.add("llm")
    a.record("x", "y", RULE_FOLD)
    assert given == {"ses"} and b.audit == [] and a.protected_tokens == set()


# --- parenthetical expansion -----------------------------------------------------


def test_expand_parenthetical_registers_short_form():
    lex = NormalizationLexicon()
    out = expand_parenthetical("explainable ai (xai)", lex)
    assert out == "explainable ai"
    assert lex.abbrev_map == {"xai": "explainable ai"}
    assert apply_abbrev_map("xai", lex) == "explainable ai"


def test_plural_short_form_expands_like_its_singular():
    lex = NormalizationLexicon(protected_tokens={"ses"})
    lex.register_abbrev("llm", "large language model")
    lex.register_abbrev("ses", "socioeconomic status")
    assert apply_abbrev_map("llms", lex) == "large language model"
    assert apply_abbrev_map("ses", lex) == "socioeconomic status"
    assert apply_abbrev_map("llm models", lex) == "llm models"
    records = (ArticleRecord("r1", "v", 2021, ("LLMs",)),)
    out, _ = normalize_corpus(Corpus(records=records), lex)
    assert out.records[0].keywords == ("large language model",)


def test_expand_parenthetical_passthrough_without_parens():
    lex = NormalizationLexicon()
    assert expand_parenthetical("plain keyword", lex) == "plain keyword"
    assert lex.abbrev_map == {}
    assert lex.audit == []


def test_expand_parenthetical_unbalanced_leaves_breadcrumb():
    lex = NormalizationLexicon()
    assert expand_parenthetical("broken (form", lex) == "broken (form"
    assert ("broken (form", "broken (form", RULE_PAREN) in lex.audit


@pytest.mark.parametrize("keyword", ["(xai)", "full ()", "a (b) c"])
def test_expand_parenthetical_non_matching_shapes(keyword):
    # needs a paren-free full form plus one trailing group
    lex = NormalizationLexicon()
    assert expand_parenthetical(keyword, lex) == keyword
    assert lex.abbrev_map == {}


def test_expand_parenthetical_is_idempotent():
    lex = NormalizationLexicon()
    out = expand_parenthetical("principal component analysis (pca)", lex)
    assert expand_parenthetical(out, lex) == out


def test_register_abbrev_flattens_chains():
    lex = NormalizationLexicon()
    lex.register_abbrev("ml", "machine learning")
    lex.register_abbrev("machine learning", "statistical learning")
    # old entries re-point so values never double as keys
    assert lex.abbrev_map["ml"] == "statistical learning"
    lex2 = NormalizationLexicon()
    lex2.register_abbrev("b", "c")
    lex2.register_abbrev("a", "b")
    assert lex2.abbrev_map == {"b": "c", "a": "c"}


def test_register_abbrev_first_registration_wins():
    lex = NormalizationLexicon()
    lex.register_abbrev("va", "virtual assistant")
    lex.register_abbrev("va", "virtual agent")
    assert lex.abbrev_map["va"] == "virtual assistant"


# --- similarity -------------------------------------------------------------------


def test_similarity_frozen_values():
    assert similarity(
        "principle component analysis", "principal component analysis"
    ) == pytest.approx(96.42857142857143, abs=1e-12)
    assert similarity("deep learning", "machine learning") == pytest.approx(
        68.96551724137932, abs=1e-9
    )
    assert similarity(
        "human centred computing", "human centered computing"
    ) == pytest.approx(97.87234042553192, abs=1e-9)
    assert similarity("clickstream", "click stream") == pytest.approx(
        95.65217391304348, abs=1e-9
    )
    assert similarity("automated assessment", "automatic assessment") == 90.0
    assert similarity("abc", "xyz") == 0.0
    assert similarity("same", "same") == 100.0
    assert similarity("", "") == 100.0
    assert similarity("", "abc") == 0.0


def test_similarity_matches_recursive_oracle():
    rng = random.Random(99)
    pairs = []
    for _ in range(300):
        a = "".join(rng.choice("abcde ") for _ in range(rng.randint(0, 14)))
        b = "".join(rng.choice("abcde ") for _ in range(rng.randint(0, 14)))
        pairs.append((a, b))
    # past 64 characters the bit-parallel LCS needs more than one machine
    # word; non-ASCII letters key the match masks like any other
    for _ in range(40):
        alphabet = rng.choice(["abcde ", "aeé–中文 ", "ab", "xyzé"])
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(60, 140)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 140)))
        pairs.append((a, b))
    pairs += [
        ("é" * 70, "e" * 70),
        ("café – 中文" * 8, "cafe - 中文" * 8),
        ("a" * 65, "a" * 64 + "b"),
    ]
    for a, b in pairs:
        assert similarity(a, b) == pytest.approx(
            oracles.indel_similarity(a, b), abs=1e-12
        )
        assert similarity(a, b) == similarity(b, a)


def test_similarity_bounds():
    rng = random.Random(5)
    for _ in range(200):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
        assert 0.0 <= similarity(a, b) <= 100.0


# --- synonym merging -----------------------------------------------------------------


def _merged(keywords, **kwargs) -> dict[str, str]:
    lex = NormalizationLexicon(**kwargs)
    merge_synonyms(keywords, lex)
    return dict(lex.merge_map)


def test_merge_most_frequent_wins():
    counts = {
        "principal component analysis": 5,
        "principle component analysis": 2,
    }
    assert _merged(counts) == {
        "principle component analysis": "principal component analysis"
    }


def test_merge_frequency_tie_prefers_shorter_then_lexicographic():
    assert _merged({"clickstream": 1, "click stream": 1}) == {
        "click stream": "clickstream"
    }
    # equal length and equal count: lexicographically smaller survives
    assert _merged({"automated assessment": 1, "automatic assessment": 1}) == {
        "automatic assessment": "automated assessment"
    }


def test_merge_is_transitively_closed():
    # a~b and b~c score above threshold; a~c may not, but one group forms
    a, b, c = "abcdefghij", "abcdefghijk", "abcdefghijkl"
    assert similarity(a, b) >= 90 and similarity(b, c) >= 90
    merged = _merged({a: 3, b: 1, c: 1})
    assert merged == {b: a, c: a}


def test_merge_deny_blocks_direct_pair_only():
    a, b, c = "abcdefghij", "abcdefghijk", "abcdefghijkl"
    # denying a-c changes nothing if the chain a~b~c still connects them
    merged = _merged({a: 3, b: 1, c: 1}, deny_pairs={frozenset((a, c))})
    assert merged == {b: a, c: a}
    # denying both links to c leaves c alone
    merged = _merged(
        {a: 3, b: 1, c: 1},
        deny_pairs={frozenset((a, c)), frozenset((b, c))},
    )
    assert merged == {b: a}


def test_merge_allow_overrides_score():
    pair = {"ai in education": 1, "artificial intelligence in education": 2}
    assert similarity(*pair) < DEFAULT_SYNONYM_THRESHOLD
    assert _merged(dict(pair)) == {}
    merged = _merged(
        dict(pair), allow_pairs={frozenset(pair)}
    )
    assert merged == {
        "ai in education": "artificial intelligence in education"
    }


def test_merge_blocking_heuristic_and_exhaustive_flag():
    # high-scoring pair whose first characters differ and whose lengths
    # differ by more than 3: the default candidate filter skips it
    a = "a" * 40
    b = "b" + "a" * 44
    assert similarity(a, b) > DEFAULT_SYNONYM_THRESHOLD
    assert _merged({a: 1, b: 1}) == {}
    assert _merged({a: 1, b: 1}, exhaustive_pairing=True) == {b: a}


def test_merge_threshold_is_inclusive():
    pair = {"automated assessment": 1, "automatic assessment": 1}
    assert similarity(*pair) == 90.0
    assert _merged(dict(pair)) != {}
    lex = NormalizationLexicon(synonym_threshold=90.01)
    merge_synonyms(dict(pair), lex)
    assert lex.merge_map == {}


def test_merge_is_order_independent():
    rng = random.Random(11)
    keywords = {
        "neural network": 4,
        "neural networks": 1,
        "deep learning": 3,
        "deep learnings": 1,
        "clickstream": 2,
        "click stream": 2,
        "unrelated keyword": 9,
    }
    baseline = _merged(keywords)
    for _ in range(5):
        items = list(keywords.items())
        rng.shuffle(items)
        assert _merged(dict(items)) == baseline


def test_merge_accepts_bare_iterables():
    lex = NormalizationLexicon()
    merge_synonyms(["clickstream", "click stream", "clickstream"], lex)
    assert lex.merge_map == {"click stream": "clickstream"}


@pytest.mark.parametrize("threshold", [0, DEFAULT_SYNONYM_THRESHOLD])
def test_merge_rejects_empty_keyword(threshold):
    lex = NormalizationLexicon(synonym_threshold=threshold)
    with pytest.raises(NormalizationError, match="''"):
        merge_synonyms({"": 1, "ab": 1}, lex)


# forms that share no 2-gram ("ab"/"acb", 80) or no 3-gram
# ("abc"/"abxc", 85.7) yet score high enough to merge at some threshold,
# plus one-character keys, which have no q-grams at all for q > 1
_SHORT_FORMS = ["a", "b", "x", "ab", "ba", "abc", "cab", "acb", "abxc", "bca", "xy"]


def _random_vocabulary(rng: random.Random) -> dict[str, int]:
    words = set(_SHORT_FORMS)
    while len(words) < 45:
        base = "".join(rng.choice("abcdr ") for _ in range(rng.randint(1, 12)))
        words.add(base)
        for _ in range(rng.randint(0, 2)):  # a spelling variant of it
            at = rng.randint(0, len(base))
            kind = rng.choice(["insert", "delete", "swap"])
            if kind == "insert":
                variant = base[:at] + rng.choice("abcdr") + base[at:]
            elif kind == "delete":
                variant = base[:at] + base[at + 1 :]
            else:
                variant = base[:at] + base[at : at + 2][::-1] + base[at + 2 :]
            if variant:
                words.add(variant)
    return {w: rng.randint(1, 5) for w in sorted(words)}


@pytest.mark.parametrize("threshold", [0, 50, 66.7, 80, 85, 90, 90.01, 95, 100])
@pytest.mark.parametrize("exhaustive", [False, True])
def test_merge_matches_all_pairs_reference(threshold, exhaustive):
    for seed in range(3):
        rng = random.Random(seed)
        counts = _random_vocabulary(rng)
        keys = sorted(counts)
        allow = [frozenset(rng.sample(keys, 2)) for _ in range(2)]
        deny = [frozenset(rng.sample(keys, 2)) for _ in range(4)]
        deny += [frozenset(("ab", "acb")), frozenset(("a", "b"))][:seed]
        lex = NormalizationLexicon(
            synonym_threshold=float(threshold),
            exhaustive_pairing=exhaustive,
            allow_pairs=set(allow) - set(deny),
            deny_pairs=set(deny),
        )
        merge_synonyms(counts, lex)
        expected = oracles.merge_all_pairs(
            counts, float(threshold), sorted(lex.allow_pairs, key=sorted), deny, exhaustive
        )
        assert lex.audit == expected
        assert list(lex.merge_map.items()) == [(m, c) for m, c, _ in expected]


@pytest.mark.parametrize(
    "threshold, q, a, b",
    [(0, 1, "a", "xy"), (66.7, 2, "ab", "acb"), (80, 2, "ab", "acb"), (85, 3, "abc", "abxc")],
)
def test_merge_finds_pairs_sharing_no_qgram(threshold, q, a, b):
    # q is the gram size the threshold selects; the q-gram index never
    # pairs these, only the scan of short pairs sharing no gram does
    grams_a = {a[x : x + q] for x in range(len(a) - q + 1)}
    grams_b = {b[x : x + q] for x in range(len(b) - q + 1)}
    assert not grams_a & grams_b
    assert similarity(a, b) >= threshold
    lex = NormalizationLexicon(synonym_threshold=float(threshold))
    merge_synonyms({a: 2, b: 1}, lex)
    assert lex.merge_map == {b: a}


def test_merge_canonicals_stay_apart():
    # after merging, surviving forms must pairwise score below threshold
    rng = random.Random(23)
    words = ["network", "networks", "learning", "learnings", "course",
             "courses", "data", "model", "models", "modeling"]
    counts = {w: rng.randint(1, 5) for w in words}
    lex = NormalizationLexicon()
    merge_synonyms(counts, lex)
    survivors = [w for w in words if w not in lex.merge_map]
    for i, a in enumerate(survivors):
        for b in survivors[i + 1 :]:
            assert similarity(a, b) < lex.synonym_threshold


# --- full pipeline over a corpus ----------------------------------------------------


def _corpus(rows: list[tuple[str, int, list[str]]]) -> Corpus:
    return Corpus(
        tuple(
            ArticleRecord(rid, "venue", year, tuple(kws))
            for rid, year, kws in rows
        )
    )


def test_normalize_corpus_end_to_end():
    corpus = _corpus(
        [
            ("r1", 2020, ["E-Learning", "Neural Networks",
                          "Explainable AI (XAI)"]),
            ("r2", 2020, ["XAI", "neural network", "e-learning"]),
            ("r3", 2021, ["LLM", "large language models"]),
        ]
    )
    lex = NormalizationLexicon()
    lex.register_abbrev("llm", "large language model")
    normalized, lex = normalize_corpus(corpus, lex)
    assert normalized.records[0].keywords == (
        "e learning", "neural network", "explainable ai",
    )
    # all three keywords of r2 collapse onto forms from r1
    assert normalized.records[1].keywords == (
        "explainable ai", "neural network", "e learning",
    )
    # abbreviation and plural meet on the same node
    assert normalized.records[2].keywords == ("large language model",)


def test_normalize_corpus_paren_definitions_reach_earlier_records():
    # the short form appears in an earlier record than its definition;
    # registration of every parenthetical precedes any lookup
    head_first = _corpus(
        [
            ("r1", 2020, ["XAI"]),
            ("r2", 2020, ["Explainable AI (XAI)"]),
        ]
    )
    tail_first = _corpus(
        [
            ("r1", 2020, ["Explainable AI (XAI)"]),
            ("r2", 2020, ["XAI"]),
        ]
    )
    out_a, _ = normalize_corpus(head_first, NormalizationLexicon())
    out_b, _ = normalize_corpus(tail_first, NormalizationLexicon())
    assert {k for r in out_a.records for k in r.keywords} == {
        k for r in out_b.records for k in r.keywords
    } == {"explainable ai"}


def test_normalize_corpus_deduplicates_after_merging():
    corpus = _corpus([("r1", 2020, ["Clickstream", "click-stream", "other"])])
    normalized, _ = normalize_corpus(corpus, NormalizationLexicon())
    assert normalized.records[0].keywords == ("clickstream", "other")


def test_normalize_corpus_error_names_the_record():
    corpus = _corpus([("ok", 2020, ["fine"]), ("r9", 2020, ["—"])])
    with pytest.raises(NormalizationError, match="r9"):
        normalize_corpus(corpus, NormalizationLexicon())


def test_normalize_corpus_is_idempotent():
    corpus = _corpus(
        [
            ("r1", 2020, ["E-Learning", "Neural Networks", "MOOCs"]),
            ("r2", 2021, ["e-learning", "Clickstream", "click stream"]),
            ("r3", 2021, ["Explainable AI (XAI)", "XAI", "analyses"]),
        ]
    )
    once, _ = normalize_corpus(corpus, NormalizationLexicon())
    twice, _ = normalize_corpus(once, NormalizationLexicon())
    assert twice.records == once.records


def test_normalize_corpus_counts_each_record_once():
    # canonical choice weighs records containing a form, not raw strings,
    # so five mentions in one record cannot outvote two separate records
    corpus = _corpus(
        [
            ("r1", 2020, ["click stream"] * 5),
            ("r2", 2020, ["clickstream"]),
            ("r3", 2020, ["clickstream"]),
        ]
    )
    normalized, lex = normalize_corpus(corpus, NormalizationLexicon())
    assert lex.merge_map == {"click stream": "clickstream"}
    assert normalized.records[0].keywords == ("clickstream",)


# --- audit trail -----------------------------------------------------------------------


def _replay(audit: list[tuple[str, str, str]], raw: str) -> str:
    maps: dict[str, dict[str, str]] = {
        rule: {} for rule in (RULE_FOLD, RULE_PAREN, RULE_ABBREV,
                              RULE_SINGULAR, RULE_MERGE)
    }
    for source, target, rule in audit:
        if source != target:
            maps[rule][source] = target
    form = raw
    for rule in (RULE_FOLD, RULE_PAREN, RULE_ABBREV, RULE_SINGULAR, RULE_MERGE):
        form = maps[rule].get(form, form)
    return form


def test_audit_replay_reproduces_canonical_forms():
    corpus = _corpus(
        [
            ("r1", 2020, ["E-Learning", "Neural Networks",
                          "Explainable AI (XAI)", "MOOCs"]),
            ("r2", 2020, ["XAI", "neural network", "Clickstream"]),
            ("r3", 2021, ["click-stream", "analyses", "Social Media"]),
        ]
    )
    normalized, lex = normalize_corpus(corpus, NormalizationLexicon())
    for original, result in zip(corpus.records, normalized.records):
        replayed = []
        for raw in original.keywords:
            form = _replay(lex.audit, raw)
            if form not in replayed:
                replayed.append(form)
        assert tuple(replayed) == result.keywords


def test_audit_entries_are_deduplicated_and_serializable(tmp_path):
    lex = NormalizationLexicon()
    lex.record("A", "a", RULE_FOLD)
    lex.record("A", "a", RULE_FOLD)
    lex.record("bs", "b", RULE_SINGULAR)
    assert lex.audit == [("A", "a", RULE_FOLD), ("bs", "b", RULE_SINGULAR)]
    write_audit(tmp_path, lex.audit)
    rows = [json.loads(line) for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert rows == [
        {"raw": "A", "canonical": "a", "rule": "fold"},
        {"raw": "bs", "canonical": "b", "rule": "singular"},
    ]
    (tmp_path / "manifest.json").write_text("{}", "utf-8")
    audit = read_bundle(tmp_path)[0]
    assert audit == {"fold": {"A": "a"}, "singular": {"bs": "b"}}


# --- lexicon files ------------------------------------------------------------------------


def test_load_lexicon_parses_all_three_files(tmp_path):
    protected = tmp_path / "protected.tsv"
    protected.write_text("# comment\nAnalytics\n\nseries\n", "utf-8")
    abbrev = tmp_path / "abbrev.tsv"
    # U+2028 is no row boundary; folding turns it into a space. A byte
    # order mark is no part of the first row
    abbrev.write_text(
        "NLP\tNatural-Language Processing\nM\u2028L\tMachine Learning\n", "utf-8-sig"
    )
    merges = tmp_path / "merges.tsv"
    merges.write_text(
        "AI in Education\tartificial intelligence in education\tallow\n"
        "E-Learning\tM-Learning\tdeny\n",
        "utf-8",
    )
    lex = load_lexicon(protected, abbrev, merges, synonym_threshold=85.0)
    assert lex.protected_tokens == {"analytics", "series"}
    # entries are folded so they hit pipeline-stage forms
    assert lex.abbrev_map == {"nlp": "natural language processing", "m l": "machine learning"}
    assert lex.allow_pairs == {
        frozenset(("ai in education", "artificial intelligence in education"))
    }
    assert lex.deny_pairs == {frozenset(("e learning", "m learning"))}
    assert lex.synonym_threshold == 85.0


@pytest.mark.parametrize(
    ("which", "text"),
    [("protected", "Analytics\nseries\n"), ("abbrev", "NLP\tNatural-Language Processing\n"),
     ("merges", "E-Learning\tM-Learning\tdeny\n")],
)
def test_load_lexicon_skips_a_byte_order_mark(tmp_path, which, text):
    path = tmp_path / f"{which}.tsv"
    path.write_text(text, "utf-8")
    plain = load_lexicon(**{which: path})
    path.write_text(text, "utf-8-sig")
    marked = load_lexicon(**{which: path})
    fields = ("protected_tokens", "abbrev_map", "allow_pairs", "deny_pairs")
    assert [getattr(marked, f) for f in fields] == [getattr(plain, f) for f in fields]
    assert any(getattr(plain, f) for f in fields)


def test_load_lexicon_normalizes_merge_rows_to_stage_forms(tmp_path):
    # merge rows written as raw plurals must match post-singularization
    merges = tmp_path / "merges.tsv"
    merges.write_text("Neural Networks\tNeural Nets\tdeny\n", "utf-8")
    lex = load_lexicon(merges=merges)
    assert lex.deny_pairs == {frozenset(("neural network", "neural net"))}


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("one\ttwo\n", "one token"),
        ("bad row\n", "short<TAB>full"),
        ("a\tb\tmaybe\n", "allow|deny"),
        ("same\tsame\tdeny\n", "single form"),
    ],
)
def test_load_lexicon_rejects_malformed_rows(tmp_path, content, fragment):
    path = tmp_path / "file.tsv"
    path.write_text(content, "utf-8")
    if fragment == "one token":
        with pytest.raises(LexiconError, match=fragment):
            load_lexicon(protected=path)
    elif fragment == "short<TAB>full":
        with pytest.raises(LexiconError, match="short"):
            load_lexicon(abbrev=path)
    else:
        with pytest.raises(LexiconError):
            load_lexicon(merges=path)


def test_load_lexicon_ends_rows_only_at_line_feeds(tmp_path):
    path = tmp_path / "protected.tsv"
    path.write_bytes(b"# tokens\r\nAnalytics\r\n\r\nethics\r\n")
    assert load_lexicon(protected=path).protected_tokens == {"analytics", "ethics"}
    # a lone "\r", as a file with CR-only line ends has, would hide a row end
    path.write_bytes(b"series\nanalytics\rethics\n")
    with pytest.raises(LexiconError, match=f"^{re.escape(str(path))}:2: carriage return"):
        load_lexicon(protected=path)


@pytest.mark.parametrize("which", ["protected", "abbrev", "merges"])
@pytest.mark.parametrize(
    "entry, reason",
    [("---", "keyword is empty after folding: '---'"),
     ("a\x01b", "keyword holds a character GraphML cannot hold: 'a\\x01b'")],
    ids=["empty", "control"],
)
def test_load_lexicon_names_the_line_of_an_entry_that_cannot_be_folded(tmp_path, which, entry, reason):
    path = tmp_path / f"{which}.tsv"
    row = {"protected": entry, "abbrev": f"x\t{entry}", "merges": f"{entry}\tx\tallow"}[which]
    path.write_text(f"# first\n{row}\n", "utf-8")
    with pytest.raises(LexiconError) as info:
        load_lexicon(**{which: path})
    assert str(info.value) == f"{path}:2: {reason}"


def test_load_lexicon_rejects_allow_deny_conflict(tmp_path):
    merges = tmp_path / "merges.tsv"
    merges.write_text("a b\tc d\tallow\nc d\ta b\tdeny\n", "utf-8")
    with pytest.raises(LexiconError, match="both allow and deny"):
        load_lexicon(merges=merges)


def test_load_lexicon_rejects_bad_threshold():
    with pytest.raises(LexiconError, match="threshold"):
        load_lexicon(synonym_threshold=101)


def test_missing_lexicon_file_reports_path(tmp_path):
    with pytest.raises(LexiconError, match="cannot read"):
        load_lexicon(protected=tmp_path / "absent.tsv")
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes(b"caf\xe9\n")
    with pytest.raises(LexiconError, match=f"cannot read lexicon file {re.escape(str(latin1))}: 'utf-8'"):
        load_lexicon(protected=latin1)
