"""Seeded synthetic corpora and the named benchmark workloads.

One generator makes every corpus. Keywords are built from a syllable
vocabulary and drawn with Zipf popularity, 2-8 per record, over ten
years. Some keywords first appear in a later year, so a run has emerging
keywords and ego networks to write. A set share of mentions are spelling
variants of their keyword: a case change, a hyphen, a plural, or one
inserted or deleted letter.

The program under test sees only the two files :func:`write_inputs`
writes: ``corpus.jsonl`` and ``config.json``. Same seed, same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FIRST_YEAR = 2015
YEARS = 10
VENUES = 12
EMERGING_SHARE = 0.15  # share of keywords first seen after the first year
# a seed kept out of tuning; a performance claim must hold on it as well
HELD_OUT_SEED = 4242

_ONSETS = "bdfgklmnprtvz"
_VOWELS = "aeiou"
_VARIANT_KINDS = ("case", "hyphen", "plural", "insert", "delete")


@dataclass(frozen=True)
class CorpusSpec:
    records: int
    vocabulary: int  # canonical keywords
    variant_share: float  # share of mentions written as a spelling variant


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    args: tuple[str, ...]  # kcn arguments; {config} and {out} are filled in
    output: str  # "bundle" (a directory) or "file"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run_years",
            corpus=CorpusSpec(records=600, vocabulary=500, variant_share=0.05),
            args=("run", "--config", "{config}", "--out", "{out}"),
            output="bundle",
        ),
        Workload(
            name="meso_vocab",
            corpus=CorpusSpec(records=1100, vocabulary=850, variant_share=0.03),
            args=(
                "run", "--config", "{config}", "--out", "{out}",
                "--only", "macro", "--only", "meso",
            ),
            output="bundle",
        ),
        Workload(
            name="export_variants",
            corpus=CorpusSpec(records=1400, vocabulary=900, variant_share=0.30),
            args=(
                "export", "--config", "{config}", "--slice", "all",
                "--format", "graphml", "--out", "{out}",
            ),
            output="file",
        ),
    )
}


def generate(spec: CorpusSpec, seed: int) -> list[dict]:
    """Return the corpus records for ``spec`` and ``seed``."""
    rng = random.Random(f"kcn-perfbench:{seed}")
    keywords = _vocabulary(rng, spec.vocabulary)  # position is popularity rank
    weights = [1.0 / (rank + 1) for rank in range(len(keywords))]  # Zipf

    # EMERGING_SHARE of the keywords debut in a later year, every third of
    # the 36 most popular among them, so some reach the top ranks. The late
    # ranks, their debut years, the mix of record sizes and the number and
    # kinds of variant mentions below do not depend on the seed, nor do
    # keyword lengths (see _vocabulary), which keeps the work nearly the
    # same per seed.
    step = round(1 / EMERGING_SHARE)
    debut = [
        2 + (rank // 3 if rank < 36 else rank // step) % (YEARS - 2)
        if (rank < 36 and rank % 3 == 2) or (rank >= 36 and rank % step == 0) else 0
        for rank in range(len(keywords))
    ]

    typos = [_typos(rng, kw) for kw in keywords]
    variants_due = 0.0  # every 1/variant_share-th mention is a variant
    variants = 0
    out = []
    per_year = [spec.records // YEARS + (y < spec.records % YEARS) for y in range(YEARS)]
    sizes = [2 + i % 7 for i in range(spec.records)]  # 2-8 keywords, evenly
    rng.shuffle(sizes)
    for year, count in enumerate(per_year):
        live = [i for i in range(len(keywords)) if debut[i] <= year]
        cum = []
        total = 0.0
        for i in live:
            total += weights[i]
            cum.append(total)
        for _ in range(count):
            k = sizes[len(out)]
            chosen: list[int] = []
            while len(chosen) < k:
                for i in rng.choices(live, cum_weights=cum, k=k - len(chosen)):
                    if i not in chosen:
                        chosen.append(i)
            mentions = []
            for i in chosen:
                variants_due += spec.variant_share
                if variants_due >= 1.0:
                    variants_due -= 1.0
                    kind = _VARIANT_KINDS[variants % len(_VARIANT_KINDS)]
                    variants += 1
                    mentions.append(_variant(rng, kind, keywords[i], typos[i]))
                else:
                    mentions.append(keywords[i])
            out.append(
                {
                    "id": f"r{len(out) + 1:06d}",
                    "venue": f"Venue {rng.randrange(VENUES)}",
                    "year": FIRST_YEAR + year,
                    "keywords": mentions,
                }
            )
    return out


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write ``corpus.jsonl`` and ``config.json``; return the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    records = generate(workload.corpus, seed)
    lines = [json.dumps(r, sort_keys=True, ensure_ascii=True) for r in records]
    (directory / "corpus.jsonl").write_text("\n".join(lines) + "\n", "utf-8")
    config = {
        "inputs": [{"path": "corpus.jsonl", "format": "jsonl"}],
        "seed": seed,
    }
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", "utf-8")
    return path


def command_args(workload: Workload, config: Path, out: Path) -> list[str]:
    """The ``kcn`` argument list of ``workload``."""
    return [a.format(config=config, out=out) for a in workload.args]


def _vocabulary(rng: random.Random, n: int) -> list[str]:
    # words of 2-4 open syllables end in a vowel, so singularization and
    # hyphen folding leave canonical forms unchanged. Every syllable has two
    # letters, and the number of words in keyword k and of syllables in
    # each follow from k, not from the seed: keyword lengths, which decide
    # how many pairs the synonym merge compares, are the same for any seed
    syllables = [o + v for o in _ONSETS for v in _VOWELS]
    pools: dict[int, list[str]] = {2: [], 3: [], 4: []}  # words by syllables
    seen: set[str] = set()
    for count, pool in pools.items():
        while len(pool) < max(30, n // 6):
            w = "".join(rng.choice(syllables) for _ in range(count))
            if w not in seen:
                seen.add(w)
                pool.append(w)
    out: list[str] = []
    seen = set()
    while len(out) < n:
        k = len(out)
        shape = [2 + (k + j) % 3 for j in range((1, 2, 2, 3)[k % 4])]
        words = [rng.choice(pools[count]) for count in shape]
        kw = " ".join(words)
        if kw not in seen and len(set(words)) == len(words):
            seen.add(kw)
            out.append(kw)
    return out


def _typos(rng: random.Random, keyword: str) -> list[str]:
    # two fixed misspellings per keyword, so variant forms recur
    out = []
    for kind in ("insert", "delete"):
        pos = rng.randrange(1, len(keyword))
        if kind == "insert":
            out.append(keyword[:pos] + rng.choice(_VOWELS) + keyword[pos:])
        elif keyword[pos] != " " and keyword[pos - 1] != " ":
            out.append(keyword[:pos] + keyword[pos + 1:])
        else:
            out.append(keyword[:pos - 1] + keyword[pos:])
    return out


def _variant(rng: random.Random, kind: str, keyword: str, typos: list[str]) -> str:
    if kind == "case":
        return keyword.title() if rng.random() < 0.5 else keyword.upper()
    if kind == "hyphen":
        if " " in keyword:
            return keyword.replace(" ", "-", 1)
        return keyword[:2] + "-" + keyword[2:]
    if kind == "plural":
        return keyword + "s"
    return typos[0] if kind == "insert" else typos[1]
