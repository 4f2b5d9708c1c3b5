"""Seeded input generator for the kaburlint benchmark (stdlib only).

Every workload is a directory holding a config file, copies of the bundled
seed data, a lexicon, a corpus, a review decisions file and
``reference.json``. The reference counts come from the generator alone:
for each lexicon phrase it inserts into the corpus it records how many
times it inserted it, never asking kaburlint.

Sentences are the bundled sample sentences with every word that belongs to
a lexicon or rule-list phrase turned into a slot. A slot receives either a
lexicon phrase (counted) or a filler word. Filler words and the fixed
template words are never tokens of any phrase, and every two slots are
separated by a fixed lower-case word that no filter drops. So no run of
tokens outside an inserted phrase can match a phrase, in ``lint`` (greedy
match over all tokens) or in ``extract`` (greedy match over kept tokens),
and each insertion yields exactly one lint warning and one candidate.

Hint phrases are candidate-status lexicon entries made of synthetic words.
The decisions file accepts every hint phrase that was inserted at least
once, so after ``review`` all inserted phrases are verified.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

ATTRIBUTES = ("IMP", "CON", "T", "REF", "VAR", "WN")
DECISION_TIMESTAMP = "2026-01-01T00:00:00+00:00"
REVIEWER = "perfbench"

DATA_FILES = (
    "pos_dict.tsv",
    "wordlists/english.txt",
    "wordlists/malay.txt",
    "wordlists/abbreviations.txt",
    "rules/implicit.txt",
    "rules/connectives.txt",
    "rules/temporal.txt",
    "rules/referential.txt",
    "rules/variable.txt",
    "rules/weakness.txt",
)

CONFIG = """\
lexicon = lexicon.jsonl
pos_dict = data/pos_dict.tsv
english_wordlist = data/wordlists/english.txt
malay_wordlist = data/wordlists/malay.txt
abbreviations = data/wordlists/abbreviations.txt
rules_implicit = data/rules/implicit.txt
rules_connectives = data/rules/connectives.txt
rules_temporal = data/rules/temporal.txt
rules_referential = data/rules/referential.txt
rules_variable = data/rules/variable.txt
rules_weakness = data/rules/weakness.txt
audit_log = audit.jsonl
"""

# mid-sentence filler with diacritics, used only by non-ASCII workloads
DIACRITIC_WORDS = ("café", "naïf", "élite", "rôle", "déjà", "façade", "protégé", "señor")

_CONSONANTS = "bdgjklmnprst"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Shape:
    """Size and texture of one workload."""

    name: str
    why: str
    docs: int
    lines: int  # sentences per document, one per line
    hints: int  # candidate-status hint phrases added to the seed lexicon
    hint_max_len: int  # hint phrases have 1..hint_max_len tokens
    fill: float  # probability that a slot receives a lexicon phrase
    non_ascii: bool  # BOM, CRLF, diacritics, typographic quotes, em-dashes
    records_check: bool  # cross-check lint --format records against text


SHAPES = {
    s.name: s
    for s in (
        Shape(
            name="many_small",
            why=(
                "100 ASCII docs of 50 lines with few findings: per-doc and "
                "per-token cost (cli and pool, textcore, filters, matching "
                "against the seed lexicon)"
            ),
            docs=100,
            lines=50,
            hints=8,
            hint_max_len=1,
            fill=0.08,
            non_ascii=False,
            records_check=False,
        ),
        Shape(
            name="big_doc",
            why=(
                "one 0.2 MB non-ASCII doc with BOM and CRLF and dense findings: "
                "line_col, rendering and offset-map memory; bypasses the pool "
                "and any ASCII fast path"
            ),
            docs=1,
            lines=3500,
            hints=8,
            hint_max_len=1,
            fill=0.5,
            non_ascii=True,
            records_check=True,
        ),
        Shape(
            name="curate",
            why=(
                "thousands of 1-4 token hint phrases extracted, reviewed into the "
                "lexicon, then linted: lexicon load/save, queue and audit I/O, "
                "long-phrase matching"
            ),
            docs=30,
            lines=50,
            hints=3000,
            hint_max_len=4,
            fill=0.6,
            non_ascii=False,
            records_check=False,
        ),
    )
}


@dataclass(frozen=True)
class Reference:
    """By-construction expectations for one generated workload."""

    inserted: dict[str, int]  # phrase text -> insertions
    verified_before: int  # verified lexicon entries before review
    accepted: int  # accept decisions in the decisions file
    docs: list[str]  # document paths relative to the workload directory

    @property
    def warnings(self) -> int:
        return sum(self.inserted.values())

    def to_json(self) -> dict:
        return {
            "warnings": self.warnings,
            "verified_before": self.verified_before,
            "accepted": self.accepted,
            "docs": self.docs,
            "inserted": self.inserted,
        }


def _read_lines(path: Path) -> list[str]:
    return [
        line.strip()
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]


def _seed_entries(data: Path) -> list[dict]:
    return [json.loads(line) for line in _read_lines(data / "lexicon.jsonl")]


def _templates(data: Path, phrase_tokens: set[str]) -> list[list]:
    """Bundled sample sentences with phrase words turned into slots.

    A template is a list of fixed words (str) and slots (("slot", suffix)).
    Adjacent phrase words collapse into one slot.
    """
    templates = []
    for sample in sorted((data / "sample").glob("*.txt")):
        for line in _read_lines(sample):
            parts: list = []
            for word in line.split():
                core = word.rstrip(".,?!")
                suffix = word[len(core):]
                if core.casefold() in phrase_tokens:
                    if parts and isinstance(parts[-1], tuple) and not parts[-1][1]:
                        parts.pop()
                    parts.append(("slot", suffix))
                else:
                    parts.append(word)
            templates.append(parts)
    return templates


def _check_templates(templates: list[list], separators: set[str]) -> None:
    """Enforce the invariants that make the reference counts exact."""
    for parts in templates:
        if parts and isinstance(parts[0], tuple):
            raise ValueError(f"template starts with a slot: {parts}")
        since_slot = None
        for part in parts:
            if isinstance(part, tuple):
                if since_slot is False:
                    raise ValueError(f"slots without a separator word: {parts}")
                since_slot = False
            elif part in separators:
                since_slot = True


def _synthetic_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words: list[str] = []
    seen = set(taken)
    while len(words) < count:
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(2, 3)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _hint_phrases(
    rng: random.Random, count: int, max_len: int, taken: set[str]
) -> list[tuple[str, ...]]:
    vocabulary = _synthetic_words(rng, max(count, 16), taken)
    phrases: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    while len(phrases) < count:
        phrase = tuple(rng.sample(vocabulary, rng.randint(1, max_len)))
        if phrase not in seen:
            seen.add(phrase)
            phrases.append(phrase)
    return phrases


def _write_jsonl(path: Path, records: list[dict]) -> None:
    text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    path.write_text(text, encoding="utf-8", newline="\n")


def generate(name: str, seed: int, dest: Path, data: Path, scale: float = 1.0) -> Reference:
    """Write workload `name` for `seed` into `dest` (replacing it).

    `data` is the bundled seed-data directory; `scale` shrinks the corpus
    and the hint lexicon for quick self-tests.
    """
    shape = SHAPES[name]
    rng = random.Random(seed)
    if dest.exists():
        shutil.rmtree(dest)
    (dest / "docs").mkdir(parents=True)
    for rel in DATA_FILES:
        target = dest / "data" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(data / rel, target)
    (dest / "kaburlint.conf").write_text(CONFIG, encoding="utf-8", newline="\n")

    seed_entries = _seed_entries(data)
    rule_phrases = [
        tuple(line.casefold().split())
        for rel in DATA_FILES
        if rel.startswith("rules/")
        for line in _read_lines(data / rel)
    ]
    seed_phrases = [tuple(e["phrase"]) for e in seed_entries]
    phrase_tokens = {w for p in seed_phrases + rule_phrases for w in p}
    english = set(_read_lines(data / "wordlists/english.txt"))
    malay = set(_read_lines(data / "wordlists/malay.txt"))
    known = english | malay | phrase_tokens | {
        line.split("\t")[0] for line in _read_lines(data / "pos_dict.tsv")
    }
    templates = _templates(data, phrase_tokens)
    template_words = {
        p.rstrip(".,?!").casefold() for t in templates for p in t if isinstance(p, str)
    }
    # words every filter keeps: lower-case letters only, with a vowel, no loanword
    separators = {
        p
        for t in templates
        for p in t
        if isinstance(p, str)
        and p.isalpha()
        and p.islower()
        and set(p) & set(_VOWELS)
        and p not in english
        and p not in phrase_tokens
    }
    _check_templates(templates, separators)
    fillers = sorted(malay - phrase_tokens)
    if shape.non_ascii:
        fillers += DIACRITIC_WORDS

    hint_count = max(1, round(shape.hints * scale))
    hints = _hint_phrases(rng, hint_count, shape.hint_max_len, known | template_words)
    hint_tags = {
        p: sorted(rng.sample(ATTRIBUTES, rng.randint(1, 2)), key=ATTRIBUTES.index)
        for p in hints
    }
    records = [dict(e) for e in seed_entries] + [
        {"phrase": list(p), "pos": [], "tags": hint_tags[p], "status": "candidate", "source": "user"}
        for p in hints
    ]
    records.sort(key=lambda r: tuple(r["phrase"]))
    _write_jsonl(dest / "lexicon.base.jsonl", records)

    pool = seed_phrases + hints
    inserted: dict[tuple[str, ...], int] = {}
    docs = []
    doc_count = max(1, round(shape.docs * scale))
    line_count = shape.lines if shape.docs > 1 else max(10, round(shape.lines * scale))
    for d in range(doc_count):
        lines = []
        for _ in range(line_count):
            words: list[str] = []
            for part in rng.choice(templates):
                if isinstance(part, str):
                    words.append(part)
                    continue
                if rng.random() < shape.fill:
                    phrase = rng.choice(pool)
                    inserted[phrase] = inserted.get(phrase, 0) + 1
                    text = " ".join(phrase)
                    if shape.non_ascii and rng.random() < 0.3:
                        text = f"‘{text}’"
                else:
                    text = rng.choice(fillers)
                words.append(text + part[1])
            if shape.non_ascii and rng.random() < 0.25:
                words.insert(rng.randint(1, len(words) - 1), "—")
            lines.append(" ".join(words))
        if shape.non_ascii:
            text = "\ufeff" + "\r\n".join(lines) + "\r\n"
        else:
            text = "\n".join(lines) + "\n"
        rel = f"docs/doc{d:04d}.txt"
        (dest / rel).write_bytes(text.encode("utf-8"))
        docs.append(rel)

    accepted = [p for p in inserted if p in hint_tags]
    decisions = [
        {
            "phrase": list(p),
            "verdict": "accept",
            "tags": hint_tags[p],
            "reviewer": REVIEWER,
            "timestamp": DECISION_TIMESTAMP,
        }
        for p in accepted
    ]
    _write_jsonl(dest / "decisions.jsonl", decisions)
    reference = Reference(
        inserted={" ".join(p): n for p, n in sorted(inserted.items())},
        verified_before=sum(e.get("status") == "verified" for e in seed_entries),
        accepted=len(accepted),
        docs=docs,
    )
    (dest / "reference.json").write_text(
        json.dumps(reference.to_json(), ensure_ascii=False, indent=1) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return reference
