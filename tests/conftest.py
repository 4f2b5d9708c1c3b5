"""Shared fixtures and randomized-input generators for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from kaburlint.lexicon import (
    ATTRIBUTES,
    POS_LABELS,
    SOURCES,
    STATUSES,
    SUB_ATTRIBUTES,
    AttributeTag,
    Lexicon,
    LexiconEntry,
)
from kaburlint.records import DEFAULT_ABBREVIATIONS, Span
from kaburlint.seeds import write_seed_tree
from kaburlint.textcore import Document, SentenceList, Tokens, segment_sentences, tokenize
from textcore_oracle import Token, token_kind


def mk_doc(text: str, doc_id: str = "doc") -> Document:
    return Document(id=doc_id, text=text)


def all_tokens(text: str, abbreviations=frozenset({"dll.", "dsb.", "spt."})) -> Tokens:
    """The tokens of text read as one sentence: a window of one."""
    doc = mk_doc(text)
    return tokenize(doc, SentenceList([0], [len(text)]), abbreviations)


def byte_slice(text: str, span: Span) -> str:
    """The text a byte span covers, read from text's UTF-8 bytes."""
    return text.encode("utf-8")[span.start : span.end].decode("utf-8")


def token_at(tokens: Tokens, k: int) -> Token:
    return token_list(tokens)[k]


def token_list(tokens: Tokens) -> list[Token]:
    """A window's tokens as the text oracle's records, built from its columns.

    Every span comes from one Tokens.locate call.
    """
    located = tokens.locate([(k, k) for k in range(len(tokens))])
    return [
        Token(span, surface, word, token_kind(surface))
        for (_s, span, _text, _char), surface, word in zip(located, tokens.surfaces, tokens.words)
    ]


def sentence_tokens(
    doc: Document, abbreviations=DEFAULT_ABBREVIATIONS
) -> list[tuple[Span, Tokens]]:
    """Each sentence's byte span and its tokens, tokenized as a window of one."""
    sentences = segment_sentences(doc, abbreviations)
    ranges = list(zip(sentences.starts, sentences.ends))
    return [
        (span, tokenize(doc, SentenceList([a], [b]), abbreviations))
        for span, (a, b) in zip(doc.offsets().spans(ranges), ranges)
    ]


@pytest.fixture
def seed_env(tmp_path: Path) -> Path:
    """Materialized seed tree with config, lexicon, wordlists and samples."""
    target = tmp_path / "ws"
    write_seed_tree(target)
    return target


# --- randomized Malay-ish sentences for filter properties ---

FILLER_WORDS = [
    "sistem", "mesti", "rekod", "pelajar", "maklumat", "senarai", "guna",
    "dalam", "dengan", "untuk", "yang", "dan", "data", "laporan", "masa",
    "pengguna", "boleh", "simpan", "padam", "baru", "lama", "nombor",
]
SPECIAL_WORDS = ["rekod-rekod", "alam", "pantas"]
PROPER_NAMES = ["Selangor", "Aminah", "Johor", "Zulkifli"]
LOAN_WORDS = ["database", "server", "backup", "login"]
SHORT_FORMS = ["dll.", "dsb.", "pljr", "dgn", "tkn"]
NUMBERS = ["3", "42", "100", "3.5"]
PUNCT = [",", ";", ":"]


def random_sentence_text(rng: random.Random) -> str:
    """One sentence containing all three special words plus random noise."""
    words = [rng.choice(FILLER_WORDS) for _ in range(rng.randint(2, 7))]
    for _ in range(rng.randint(0, 2)):
        words.append(rng.choice(PROPER_NAMES))
    for _ in range(rng.randint(0, 2)):
        words.append(rng.choice(LOAN_WORDS))
    for _ in range(rng.randint(0, 2)):
        words.append(rng.choice(SHORT_FORMS))
    for _ in range(rng.randint(0, 1)):
        words.append(rng.choice(NUMBERS))
    words.extend(SPECIAL_WORDS)
    rng.shuffle(words)
    if words[0][0].isalpha():
        words[0] = words[0][0].upper() + words[0][1:]
    parts = []
    for word in words:
        parts.append(word)
        if rng.random() < 0.15:
            parts.append(rng.choice(PUNCT))
    return " ".join(parts) + rng.choice([".", "!", "?", ""])


# --- randomized lexicons for round-trip properties ---

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_FANCY = "éüñō"


def random_word(rng: random.Random) -> str:
    length = rng.randint(2, 9)
    chars = [rng.choice(_LETTERS) for _ in range(length)]
    if rng.random() < 0.1:
        chars[rng.randrange(length)] = rng.choice(_FANCY)
    word = "".join(chars)
    if rng.random() < 0.1:
        word = word[:2] + "-" + word[2:]
    return word


def random_phrase(rng: random.Random) -> tuple[str, ...]:
    return tuple(random_word(rng) for _ in range(rng.randint(1, 3)))


def random_tags(rng: random.Random, allow_empty: bool = False) -> frozenset[AttributeTag]:
    if allow_empty and rng.random() < 0.3:
        return frozenset()
    tags = set()
    for _ in range(rng.randint(1, 3)):
        attribute = rng.choice(ATTRIBUTES)
        subs = sorted(SUB_ATTRIBUTES[attribute])
        sub = rng.choice([None] * 2 + subs) if subs else None
        tags.add(AttributeTag(attribute, sub))
    return frozenset(tags)


def random_entry(rng: random.Random, phrase: tuple[str, ...]) -> LexiconEntry:
    status = rng.choice(STATUSES)
    return LexiconEntry(
        phrase=phrase,
        pos_classes=frozenset(
            rng.sample(sorted(POS_LABELS), rng.randint(0, 3))
        ),
        sense_count=rng.choice([None, None, 0, 1, 2, 5, 12]),
        tags=random_tags(rng, allow_empty=(status == "rejected")),
        status=status,
        note=rng.choice([None, None, "nota ujian", 'ada "petikan"', "ümlaut ŵ"]),
        source=rng.choice(SOURCES),
    )


def random_lexicon(rng: random.Random, size: int | None = None) -> Lexicon:
    size = size if size is not None else rng.randint(1, 25)
    phrases = set()
    while len(phrases) < size:
        phrases.add(random_phrase(rng))
    return Lexicon(random_entry(rng, p) for p in sorted(phrases))
