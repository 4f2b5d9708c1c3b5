"""Attribute-tagged lexicon of ambiguous words and the POS dictionary.

The lexicon file is UTF-8 JSON lines, one record per entry, with fields
phrase (array of tokens), pos (array), senses (optional integer), tags
(array of strings like "IMP.general" or "T"), status, note (optional) and
source. Saving orders entries by phrase and uses a canonical key order, so
files are byte-stable and save(load(f)) reproduces f for valid input.

The POS dictionary is a TSV: word, comma-separated classes, optional sense
count. Lookup anywhere in this module is case-insensitive (case-folded).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import LexiconError, WordlistError
from .fileio import check_record, read_jsonl, read_lines, write_atomic
from .textcore import Span, Token

ATTRIBUTES = ("IMP", "CON", "T", "REF", "VAR", "WN")

SUB_ATTRIBUTES = {
    "IMP": frozenset({"general", "subjective", "boundary", "unquantifiable"}),
    "CON": frozenset({"adjective", "adverb", "verb", "dangling_else", "preposition"}),
    "T": frozenset(),
    "REF": frozenset(),
    "VAR": frozenset(),
    "WN": frozenset(),
}

POS_LABELS = frozenset({"kn", "kk", "adj", "kt", "other"})

# POS classes that suggest a Connectives sub-attribute. "kt" is carried as
# an opaque label by the dictionary format but behaves adverb-like here.
POS_TO_CON_SUB = {"adj": "adjective", "kk": "verb", "kt": "adverb"}

STATUS_CANDIDATE = "candidate"
STATUS_VERIFIED = "verified"
STATUS_REJECTED = "rejected"
STATUSES = (STATUS_CANDIDATE, STATUS_VERIFIED, STATUS_REJECTED)

SOURCES = ("paper_seed", "extracted", "user")

@dataclass(frozen=True)
class AttributeTag:
    """One of the six ambiguity attributes, optionally with a sub-attribute."""

    attribute: str
    sub: str | None = None

    def __post_init__(self) -> None:
        if self.attribute not in ATTRIBUTES:
            raise LexiconError(f"unknown attribute {self.attribute!r}")
        if self.sub is not None and self.sub not in SUB_ATTRIBUTES[self.attribute]:
            raise LexiconError(
                f"unknown sub-attribute {self.sub!r} for {self.attribute}"
            )

    def __str__(self) -> str:
        return self.attribute if self.sub is None else f"{self.attribute}.{self.sub}"

    @classmethod
    def parse(cls, text: str) -> "AttributeTag":
        """Parse "ATTR" or "ATTR.SUB" (e.g. "T", "IMP.general")."""
        attribute, dot, sub = text.partition(".")
        if dot and not sub:
            raise LexiconError(f"malformed tag {text!r}")
        return cls(attribute, sub if dot else None)


def tag_sort_key(tag: AttributeTag) -> tuple[int, str]:
    return ATTRIBUTES.index(tag.attribute), tag.sub or ""


def sorted_tags(tags: Iterable[AttributeTag]) -> list[AttributeTag]:
    return sorted(tags, key=tag_sort_key)


def normalize_phrase(phrase: str | Sequence[str]) -> tuple[str, ...]:
    """Case-fold a phrase given as a string or token sequence."""
    words = phrase.split() if isinstance(phrase, str) else list(phrase)
    return tuple(map(str.casefold, words))


@dataclass
class LexiconEntry:
    """A word or multiword phrase with POS classes, tags and review status."""

    phrase: tuple[str, ...]
    pos_classes: frozenset[str] = frozenset()
    sense_count: int | None = None
    tags: frozenset[AttributeTag] = frozenset()
    status: str = STATUS_CANDIDATE
    note: str | None = None
    source: str = "user"

    def validate(self) -> None:
        if not self.phrase:
            raise LexiconError("entry phrase must have at least one token")
        for token in self.phrase:
            if not token:
                raise LexiconError("entry phrase contains an empty token")
            if token.split() != [token]:
                raise LexiconError(f"phrase token {token!r} contains whitespace")
            if token != token.casefold():
                raise LexiconError(f"phrase token {token!r} is not case-folded")
        unknown_pos = self.pos_classes - POS_LABELS
        if unknown_pos:
            raise LexiconError(f"unknown POS label(s) {sorted(unknown_pos)}")
        if self.sense_count is not None and self.sense_count < 0:
            raise LexiconError("sense count must be non-negative")
        if self.status not in STATUSES:
            raise LexiconError(f"unknown status {self.status!r}")
        if self.source not in SOURCES:
            raise LexiconError(f"unknown source {self.source!r}")
        # rejected entries never match or count, so they alone may carry no
        # tags (a rejected candidate may have been unmapped)
        if not self.tags and self.status != STATUS_REJECTED:
            raise LexiconError(
                f"entry {' '.join(self.phrase)!r} must carry at least one tag"
            )

    @property
    def phrase_text(self) -> str:
        return " ".join(self.phrase)


class Lexicon:
    """Phrase-keyed collection of entries; lookup is case-insensitive."""

    def __init__(self, entries: Iterable[LexiconEntry] = ()) -> None:
        self._entries: dict[tuple[str, ...], LexiconEntry] = {}
        self._max_phrase_len = 0
        for entry in entries:
            self.add(entry)

    def add(self, entry: LexiconEntry) -> None:
        entry.validate()
        if entry.phrase in self._entries:
            raise LexiconError(f"duplicate phrase {entry.phrase_text!r}")
        self._entries[entry.phrase] = entry
        self._max_phrase_len = max(self._max_phrase_len, len(entry.phrase))

    def replace(self, entry: LexiconEntry) -> None:
        """Insert or overwrite the entry for entry.phrase."""
        entry.validate()
        self._entries[entry.phrase] = entry
        self._max_phrase_len = max(self._max_phrase_len, len(entry.phrase))

    def get(self, phrase: Sequence[str]) -> LexiconEntry | None:
        return self._entries.get(tuple(phrase))

    def __contains__(self, phrase: Sequence[str]) -> bool:
        return tuple(phrase) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.entries())

    def entries(self) -> list[LexiconEntry]:
        return [self._entries[p] for p in sorted(self._entries)]

    @property
    def max_phrase_len(self) -> int:
        return self._max_phrase_len


_ENTRY_KINDS = {
    "phrase": list,
    "pos": list,
    "senses": int,
    "tags": list,
    "status": str,
    "note": str,
    "source": str,
}


def entry_to_record(entry: LexiconEntry) -> dict:
    record: dict = {"phrase": list(entry.phrase), "pos": sorted(entry.pos_classes)}
    if entry.sense_count is not None:
        record["senses"] = entry.sense_count
    record["tags"] = [str(t) for t in sorted_tags(entry.tags)]
    record["status"] = entry.status
    if entry.note is not None:
        record["note"] = entry.note
    record["source"] = entry.source
    return record


def record_to_entry(record: object, where: str = "record") -> LexiconEntry:
    check_record(record, _ENTRY_KINDS, where, LexiconError, required=("phrase",))
    try:
        entry = LexiconEntry(
            phrase=normalize_phrase(record["phrase"]),
            pos_classes=frozenset(record.get("pos", ())),
            sense_count=record.get("senses"),
            tags=frozenset(map(AttributeTag.parse, record.get("tags", ()))),
            status=record.get("status", STATUS_CANDIDATE),
            note=record.get("note"),
            source=record.get("source", "user"),
        )
        entry.validate()
    except LexiconError as exc:
        raise LexiconError(f"{where}: {exc}") from None
    return entry


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a JSON-lines lexicon file, validating every record."""
    lexicon = Lexicon()
    for where, record in read_jsonl(path, "lexicon", LexiconError):
        entry = record_to_entry(record, where)
        if entry.phrase in lexicon:
            raise LexiconError(f"{where}: duplicate phrase {entry.phrase_text!r}")
        lexicon.add(entry)
    return lexicon


def dumps_lexicon(lexicon: Lexicon) -> str:
    lines = [
        json.dumps(entry_to_record(e), ensure_ascii=False) for e in lexicon.entries()
    ]
    return "".join(line + "\n" for line in lines)


def save_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    """Persist atomically, ordered by phrase, byte-stable across runs."""
    write_atomic(path, dumps_lexicon(lexicon))


def longest_matches(
    words: Sequence[str], limit: int, lookup: Callable[[tuple[str, ...]], object]
) -> list[tuple[int, int, object]]:
    """Greedy longest match over words: (start, end, value) per hit.

    Scans left to right; at each position the longest run of at most limit
    words for which lookup returns a truthy value wins and its words are
    consumed, so hits never overlap.
    """
    hits = []
    count = len(words)
    i = 0
    while i < count:
        for end in range(min(i + limit, count), i, -1):
            value = lookup(tuple(words[i:end]))
            if value:
                hits.append((i, end, value))
                i = end
                break
        else:
            i += 1
    return hits


def match_entries(
    lexicon: Lexicon, tokens: Sequence[Token]
) -> list[tuple[Span, LexiconEntry]]:
    """Greedy longest-match of verified lexicon phrases over one sentence's tokens.

    At each position the longest matching phrase wins and its tokens are
    consumed, so matches never overlap. Matching is on normalized token
    text. Candidate and rejected entries never match.
    """
    entries = lexicon._entries

    def lookup(phrase: tuple[str, ...]) -> LexiconEntry | None:
        entry = entries.get(phrase)
        return entry if entry is not None and entry.status == STATUS_VERIFIED else None

    words = [t.normalized for t in tokens]
    return [
        (Span(tokens[start].span.start, tokens[end - 1].span.end), entry)
        for start, end, entry in longest_matches(words, lexicon.max_phrase_len, lookup)
    ]


class PosDictionary:
    """Word to POS-class mapping with optional sense counts."""

    def __init__(self) -> None:
        self._classes: dict[str, frozenset[str]] = {}
        self._senses: dict[str, int] = {}

    def add(self, word: str, pos: Iterable[str], senses: int | None = None) -> None:
        word = word.casefold()
        classes = frozenset(pos)
        unknown = classes - POS_LABELS
        if unknown:
            raise WordlistError(f"unknown POS label(s) {sorted(unknown)} for {word!r}")
        if word in self._classes:
            raise WordlistError(f"duplicate POS dictionary word {word!r}")
        self._classes[word] = classes
        if senses is not None:
            if senses < 0:
                raise WordlistError(f"negative sense count for {word!r}")
            self._senses[word] = senses

    def pos_classes(self, word: str) -> frozenset[str]:
        return self._classes.get(word.casefold(), frozenset())

    def sense_count(self, word: str) -> int | None:
        return self._senses.get(word.casefold())

    def __contains__(self, word: str) -> bool:
        return word.casefold() in self._classes

    def __len__(self) -> int:
        return len(self._classes)


def load_pos_dictionary(path: str | Path) -> PosDictionary:
    """Load a TSV POS dictionary: word, comma-separated POS, optional senses."""
    posdict = PosDictionary()
    for where, line in read_lines(path, "POS dictionary", WordlistError):
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) not in (2, 3) or not fields[0] or not fields[1]:
            raise WordlistError(f"{where}: expected word<TAB>pos[<TAB>senses]")
        senses: int | None = None
        if len(fields) == 3 and fields[2]:
            try:
                senses = int(fields[2])
            except ValueError:
                raise WordlistError(f"{where}: sense count {fields[2]!r} is not an integer") from None
        pos = [p.strip() for p in fields[1].split(",") if p.strip()]
        try:
            posdict.add(fields[0], pos, senses)
        except WordlistError as exc:
            raise WordlistError(f"{where}: {exc}") from None
    return posdict
