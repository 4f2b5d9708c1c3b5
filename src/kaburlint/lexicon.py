"""Attribute-tagged lexicon of ambiguous words and the POS dictionary.

The lexicon file is UTF-8 JSON lines, one record per entry, with fields
phrase (array of tokens), pos (array), senses (optional integer), tags
(array of strings like "IMP.general" or "T"), status, note (optional) and
source. Saving orders entries by phrase and uses a canonical key order, so
files are byte-stable and save(load(f)) reproduces f for valid input.

The POS dictionary is a TSV: word, comma-separated classes, optional sense
count. Lookup anywhere in this module is case-insensitive (case-folded).

Phrase matching is greedy leftmost-longest and non-overlapping, over one
PhraseIndex per phrase table: the table, every phrase's first word and
every proper prefix of a phrase. A position whose word starts no phrase
is skipped, and a run grows only while it is a proper prefix (the prefix
stop of Aho and Corasick's automaton, without its failure links, which
only overlapping matches would need). The verified lexicon, extraction's
candidate table and the dangling-else alternatives each build one index
per run. match_entries reads a sentence's word column (Tokens.words),
returns the hits as columns (Matches) and builds a byte span only when
one is read.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import LexiconError, WordlistError
from .fileio import check_record, dumps_jsonl, read_jsonl, read_lines, write_atomic
from .textcore import Columns, Span, Tokens

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
        tag = _TAGS.get(text)
        if tag is not None:
            return tag
        # not a valid tag: the checks below and in __post_init__ say why
        attribute, dot, sub = text.partition(".")
        if dot and not sub:
            raise LexiconError(f"malformed tag {text!r}")
        return cls(attribute, sub if dot else None)


# every valid tag by its text, in the order files and reports list them:
# ATTRIBUTES order, each attribute before its sub-attributes
_TAGS = {
    str(tag): tag
    for tag in (
        AttributeTag(attribute, sub)
        for attribute in ATTRIBUTES
        for sub in (None, *sorted(SUB_ATTRIBUTES[attribute]))
    )
}
_TAG_KEYS = {tag: (rank, text) for rank, (text, tag) in enumerate(_TAGS.items())}


def tag_texts(tags: Iterable[AttributeTag]) -> list[str]:
    """The tags as written in files and reports ("IMP.general"), in ATTRIBUTES order."""
    return [text for _, text in sorted(map(_TAG_KEYS.__getitem__, tags))]


def con_sub_tags(pos_classes: Iterable[str]) -> frozenset[AttributeTag]:
    """The CON sub-attribute tag of each POS class that has one (POS_TO_CON_SUB)."""
    return frozenset(
        AttributeTag("CON", POS_TO_CON_SUB[p]) for p in pos_classes if p in POS_TO_CON_SUB
    )


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
        self._verified: PhraseIndex | None = None
        for entry in entries:
            self.add(entry)

    def add(self, entry: LexiconEntry) -> None:
        entry.validate()
        if entry.phrase in self._entries:
            raise LexiconError(f"duplicate phrase {entry.phrase_text!r}")
        self._insert(entry)

    def replace(self, entry: LexiconEntry) -> None:
        """Insert or overwrite the entry for entry.phrase."""
        entry.validate()
        self._insert(entry)

    def _insert(self, entry: LexiconEntry) -> None:
        """Store an entry the caller has validated."""
        self._entries[entry.phrase] = entry
        self._verified = None

    def verified(self) -> PhraseIndex:
        """The phrase index of the verified entries (phrase -> entry).

        Built on first use and dropped by every add and replace, so it
        always reflects the entries stored now.
        """
        if self._verified is None:
            self._verified = PhraseIndex({
                phrase: entry
                for phrase, entry in self._entries.items()
                if entry.status == STATUS_VERIFIED
            })
        return self._verified

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
        """The most words in any entry's phrase (0 when empty)."""
        return max(map(len, self._entries), default=0)


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
    record["tags"] = tag_texts(entry.tags)
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
    """Load a JSON-lines lexicon file, validating every record once."""
    lexicon = Lexicon()
    for where, record in read_jsonl(path, "lexicon", LexiconError):
        entry = record_to_entry(record, where)
        if entry.phrase in lexicon:
            raise LexiconError(f"{where}: duplicate phrase {entry.phrase_text!r}")
        lexicon._insert(entry)
    return lexicon


def dumps_lexicon(lexicon: Lexicon) -> str:
    return dumps_jsonl(map(entry_to_record, lexicon.entries()))


def save_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    """Persist atomically, ordered by phrase, byte-stable across runs."""
    write_atomic(path, dumps_lexicon(lexicon))


class PhraseIndex:
    """A phrase table for greedy longest matching, with its prefix stop.

    table maps each phrase (a tuple of normalized words) to a truthy
    value, and firsts holds every phrase's first word. The proper prefixes
    of the phrases are the stop: a one-word prefix is kept as its word in
    prefix_words, and only longer ones as tuples in prefix_runs, since most
    prefixes are one word long. Built once per table: the verified lexicon
    (Lexicon.verified), extraction's candidate table (candidate_criteria)
    and the dangling-else alternatives.
    """

    __slots__ = ("table", "firsts", "prefix_words", "prefix_runs")

    def __init__(self, table: Mapping[tuple[str, ...], object]) -> None:
        self.table = table
        self.firsts = frozenset(phrase[0] for phrase in table)
        self.prefix_words = frozenset(phrase[0] for phrase in table if len(phrase) > 1)
        self.prefix_runs = frozenset(
            phrase[:k] for phrase in table for k in range(2, len(phrase))
        )

    @property
    def prefixes(self) -> frozenset[tuple[str, ...]]:
        """Every proper prefix of a phrase, as a tuple of words."""
        return self.prefix_runs.union((word,) for word in self.prefix_words)

    def __len__(self) -> int:
        return len(self.table)


def longest_matches(
    words: Sequence[str], index: PhraseIndex
) -> list[tuple[int, int, object]]:
    """Greedy longest match over words: (start, end, value) per hit.

    Scans left to right; at each position the longest run of words that
    index.table holds wins and its words are consumed, so hits never
    overlap. Only positions whose word starts a phrase are tried, and a
    run grows only while it is a proper prefix of some phrase, since no
    longer phrase can start with it otherwise.
    """
    firsts = index.firsts
    if firsts.isdisjoint(words):
        return []
    table = index.table
    prefix_words = index.prefix_words
    prefix_runs = index.prefix_runs
    count = len(words)
    hits = []
    pos = 0
    for i in [k for k, word in enumerate(words) if word in firsts]:
        if i < pos:
            continue  # inside the previous hit
        run = (words[i],)
        end = i + 1
        best = None
        # a one-word run is a prefix if its word is; a longer one, if its tuple is
        key, prefixes = words[i], prefix_words
        while True:
            value = table.get(run)
            if value:
                best = (i, end, value)
            if end == count or key not in prefixes:
                break
            run += (words[end],)
            end += 1
            key, prefixes = run, prefix_runs
        if best is not None:
            hits.append(best)
            pos = best[1]
    return hits


class Matches(Columns):
    """One sentence's lexicon matches as (Span, LexiconEntry) items.

    Kept as hits, the (start, end, entry) token ranges of longest_matches;
    an item's span is built when it is read.
    """

    __slots__ = ("tokens", "hits")

    def __init__(self, tokens: Tokens, hits: list[tuple[int, int, LexiconEntry]]) -> None:
        self.tokens = tokens
        self.hits = hits

    def __len__(self) -> int:
        return len(self.hits)

    def _item(self, k: int) -> tuple[Span, LexiconEntry]:
        start, end, entry = self.hits[k]
        return self.tokens.span(start, end - 1), entry


def match_entries(lexicon: Lexicon, tokens: Tokens) -> Matches:
    """Greedy longest-match of verified lexicon phrases over one sentence's tokens.

    At each position the longest matching phrase wins and its tokens are
    consumed, so matches never overlap. Matching is on normalized token
    text against the lexicon's verified index, so candidate and rejected
    entries never match.
    """
    return Matches(tokens, longest_matches(tokens.words, lexicon.verified()))


class PosDictionary:
    """Word to POS-class mapping with optional sense counts."""

    def __init__(self) -> None:
        self._classes: dict[str, frozenset[str]] = {}
        self._senses: dict[str, int] = {}

    def add(self, word: str, pos: Iterable[str], senses: int | None = None) -> None:
        word = word.casefold()
        if word.split() != [word]:
            # a lookup is one token, so such a word could never be found
            raise WordlistError(f"POS dictionary word {word!r} contains whitespace")
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

    def items(self) -> Iterator[tuple[str, frozenset[str], int | None]]:
        """(word, POS classes, sense count or None) per case-folded word."""
        for word, classes in self._classes.items():
            yield word, classes, self._senses.get(word)

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
