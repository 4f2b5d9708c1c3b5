"""Attribute-tagged lexicon of ambiguous words and the POS dictionary.

The lexicon file is UTF-8 JSON lines, one record per entry, with fields
phrase (array of tokens), pos (array), senses (optional integer), tags
(array of strings like "IMP.general" or "T"), status, note (optional) and
source. Saving orders entries by phrase and uses a canonical key order, so
files are byte-stable and save(load(f)) reproduces f for valid input.

A line that kaburlint writes is PHRASE_HEAD ('{"phrase": '), the phrase
array and a tail, the rest of the line, which many entries share byte for
byte. load_lexicon (through fileio.load_jsonl) scans only the phrase array
of a line that repeats the tail of a line decoded in full, and reuses that
line's entry: the new entry shares its POS and tag sets and has only its
phrase checked (loaded_phrase, and no duplicate). Every other line, and
one whose phrase that check refuses, is decoded and checked in full by
record_to_entry, so a refusal always names its file:line. That is the
path of compact or reordered lines and of tails that hold a backslash.
dumps_lexicon encodes each distinct tail once and each phrase array on its
own. The load and the save memo both give up where tails are mostly
distinct, as free-text notes make them (fileio.TAIL_MISSES), and such a
lexicon loads and saves a line at a time. tag_texts renders each
distinct tag set once.

The POS dictionary is a TSV: word, comma-separated classes, optional sense
count. The dictionary heuristics are decided from it once per run
(word_heuristics): a word of several POS classes hits multi_pos (CON) and
one of several senses multi_sense (VAR). Lint and extraction both read
that one table. A rule list holds one phrase per line, and each list is
keyed by the attribute it names (load_rule_lists). Lookup anywhere in
this module is case-insensitive (case-folded).

One rule says what a phrase is (check_phrase): at least one token, and no
token empty or holding whitespace. Lexicon entries, queued candidates and
review decisions all hold to it. A loader's tail-memo hit tests it by
loaded_phrase alone, and leaves a phrase it refuses to the full check, which
names its line.

Phrase matching is greedy leftmost-longest and non-overlapping, over one
PhraseIndex per phrase table: the table, every phrase's first word and
every proper prefix of a phrase. A position whose word starts no phrase
is skipped, and a run grows only while it is a proper prefix (the prefix
stop of Aho and Corasick's automaton, without its failure links, which
only overlapping matches would need). The verified lexicon, extraction's
candidate table and the dangling-else alternatives each build one index
per run. match_entries reads a window's word column (Tokens.words) in
one pass that keeps each match inside its sentence (Tokens.heads) and
returns each hit as its token range and entry; a caller locates the
ranges it reports, a window's in one Tokens.locate call.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cache
from operator import attrgetter
from pathlib import Path

from .errors import LexiconError, WordlistError
from .fileio import TAIL_MISSES, check_record, json_encoder, load_jsonl, read_lines, write_atomic
# Tokens, named in annotations only (PEP 563), is textcore's and not loaded
from .records import MULTI_POS, MULTI_SENSE, SENSE_THRESHOLD, Record

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

# stats --scope (config key scope): each name -> the statuses of the entries it counts
SCOPES = {
    "verified": frozenset({STATUS_VERIFIED}),
    "candidates": frozenset({STATUS_CANDIDATE, STATUS_VERIFIED}),
}


class AttributeTag(Record, frozen=True):
    """One of the six ambiguity attributes, optionally with a sub-attribute."""

    __slots__ = ("attribute", "sub")

    def __init__(self, attribute: str, sub: str | None = None) -> None:
        if attribute not in ATTRIBUTES:
            raise LexiconError(f"unknown attribute {attribute!r}")
        if sub is not None and sub not in SUB_ATTRIBUTES[attribute]:
            raise LexiconError(f"unknown sub-attribute {sub!r} for {attribute}")
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "sub", sub)

    def __str__(self) -> str:
        return self.attribute if self.sub is None else f"{self.attribute}.{self.sub}"

    @classmethod
    def parse(cls, text: str) -> "AttributeTag":
        """Parse "ATTR" or "ATTR.SUB" (e.g. "T", "IMP.general")."""
        tag = _TAGS.get(text)
        if tag is not None:
            return tag
        # not a valid tag: the checks below and in __init__ say why
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
    """The tags as written in files and reports ("IMP.general"), in ATTRIBUTES order.

    Each distinct set is sorted once; every call returns a new list.
    """
    return list(_sorted_tag_texts(frozenset(tags)))


@cache  # bounded: subsets of the valid tags
def _sorted_tag_texts(tags: frozenset[AttributeTag]) -> tuple[str, ...]:
    return tuple(text for _, text in sorted(map(_TAG_KEYS.__getitem__, tags)))


def con_sub_tags(pos_classes: Iterable[str]) -> frozenset[AttributeTag]:
    """The CON sub-attribute tag of each POS class that has one (POS_TO_CON_SUB)."""
    return frozenset(
        AttributeTag("CON", POS_TO_CON_SUB[p]) for p in pos_classes if p in POS_TO_CON_SUB
    )


def normalize_phrase(phrase: str | Sequence[str]) -> tuple[str, ...]:
    """Case-fold a phrase given as a string or token sequence."""
    words = phrase.split() if isinstance(phrase, str) else list(phrase)
    return tuple(map(str.casefold, words))


def check_phrase(phrase: Sequence[str], what: str) -> None:
    """Raise LexiconError unless phrase has tokens, none empty or holding whitespace.

    what names the phrase's holder in the message ("entry", "candidate",
    "decision"). Case-folding keeps a phrase within the rule, so a phrase
    may be checked before or after normalize_phrase.
    """
    if not phrase:
        raise LexiconError(f"{what} phrase must have at least one token")
    for token in phrase:
        if not token:
            raise LexiconError(f"{what} phrase contains an empty token")
        if token.split() != [token]:
            raise LexiconError(f"phrase token {token!r} contains whitespace")


def loaded_phrase(words: object) -> tuple[str, ...]:
    """tuple(words) for a decoded phrase array within check_phrase and already case-folded.

    Raises TypeError or ValueError for anything else, which a loader leaves
    to its full check: that words the refusal or folds the phrase.
    """
    # joined by spaces, only tokens that are neither empty nor hold
    # whitespace split back into themselves; a non-string raises TypeError
    if words.__class__ is not list or not words or " ".join(words).split() != words:
        raise ValueError
    text = " ".join(words)
    if text != text.casefold():
        raise ValueError
    return tuple(words)


class LexiconEntry(Record):
    """A word or multiword phrase with POS classes, tags and review status."""

    __slots__ = ("phrase", "pos_classes", "sense_count", "tags", "status", "note", "source")

    def __init__(
        self,
        phrase: tuple[str, ...],
        pos_classes: frozenset[str] = frozenset(),
        sense_count: int | None = None,
        tags: frozenset[AttributeTag] = frozenset(),
        status: str = STATUS_CANDIDATE,
        note: str | None = None,
        source: str = "user",
    ) -> None:
        self.phrase = phrase
        self.pos_classes = pos_classes
        self.sense_count = sense_count
        self.tags = tags
        self.status = status
        self.note = note
        self.source = source

    def validate(self) -> None:
        check_phrase(self.phrase, "entry")
        for token in self.phrase:
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
        self._entries[entry.phrase] = entry
        self._verified = None

    def replace(self, entry: LexiconEntry) -> None:
        """Insert or overwrite the entry for entry.phrase."""
        entry.validate()
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


# how entry_to_record and decision_to_record lines start, as json_encoder writes them:
# PHRASE_HEAD, the phrase array, a tail; the loaders hand it to load_jsonl
PHRASE_HEAD = '{"phrase": '
# the fields a tail encodes: every field but phrase, so a new one joins the save memo's key
_tail_fields = attrgetter(*[field for field in LexiconEntry._fields if field != "phrase"])


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


# phrase -> a set of names: rule-list attributes or criterion hits
PhraseSets = dict[tuple[str, ...], frozenset[str]]


def load_rule_lists(paths: dict[str, str | Path]) -> PhraseSets:
    """Load one phrase-per-line list files keyed by attribute.

    A phrase maps to the attributes of every list that holds it.
    """
    rules: dict[tuple[str, ...], set[str]] = {}
    for attribute, path in paths.items():
        for _where, line in read_lines(path, "rule list", WordlistError):
            rules.setdefault(normalize_phrase(line), set()).add(attribute)
    return {phrase: frozenset(attrs) for phrase, attrs in rules.items()}


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a JSON-lines lexicon file, validating every record once."""
    lexicon = Lexicon()
    entries = lexicon._entries

    def parse(record: object, where: str) -> LexiconEntry:
        entry = record_to_entry(record, where)
        if entry.phrase in entries:
            raise LexiconError(f"{where}: duplicate phrase {entry.phrase_text!r}")
        return entry

    def quick(words: object, ref: LexiconEntry) -> LexiconEntry:
        phrase = loaded_phrase(words)
        if phrase in entries:
            raise ValueError
        return LexiconEntry(
            phrase, ref.pos_classes, ref.sense_count, ref.tags, ref.status, ref.note, ref.source
        )

    for entry in load_jsonl(path, "lexicon", LexiconError, parse, PHRASE_HEAD, quick):
        entries[entry.phrase] = entry
    return lexicon


def dumps_lexicon(lexicon: Lexicon) -> str:
    """dumps_jsonl(map(entry_to_record, lexicon.entries())), each distinct tail encoded once.

    A line is PHRASE_HEAD, the phrase array and a tail, the other fields, which
    many entries share. Where the tails are mostly distinct (free-text
    notes), the memo gives up as load_jsonl's does, and each later line is
    encoded whole.
    """
    encode = json_encoder()
    lines = []
    tails: dict[tuple, str] = {}
    misses = 0  # tails encoded, less tails reused
    for entry in lexicon.entries():
        if misses > TAIL_MISSES:
            lines.append(encode(entry_to_record(entry)) + "\n")
            continue
        # the class tells a sense count of true from 1, as the encoder does
        key = (_tail_fields(entry), entry.sense_count.__class__)
        tail = tails.get(key)
        if tail is None:
            misses += 1
            record = entry_to_record(entry)
            record["phrase"] = []
            tail = tails[key] = encode(record)[len(PHRASE_HEAD + "[]"):] + "\n"
        else:
            misses -= 1
        lines.append(PHRASE_HEAD + encode(entry.phrase) + tail)
    return "".join(lines)


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

    def __len__(self) -> int:
        return len(self.table)


def longest_matches(
    words: Sequence[str], index: PhraseIndex, heads: Sequence[int] | None = None
) -> list[tuple[int, int, object]]:
    """Greedy longest match over words: (start, end, value) per hit.

    Scans left to right; at each position the longest run of words that
    index.table holds wins and its words are consumed, so hits never
    overlap. Only positions whose word starts a phrase are tried, and a
    run grows only while it is a proper prefix of some phrase, since no
    longer phrase can start with it otherwise. heads, when given, splits
    words into sentences as Tokens.heads does (each sentence's first
    position, then len(words)), and no run crosses a sentence's end.
    """
    firsts = index.firsts
    if firsts.isdisjoint(words):
        return []
    table = index.table
    prefix_words = index.prefix_words
    prefix_runs = index.prefix_runs
    if heads is None:
        heads = (0, len(words))
    hits = []
    pos = 0
    stop = 0  # the end of the sentence that holds position i
    for i in [k for k, word in enumerate(words) if word in firsts]:
        if i < pos:
            continue  # inside the previous hit
        if i >= stop:
            stop = heads[bisect_right(heads, i)]
        run = (words[i],)
        end = i + 1
        best = None
        # a one-word run is a prefix if its word is; a longer one, if its tuple is
        key, prefixes = words[i], prefix_words
        while True:
            value = table.get(run)
            if value:
                best = (i, end, value)
            if end == stop or key not in prefixes:
                break
            run += (words[end],)
            end += 1
            key, prefixes = run, prefix_runs
        if best is not None:
            hits.append(best)
            pos = best[1]
    return hits


def match_entries(lexicon: Lexicon, tokens: Tokens) -> list[tuple[int, int, LexiconEntry]]:
    """Greedy longest-match of verified lexicon phrases over a window's tokens.

    Returns (start, end, entry) per hit, the window's token range
    [start, end) and the entry it matches. At each position the longest
    matching phrase wins and its tokens are consumed, so matches never
    overlap, and none crosses a sentence's end. Matching is on normalized
    token text against the lexicon's verified index, so candidate and
    rejected entries never match.
    """
    return longest_matches(tokens.words, lexicon.verified(), tokens.heads)


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


# one word's heuristic hits: (criterion, tags) per heuristic that fires
WordHits = tuple[tuple[str, frozenset[AttributeTag]], ...]


@cache  # bounded: POS classes are subsets of the five POS_LABELS
def _dictionary_hits(classes: frozenset[str], multi_sense: bool) -> WordHits:
    hits = []
    if len(classes) >= 2:
        hits.append((MULTI_POS, con_sub_tags(classes) or frozenset({AttributeTag("CON")})))
    if multi_sense:
        hits.append((MULTI_SENSE, frozenset({AttributeTag("VAR")})))
    return tuple(hits)


def word_heuristics(
    posdict: PosDictionary | None, sense_threshold: int = SENSE_THRESHOLD
) -> dict[str, WordHits]:
    """Case-folded word -> the dictionary heuristics that fire on it.

    A word with two or more POS classes hits multi_pos, tagged with the CON
    sub-attribute of each class that has one (plain CON if none has); a
    word whose recorded sense count reaches sense_threshold hits
    multi_sense (VAR). Words on which neither fires are absent. Both read
    only the dictionary, so this is one table per run: lint probes it once
    per kept word and extraction takes its dictionary criteria from it.
    Words with the same classes and sense outcome share one hits tuple.
    """
    table: dict[str, WordHits] = {}
    for word, classes, senses in posdict.items() if posdict is not None else ():
        multi_sense = senses is not None and senses >= sense_threshold
        if len(classes) >= 2 or multi_sense:
            table[word] = _dictionary_hits(classes, multi_sense)
    return table
