"""Exclusion filters that drop inappropriate tokens before extraction.

The filter step is fixed: all six reasons always apply, and each token gets
at most one, the first that matches in this order: symbol, number,
reduplication, short_form, proper_noun, loanword. Only the wordlists that
the reasons consult are configurable. The outcome for a token depends only
on its surface, whether it is its sentence's first word and the
wordlists, so filtering is order-independent and re-filtering the kept
tokens excludes nothing further.

That is why one table per run (SurfaceTable, kept by the FilterConfig)
maps each surface to its kind and its reason at each sentence position;
its normalized form is the tokenizer's column. It fills on a miss, so
each distinct surface is decided once; apply_filters reads a sentence's
surface column through it and returns a columnar FilterReport (facts and
kept positions) that builds tokens only when a caller reads them.

Both token-level and type-level elimination counts are reported, since an
aggregate like "N words eliminated" is ambiguous between the two.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import WordlistError
from .fileio import read_lines
from .textcore import (
    DEFAULT_ABBREVIATIONS,
    NUMBER,
    SYMBOL,
    WORD,
    Columns,
    Token,
    Tokens,
    detect_reduplication,
    token_kind,
    token_words,
)

LOANWORD = "loanword"
SHORT_FORM = "short_form"
REDUPLICATION = "reduplication"
PROPER_NOUN = "proper_noun"
SYMBOL_REASON = "symbol"
NUMBER_REASON = "number"

# fixed precedence: first matching reason wins
REASON_ORDER = (
    SYMBOL_REASON,
    NUMBER_REASON,
    REDUPLICATION,
    SHORT_FORM,
    PROPER_NOUN,
    LOANWORD,
)

_VOWELS = frozenset("aeiou")


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Load a one-entry-per-line wordlist; '#' comments and blanks allowed."""
    lines = read_lines(path, "wordlist", WordlistError)
    return frozenset({entry.casefold() for _where, entry in lines})


class SurfaceFacts(NamedTuple):
    """What a token's surface decides about it, wherever it occurs."""

    kind: str
    reason: str | None  # exclusion reason (None: kept) but as its sentence's first word
    initial_reason: str | None  # the same as its sentence's first word


@dataclass(frozen=True)
class FilterConfig:
    """The wordlists the six filters consult; the reasons themselves are fixed.

    It also keeps the run's SurfaceTable (surface_table), which lives and
    dies with the wordlists it came from: the wordlists never change, so
    an entry stays true for as long as the configuration lives. Two
    configurations never share one.
    """

    english_words: frozenset[str] = frozenset()
    malay_words: frozenset[str] | None = None
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS
    _surfaces: SurfaceTable | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def surface_table(self) -> SurfaceTable:
        """This configuration's surface table, made on first use."""
        table = self._surfaces
        if table is None:
            table = SurfaceTable(self)
            object.__setattr__(self, "_surfaces", table)  # a cache, not a field value
        return table


def is_short_form(token: Token, abbrev_list: frozenset[str] | set[str]) -> bool:
    """Abbreviation-like tokens: listed, vowel-less and short, or dotted."""
    normalized = token.normalized
    if normalized in abbrev_list:
        return True
    if len(normalized) <= 4 and not (_VOWELS & set(normalized)):
        return True
    if token.surface.endswith("."):
        return True
    return False


def is_proper_noun(
    token: Token,
    sentence_initial: bool,
    malay_wordlist: frozenset[str] | set[str] | None = None,
) -> bool:
    """Capitalization heuristic for proper nouns (kata nama khas).

    A capitalized word mid-sentence is a proper noun; sentence-initially it
    only counts when a Malay wordlist is available and does not know the
    word.
    """
    if not token.surface[0].isupper():
        return False
    if not sentence_initial:
        return True
    return malay_wordlist is not None and token.normalized not in malay_wordlist


def is_loanword(
    token: Token,
    english_list: frozenset[str] | set[str],
    malay_wordlist: frozenset[str] | set[str] | None = None,
) -> bool:
    """English-wordlist membership; Malay wordlist membership wins."""
    normalized = token.normalized
    if normalized not in english_list:
        return False
    return malay_wordlist is None or normalized not in malay_wordlist


def classify_token(
    token: Token, sentence_initial: bool, cfg: FilterConfig
) -> str | None:
    """Return the exclusion reason for one token, or None to keep it."""
    if token.kind == SYMBOL:
        return SYMBOL_REASON
    if token.kind == NUMBER:
        return NUMBER_REASON
    if detect_reduplication(token):
        return REDUPLICATION
    if is_short_form(token, cfg.abbreviations):
        return SHORT_FORM
    if is_proper_noun(token, sentence_initial, cfg.malay_words):
        return PROPER_NOUN
    if is_loanword(token, cfg.english_words, cfg.malay_words):
        return LOANWORD
    return None


class SurfaceTable(dict):
    """surface -> SurfaceFacts under one FilterConfig.

    A surface's kind and normalized form are functions of it (see
    tokenize), and so is its filter outcome at each sentence position.
    The table fills on a miss (__missing__), so a surface seen before
    costs one dict lookup and a new one costs what deciding it once
    costs. It holds one entry per distinct surface it has seen, and
    surfaces with the same outcome share one SurfaceFacts; the normalized
    form, which differs per surface, is Tokens.words' column. A pickled
    table arrives empty.
    """

    __slots__ = ("cfg", "_shared")

    def __init__(self, cfg: FilterConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self._shared: dict[SurfaceFacts, SurfaceFacts] = {}

    def __missing__(self, surface: str) -> SurfaceFacts:
        normalized = surface.casefold()
        kind = token_kind(surface)
        # the filters read a token's surface, normalized form and kind only
        token = Token(None, surface, normalized, kind)
        reason = classify_token(token, False, self.cfg)
        # only the proper-noun rule reads the position, and as the first
        # word it fires on a subset of the words it fires on elsewhere
        initial = classify_token(token, True, self.cfg) if reason == PROPER_NOUN else reason
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        facts = tuple.__new__(SurfaceFacts, (kind, reason, initial))
        facts = self[surface] = self._shared.setdefault(facts, facts)
        return facts

    def __reduce__(self):
        return SurfaceTable, (self.cfg,)


class _Kept(Columns):
    __slots__ = ("_tokens", "_index")

    def __init__(self, tokens: Sequence[Token], index: list[int]) -> None:
        self._tokens = tokens
        self._index = index

    def __len__(self) -> int:
        return len(self._index)

    def _item(self, k: int) -> Token:
        return self._tokens[self._index[k]]


class _Excluded(Columns):
    __slots__ = ("_report", "_reasons", "_index")

    def __init__(self, report: FilterReport) -> None:
        self._report = report
        self._reasons: list[str | None] | None = None
        self._index: list[int] = []

    def __len__(self) -> int:
        return len(self._report.facts) - len(self._report.kept_index)

    def _item(self, k: int) -> tuple[Token, str]:
        reasons = self._reasons
        if reasons is None:  # first read: one pass over the report
            reasons = self._reasons = self._report.reasons()
            self._index = [i for i, r in enumerate(reasons) if r is not None]
        i = self._index[k]
        return self._report.tokens[i], reasons[i]


class FilterReport:
    """Partition of one sentence's tokens into kept and excluded-with-reason.

    Kept as columns: facts[k] is token k's SurfaceFacts, initial the
    position of the sentence's first word (None: no word), and kept_index
    the kept positions in order. kept (tokens) and excluded ((token,
    reason) pairs) are views that build a token only when it is read.
    """

    __slots__ = ("tokens", "facts", "initial", "kept_index")

    def __init__(
        self,
        tokens: Sequence[Token],
        facts: list[SurfaceFacts],
        initial: int | None,
        kept_index: list[int],
    ) -> None:
        self.tokens = tokens
        self.facts = facts
        self.initial = initial
        self.kept_index = kept_index

    def reasons(self) -> list[str | None]:
        """Each token's exclusion reason; None for a kept one."""
        reasons = [f.reason for f in self.facts]
        if self.initial is not None:
            reasons[self.initial] = self.facts[self.initial].initial_reason
        return reasons

    @property
    def kept(self) -> Sequence[Token]:
        return _Kept(self.tokens, self.kept_index)

    @property
    def excluded(self) -> Sequence[tuple[Token, str]]:
        return _Excluded(self)


def apply_filters(tokens: Sequence[Token], cfg: FilterConfig) -> FilterReport:
    """Partition one sentence's tokens into kept and excluded.

    The sentence's first word token is its sentence-initial one. Every
    outcome is read from cfg's surface table by surface: a Tokens
    sequence's column, or each Token's.
    """
    table = cfg.surface_table()
    surfaces = tokens.surfaces if isinstance(tokens, Tokens) else [t.surface for t in tokens]
    facts = list(map(table.__getitem__, surfaces))
    kept_index = [k for k, f in enumerate(facts) if f.reason is None]
    for initial, first in enumerate(facts):
        if first.kind == WORD:
            # only symbols and numbers come before it, so a word that is
            # kept as the first word alone goes first
            if first.initial_reason is None and first.reason is not None:
                kept_index.insert(0, initial)
            break
    else:
        initial = None
    return FilterReport(tokens, facts, initial, kept_index)


@dataclass
class FilterCounts:
    """Totals of filter reports: all that an extraction summary needs.

    Keeps the kept count and, per reason, how many tokens of each word were
    excluded, instead of the tokens themselves, so a corpus-wide tally stays
    small and cheap to send between processes.
    """

    kept: int = 0
    excluded: dict[str, Counter[str]] = field(
        default_factory=lambda: {reason: Counter() for reason in REASON_ORDER}
    )

    def add(self, report: FilterReport) -> None:
        self.kept += len(report.kept_index)
        for word, reason in zip(token_words(report.tokens), report.reasons()):
            if reason is not None:
                self.excluded[reason][word] += 1

    def update(self, other: "FilterCounts") -> None:
        self.kept += other.kept
        for reason, words in other.excluded.items():
            self.excluded[reason].update(words)

    @property
    def token_counts(self) -> dict[str, int]:
        return {reason: words.total() for reason, words in self.excluded.items()}

    @property
    def type_counts(self) -> dict[str, int]:
        return {reason: len(words) for reason, words in self.excluded.items()}

    @property
    def excluded_types(self) -> int:
        return len(set().union(*self.excluded.values()))
