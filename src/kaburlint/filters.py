"""Exclusion filters that drop inappropriate tokens before extraction.

The filter step is fixed: all six reasons always apply, and each token gets
at most one, the first that matches in this order: symbol, number,
reduplication, short_form, proper_noun, loanword. Only the wordlists that
the reasons consult are configurable. The outcome for a token depends only
on its surface, whether it is its sentence's first word and the
wordlists, so filtering is order-independent and re-filtering the kept
tokens excludes nothing further.

Every rule reads the token's surface string: a surface with no letter is
a symbol, or a number if it has a digit, and the other rules read the
surface and its case-folded form. So one table per run (SurfaceTable,
kept by the FilterConfig) maps each surface to its reason as a word that
is not its sentence's first; only the proper-noun rule reads the
position, so the first word's reason is looked up again
(SurfaceTable.initial) only when it is a proper noun there. The table
fills on a miss, so each distinct surface is decided once. apply_filters
reads a window's surface column (Tokens) through it and returns a
FilterReport of positions: one reason per token and the kept positions.

Both token-level and type-level elimination counts are reported, since an
aggregate like "N words eliminated" is ambiguous between the two.
"""

from __future__ import annotations

from collections import Counter
from itertools import pairwise
from pathlib import Path

from .errors import WordlistError
from .fileio import read_lines
# Tokens, named in annotations only (PEP 563), is textcore's and not loaded
from .records import DEFAULT_ABBREVIATIONS, Record

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


class FilterConfig(Record, frozen=True):
    """The wordlists the six filters consult; the reasons themselves are fixed.

    It also keeps the run's SurfaceTable (surface_table), which lives and
    dies with the wordlists it came from: the wordlists never change, so
    an entry stays true for as long as the configuration lives. Two
    configurations never share one.
    """

    __slots__ = ("english_words", "malay_words", "abbreviations", "_surfaces")

    def __init__(
        self,
        english_words: frozenset[str] = frozenset(),
        malay_words: frozenset[str] | None = None,
        abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS,
    ) -> None:
        object.__setattr__(self, "english_words", english_words)
        object.__setattr__(self, "malay_words", malay_words)
        object.__setattr__(self, "abbreviations", abbreviations)
        object.__setattr__(self, "_surfaces", None)

    def surface_table(self) -> SurfaceTable:
        """This configuration's surface table, made on first use."""
        table = self._surfaces
        if table is None:
            table = SurfaceTable(self)
            object.__setattr__(self, "_surfaces", table)  # a cache, not a field value
        return table


def detect_reduplication(surface: str) -> bool:
    """True for doubled words joined by exactly one hyphen ("rekod-rekod").

    Both halves must be identical non-empty letter sequences after case
    folding; partial reduplication ("sayur-mayur") does not count.
    """
    normalized = surface.casefold()
    if normalized.count("-") != 1:
        return False
    left, right = normalized.split("-")
    return bool(left) and left == right and left.isalpha()


def is_short_form(surface: str, abbrev_list: frozenset[str] | set[str]) -> bool:
    """Abbreviation-like surfaces: listed, vowel-less and short, or dotted."""
    normalized = surface.casefold()
    if normalized in abbrev_list:
        return True
    if len(normalized) <= 4 and not (_VOWELS & set(normalized)):
        return True
    return surface.endswith(".")


def is_proper_noun(
    surface: str,
    sentence_initial: bool,
    malay_wordlist: frozenset[str] | set[str] | None = None,
) -> bool:
    """Capitalization heuristic for proper nouns (kata nama khas).

    A capitalized word mid-sentence is a proper noun; sentence-initially it
    only counts when a Malay wordlist is available and does not know the
    word.
    """
    if not surface[0].isupper():
        return False
    if not sentence_initial:
        return True
    return malay_wordlist is not None and surface.casefold() not in malay_wordlist


def is_loanword(
    surface: str,
    english_list: frozenset[str] | set[str],
    malay_wordlist: frozenset[str] | set[str] | None = None,
) -> bool:
    """English-wordlist membership; Malay wordlist membership wins."""
    normalized = surface.casefold()
    if normalized not in english_list:
        return False
    return malay_wordlist is None or normalized not in malay_wordlist


def classify_token(surface: str, sentence_initial: bool, cfg: FilterConfig) -> str | None:
    """Return the exclusion reason for a token's surface, or None to keep it.

    A surface with no letter is a symbol, or a number if it has a digit,
    whatever its position; the word rules follow in REASON_ORDER.
    """
    if not any(map(str.isalpha, surface)):
        return NUMBER_REASON if any(map(str.isdigit, surface)) else SYMBOL_REASON
    if detect_reduplication(surface):
        return REDUPLICATION
    if is_short_form(surface, cfg.abbreviations):
        return SHORT_FORM
    if is_proper_noun(surface, sentence_initial, cfg.malay_words):
        return PROPER_NOUN
    if is_loanword(surface, cfg.english_words, cfg.malay_words):
        return LOANWORD
    return None


class SurfaceTable(dict):
    """surface -> exclusion reason (None: kept) under one FilterConfig.

    The reason is the one for a word that is not its sentence's first.
    Only the proper-noun rule reads the position, and as the first word it
    fires on a subset of the words it fires on elsewhere, so initial() is
    asked only for a first word whose reason here is PROPER_NOUN. Both
    fill on a miss, so a surface seen before costs one dict lookup and a
    new one costs what deciding it once costs.
    """

    __slots__ = ("cfg", "_initial")

    def __init__(self, cfg: FilterConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self._initial: dict[str, str | None] = {}

    def __missing__(self, surface: str) -> str | None:
        reason = self[surface] = classify_token(surface, False, self.cfg)
        return reason

    def initial(self, surface: str) -> str | None:
        """The reason of surface as its sentence's first word."""
        memo = self._initial
        if surface not in memo:
            memo[surface] = classify_token(surface, True, self.cfg)
        return memo[surface]


class FilterReport:
    """Partition of a window's tokens into kept and excluded-with-reason.

    reasons[k] is token k's exclusion reason (None: kept), kept the kept
    positions in order and excluded the excluded ones.
    """

    __slots__ = ("tokens", "reasons", "kept")

    def __init__(self, tokens: Tokens, reasons: list[str | None], kept: list[int]) -> None:
        self.tokens = tokens
        self.reasons = reasons
        self.kept = kept

    @property
    def excluded(self) -> list[int]:
        return [k for k, reason in enumerate(self.reasons) if reason is not None]


def apply_filters(tokens: Tokens, cfg: FilterConfig) -> FilterReport:
    """Partition a window's tokens (one sentence or more) into kept and excluded.

    Every reason is read from cfg's surface table by one map over the
    tokens' surface column. A token's reason is symbol or number exactly
    when its surface has no letter, so each sentence's first word, the
    only token whose reason may depend on its position, is the first token
    from the sentence's head (Tokens.heads) with any other reason.
    """
    table = cfg.surface_table()
    surfaces = tokens.surfaces
    reasons = list(map(table.__getitem__, surfaces))
    for k, stop in pairwise(tokens.heads):
        while k < stop and reasons[k] in (SYMBOL_REASON, NUMBER_REASON):
            k += 1
        if k < stop and reasons[k] == PROPER_NOUN:
            reasons[k] = table.initial(surfaces[k])
    kept = [k for k, reason in enumerate(reasons) if reason is None]
    return FilterReport(tokens, reasons, kept)


class FilterCounts(Record):
    """Totals of filter reports: all that an extraction summary needs.

    Keeps the kept count and, per reason, how many tokens of each word were
    excluded, instead of the tokens themselves, so a corpus-wide tally stays
    small and cheap to send between processes.
    """

    __slots__ = ("kept", "excluded")

    def __init__(self, kept: int = 0, excluded: dict[str, Counter[str]] | None = None) -> None:
        self.kept = kept
        self.excluded = {r: Counter() for r in REASON_ORDER} if excluded is None else excluded

    def add(self, report: FilterReport) -> None:
        self.kept += len(report.kept)
        for word, reason in zip(report.tokens.words, report.reasons):
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
