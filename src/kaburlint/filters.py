"""Exclusion filters that drop inappropriate tokens before extraction.

The filter step is fixed: all six reasons always apply, and each token gets
at most one, the first that matches in this order: symbol, number,
reduplication, short_form, proper_noun, loanword. Only the wordlists that
the reasons consult are configurable. The outcome for a token depends only
on the token itself, whether it is its sentence's first word and the
wordlists, so filtering is order-independent and re-filtering the kept
tokens excludes nothing further. That is why apply_filters decides each
surface once per sentence position and configuration and keeps the
answer in the FilterConfig, where it lives and dies with the wordlists
it came from.

Both token-level and type-level elimination counts are reported, since an
aggregate like "N words eliminated" is ambiguous between the two.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .errors import WordlistError
from .fileio import read_lines
from .textcore import (
    DEFAULT_ABBREVIATIONS,
    NUMBER,
    SYMBOL,
    WORD,
    Token,
    detect_reduplication,
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


@dataclass(frozen=True)
class FilterConfig:
    """The wordlists the six filters consult; the reasons themselves are fixed.

    _reasons memoizes apply_filters' outcomes for this configuration: one
    dict per sentence position (not initial, initial) from a token's
    surface to its exclusion reason, None for kept. The wordlists never
    change, so an entry stays true for as long as the configuration
    lives; two configurations never share one. The memo pays where
    surfaces repeat; each new surface costs a miss and an insert, and
    the memo keeps one entry per distinct surface it has seen.
    """

    english_words: frozenset[str] = frozenset()
    malay_words: frozenset[str] | None = None
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS
    _reasons: tuple[dict[str, str | None], dict[str, str | None]] = field(
        default_factory=lambda: ({}, {}), init=False, repr=False, compare=False
    )


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


@dataclass
class FilterReport:
    """Partition of one sentence's tokens into kept and excluded-with-reason."""

    kept: list[Token] = field(default_factory=list)
    excluded: list[tuple[Token, str]] = field(default_factory=list)


_UNSEEN = object()


def apply_filters(tokens: Sequence[Token], cfg: FilterConfig) -> FilterReport:
    """Partition one sentence's tokens into kept and excluded.

    The sentence's first word token is its sentence-initial one. A token's
    kind and normalized form are functions of its surface (see tokenize),
    so classify_token runs once per surface and sentence position within
    one FilterConfig; later tokens read the outcome from cfg._reasons.
    """
    report = FilterReport()
    kept = report.kept
    excluded = report.excluded
    memo, initial_memo = cfg._reasons
    initial_seen = False
    for token in tokens:
        if initial_seen or token.kind != WORD:
            reason = memo.get(token.surface, _UNSEEN)
            if reason is _UNSEEN:
                reason = memo[token.surface] = classify_token(token, False, cfg)
        else:
            initial_seen = True
            reason = initial_memo.get(token.surface, _UNSEEN)
            if reason is _UNSEEN:
                reason = initial_memo[token.surface] = classify_token(token, True, cfg)
        if reason is None:
            kept.append(token)
        else:
            excluded.append((token, reason))
    return report


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
        self.kept += len(report.kept)
        for token, reason in report.excluded:
            self.excluded[reason][token.normalized] += 1

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
