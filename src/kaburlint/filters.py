"""Exclusion filters that drop inappropriate tokens before extraction.

Each token gets at most one exclusion reason, tested in a fixed order:
symbol, number, reduplication, short_form, proper_noun, loanword. The
outcome for a token depends only on the token itself, its sentence-initial
flag and the configuration, so filtering is order-independent and
re-filtering the kept tokens excludes nothing further.

Both token-level and type-level elimination counts are reported, since an
aggregate like "N words eliminated" is ambiguous between the two.
"""

from __future__ import annotations

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
    """Wordlists plus per-reason and per-clause toggles."""

    english_words: frozenset[str] = frozenset()
    malay_words: frozenset[str] | None = None
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS
    exclude_symbols: bool = True
    exclude_numbers: bool = True
    exclude_reduplication: bool = True
    exclude_short_forms: bool = True
    exclude_proper_nouns: bool = True
    exclude_loanwords: bool = True
    short_form_wordlist: bool = True
    short_form_no_vowel: bool = True
    short_form_trailing_dot: bool = True


def is_short_form(
    token: Token,
    abbrev_list: frozenset[str] | set[str],
    *,
    use_list: bool = True,
    no_vowel: bool = True,
    trailing_dot: bool = True,
) -> bool:
    """Abbreviation-like tokens: listed, vowel-less and short, or dotted."""
    normalized = token.normalized
    if use_list and normalized in abbrev_list:
        return True
    if no_vowel and len(normalized) <= 4 and not (_VOWELS & set(normalized)):
        return True
    if trailing_dot and token.surface.endswith("."):
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
        return SYMBOL_REASON if cfg.exclude_symbols else None
    if token.kind == NUMBER:
        return NUMBER_REASON if cfg.exclude_numbers else None
    if cfg.exclude_reduplication and detect_reduplication(token):
        return REDUPLICATION
    if cfg.exclude_short_forms and is_short_form(
        token,
        cfg.abbreviations,
        use_list=cfg.short_form_wordlist,
        no_vowel=cfg.short_form_no_vowel,
        trailing_dot=cfg.short_form_trailing_dot,
    ):
        return SHORT_FORM
    if cfg.exclude_proper_nouns and is_proper_noun(
        token, sentence_initial, cfg.malay_words
    ):
        return PROPER_NOUN
    if cfg.exclude_loanwords and is_loanword(
        token, cfg.english_words, cfg.malay_words
    ):
        return LOANWORD
    return None


@dataclass
class FilterReport:
    """Partition of the input tokens into kept and excluded-with-reason."""

    kept: list[Token] = field(default_factory=list)
    excluded: list[tuple[Token, str]] = field(default_factory=list)

    @property
    def token_counts(self) -> dict[str, int]:
        counts = {reason: 0 for reason in REASON_ORDER}
        for _, reason in self.excluded:
            counts[reason] += 1
        return counts

    @property
    def type_counts(self) -> dict[str, int]:
        types: dict[str, set[str]] = {reason: set() for reason in REASON_ORDER}
        for token, reason in self.excluded:
            types[reason].add(token.normalized)
        return {reason: len(words) for reason, words in types.items()}

    @property
    def total(self) -> int:
        return len(self.kept) + len(self.excluded)

    def extend(self, other: "FilterReport") -> None:
        self.kept.extend(other.kept)
        self.excluded.extend(other.excluded)


def default_sentence_initial(tokens: Sequence[Token]) -> list[bool]:
    """Mark the first word-kind token of a sentence's token list."""
    flags = [False] * len(tokens)
    for i, token in enumerate(tokens):
        if token.kind == WORD:
            flags[i] = True
            break
    return flags


def apply_filters(
    tokens: Sequence[Token],
    cfg: FilterConfig,
    sentence_initial: Sequence[bool] | None = None,
) -> FilterReport:
    """Partition tokens into kept and excluded.

    When sentence_initial flags are not supplied, the token list is treated
    as one sentence and its first word token is flagged.
    """
    if sentence_initial is None:
        sentence_initial = default_sentence_initial(tokens)
    if len(sentence_initial) != len(tokens):
        raise ValueError("sentence_initial flags must parallel the token list")
    report = FilterReport()
    for token, flag in zip(tokens, sentence_initial):
        reason = classify_token(token, flag, cfg)
        if reason is None:
            report.kept.append(token)
        else:
            report.excluded.append((token, reason))
    return report
