"""Per-attribute counts and percentages over a lexicon or candidate set.

An entry is counted once under every top-level attribute its tags carry
(multi-label, so counts may sum to more than the number of entries).
Percentages are computed from exact integer ratios and rounded half-up to
one decimal, which keeps rendered tables byte-stable across platforms.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import StatsError
from .lexicon import ATTRIBUTES, SCOPES, LexiconEntry
from .records import FORMAT_CSV, FORMAT_TEXT, Record


class AttributeCounts(Record, frozen=True):
    __slots__ = ("counts", "total_words")
    counts: dict[str, int]
    total_words: int


class CorpusStats(Record, frozen=True):
    __slots__ = ("counts", "percentages")
    counts: AttributeCounts
    percentages: dict[str, str]  # attribute -> "42.5"


def percentage_tenths(count: int, total: int) -> int:
    """Round-half-up of count/total*100 in tenths of a percent, exactly."""
    if total <= 0:
        raise StatsError("total must be positive")
    return (2000 * count + total) // (2 * total)


def format_percentage(count: int, total: int) -> str:
    tenths = percentage_tenths(count, total)
    return f"{tenths // 10}.{tenths % 10}"


def compute_attribute_stats(
    entries: Iterable[LexiconEntry], scope: str = "verified"
) -> CorpusStats:
    """Count in-scope entries (lexicon.SCOPES) per attribute and derive percentages."""
    try:
        statuses = SCOPES[scope]
    except KeyError:
        raise StatsError(f"unknown scope {scope!r}") from None
    counts = {a: 0 for a in ATTRIBUTES}
    total = 0
    for entry in entries:
        if entry.status not in statuses:
            continue
        total += 1
        for attribute in {t.attribute for t in entry.tags}:
            counts[attribute] += 1
    if total == 0:
        raise StatsError(f"no entries in scope {scope!r}")
    percentages = {a: format_percentage(counts[a], total) for a in ATTRIBUTES}
    return CorpusStats(AttributeCounts(counts, total), percentages)


def render_table(stats: CorpusStats, fmt: str = FORMAT_TEXT) -> str:
    """Render the fixed-order attribute table as text or CSV."""
    counts = stats.counts.counts
    if fmt == FORMAT_CSV:
        lines = ["attribute,count,percentage"]
        lines += [f"{a},{counts[a]},{stats.percentages[a]}" for a in ATTRIBUTES]
        return "".join(line + "\n" for line in lines)
    if fmt != FORMAT_TEXT:
        raise StatsError(f"unknown table format {fmt!r}")
    columns = [(a, str(counts[a]), stats.percentages[a]) for a in ATTRIBUTES]
    widths = [max(len(cell) for cell in column) for column in columns]
    label_width = len("Tot")

    def row(label: str, cells: list[str]) -> str:
        padded = [cell.ljust(w) for cell, w in zip(cells, widths)]
        return (label.ljust(label_width) + "  " + "  ".join(padded)).rstrip()

    lines = [
        row("", [c[0] for c in columns]),
        row("Tot", [c[1] for c in columns]),
        row("%", [c[2] for c in columns]),
        f"n = {stats.counts.total_words}",
    ]
    return "".join(line + "\n" for line in lines)
