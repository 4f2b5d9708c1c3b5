"""Attribute statistics, rounding rule and table rendering tests."""

from __future__ import annotations

import random
from decimal import ROUND_HALF_UP, Decimal

import pytest

from kaburlint.errors import StatsError
from kaburlint.lexicon import AttributeTag, LexiconEntry
from kaburlint.seeds import synthetic_reference_entries
from kaburlint.stats import (
    compute_attribute_stats,
    format_percentage,
    percentage_tenths,
    render_table,
)

REFERENCE_COUNTS = {"IMP": 51, "CON": 41, "T": 11, "REF": 27, "VAR": 22, "WN": 21}
REFERENCE_PERCENTAGES = {
    "IMP": "42.5",
    "CON": "34.2",
    "T": "9.2",
    "REF": "22.5",
    "VAR": "18.3",
    "WN": "17.5",
}


def entry(name, attrs, status="verified"):
    return LexiconEntry(
        phrase=(name,),
        tags=frozenset(AttributeTag(a) for a in attrs),
        status=status,
    )


def decimal_oracle(count: int, total: int) -> str:
    """Independent round-half-up percentage with one decimal."""
    value = (Decimal(count) * 100 / Decimal(total)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP
    )
    return str(value)


class TestRounding:
    def test_reference_ratios_match_published_row(self):
        total = 120
        for attribute, count in REFERENCE_COUNTS.items():
            assert format_percentage(count, total) == REFERENCE_PERCENTAGES[attribute]

    def test_half_up_not_truncation(self):
        # 34.1666... and 9.1666... truncate to 34.1 / 9.1 but must round up
        assert percentage_tenths(41, 120) == 342
        assert percentage_tenths(11, 120) == 92
        assert percentage_tenths(22, 120) == 183
        assert (41 * 1000) // 120 == 341  # what truncation would give
        assert (11 * 1000) // 120 == 91

    def test_exact_halves_round_up(self):
        # 1/16 of 100% = 6.25% sits exactly on a tenth boundary
        assert format_percentage(1, 16) == "6.3"
        assert format_percentage(1, 8) == "12.5"

    def test_matches_decimal_oracle_on_random_ratios(self):
        rng = random.Random(31)
        for _ in range(2000):
            total = rng.randint(1, 999)
            count = rng.randint(0, total)
            assert format_percentage(count, total) == decimal_oracle(count, total)

    def test_full_range(self):
        assert format_percentage(0, 7) == "0.0"
        assert format_percentage(7, 7) == "100.0"


class TestComputeStats:
    def test_reference_lexicon(self):
        stats = compute_attribute_stats(synthetic_reference_entries(), "verified")
        assert stats.counts.total_words == 120
        assert stats.counts.counts == REFERENCE_COUNTS
        assert stats.percentages == REFERENCE_PERCENTAGES

    def test_singleton(self):
        stats = compute_attribute_stats([entry("satu", {"IMP"})])
        assert stats.percentages["IMP"] == "100.0"
        assert all(
            stats.percentages[a] == "0.0" for a in ("CON", "T", "REF", "VAR", "WN")
        )

    def test_multi_label_counts_once_per_attribute(self):
        stats = compute_attribute_stats([entry("satu", {"IMP", "CON"})])
        assert stats.counts.total_words == 1
        assert stats.counts.counts["IMP"] == 1
        assert stats.counts.counts["CON"] == 1
        assert sum(stats.counts.counts.values()) == 2

    def test_sub_attributes_collapse_to_top_level(self):
        both_subs = LexiconEntry(
            phrase=("dua",),
            tags=frozenset(
                {AttributeTag("IMP", "general"), AttributeTag("IMP", "boundary")}
            ),
            status="verified",
        )
        stats = compute_attribute_stats([both_subs])
        assert stats.counts.counts["IMP"] == 1

    def test_scope_filters_statuses(self):
        entries = [
            entry("a", {"IMP"}, status="verified"),
            entry("b", {"CON"}, status="candidate"),
            entry("c", {"T"}, status="rejected"),
        ]
        verified = compute_attribute_stats(entries, "verified")
        assert verified.counts.total_words == 1
        both = compute_attribute_stats(entries, "candidates")
        assert both.counts.total_words == 2
        assert both.counts.counts["T"] == 0  # rejected never counts

    def test_empty_scope_is_an_error(self):
        with pytest.raises(StatsError, match="^no entries in scope 'verified'$"):
            compute_attribute_stats([entry("a", {"IMP"}, status="rejected")])
        with pytest.raises(StatsError, match="^unknown scope 'verified_only'$"):
            compute_attribute_stats([entry("a", {"IMP"})], "verified_only")

    def test_permutation_invariance(self):
        rng = random.Random(17)
        entries = synthetic_reference_entries()
        baseline = compute_attribute_stats(entries)
        for _ in range(10):
            shuffled = entries[:]
            rng.shuffle(shuffled)
            assert compute_attribute_stats(shuffled) == baseline

    def test_adding_an_entry_bumps_exactly_its_attributes(self):
        entries = [entry("a", {"IMP"}), entry("b", {"CON", "WN"})]
        before = compute_attribute_stats(entries)
        after = compute_attribute_stats(entries + [entry("c", {"T", "VAR"})])
        assert after.counts.total_words == before.counts.total_words + 1
        for attribute in ("T", "VAR"):
            assert after.counts.counts[attribute] == before.counts.counts[attribute] + 1
        for attribute in ("IMP", "CON", "WN"):
            assert after.counts.counts[attribute] == before.counts.counts[attribute]


class TestRenderTable:
    def test_text_golden(self):
        stats = compute_attribute_stats(synthetic_reference_entries())
        assert render_table(stats, "text") == (
            "     IMP   CON   T    REF   VAR   WN\n"
            "Tot  51    41    11   27    22    21\n"
            "%    42.5  34.2  9.2  22.5  18.3  17.5\n"
            "n = 120\n"
        )

    def test_text_percentage_row_values(self):
        stats = compute_attribute_stats(synthetic_reference_entries())
        rows = render_table(stats, "text").splitlines()
        assert rows[2].split()[1:] == ["42.5", "34.2", "9.2", "22.5", "18.3", "17.5"]

    def test_singleton_text(self):
        stats = compute_attribute_stats([entry("satu", {"IMP"})])
        rows = render_table(stats, "text").splitlines()
        assert rows[2].split()[1:] == ["100.0", "0.0", "0.0", "0.0", "0.0", "0.0"]

    def test_csv_golden(self):
        stats = compute_attribute_stats(synthetic_reference_entries())
        assert render_table(stats, "csv") == (
            "attribute,count,percentage\n"
            "IMP,51,42.5\n"
            "CON,41,34.2\n"
            "T,11,9.2\n"
            "REF,27,22.5\n"
            "VAR,22,18.3\n"
            "WN,21,17.5\n"
        )

    def test_byte_stable(self):
        stats = compute_attribute_stats(synthetic_reference_entries())
        assert render_table(stats, "text") == render_table(stats, "text")
