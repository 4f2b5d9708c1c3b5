"""Exclusion-filter predicate, precedence and partition tests."""

from __future__ import annotations

import random

import pytest

import lint_oracle
import textcore_oracle
from conftest import all_tokens, random_sentence_text, token_list
from kaburlint.filters import (
    FilterConfig,
    FilterCounts,
    LOANWORD,
    NUMBER_REASON,
    PROPER_NOUN,
    REDUPLICATION,
    SHORT_FORM,
    SYMBOL_REASON,
    apply_filters,
    is_loanword,
    is_proper_noun,
    is_short_form,
    load_wordlist,
)

MALAY = frozenset(
    w.casefold()
    for w in (
        "papar sistem mesti rekod pelajar maklumat senarai guna dalam dengan "
        "untuk yang dan data laporan masa pengguna boleh simpan padam baru "
        "lama nombor alam pantas jika"
    ).split()
)
ENGLISH = frozenset("database server backup login data".split())
ABBREVS = frozenset({"dll.", "dsb.", "spt.", "tel."})

CFG = FilterConfig(english_words=ENGLISH, malay_words=MALAY, abbreviations=ABBREVS)


def one_word(text: str, surface: str | None = None) -> str:
    """The one word surface of text (or the one equal to surface), as tokenized."""
    words = [
        s for s in all_tokens(text, ABBREVS).surfaces
        if textcore_oracle.token_kind(s) == textcore_oracle.WORD
    ]
    if surface is not None:
        words = [s for s in words if s == surface]
    (word,) = words
    return word


class TestShortForm:
    def test_listed_abbreviation(self):
        assert is_short_form(one_word("guna dll. sini", "dll."), ABBREVS) is True

    def test_vowelless_heuristic(self):
        assert is_short_form(one_word("pljr"), ABBREVS) is True

    def test_alam_is_not_a_short_form(self):
        assert is_short_form(one_word("alam"), ABBREVS) is False

    def test_trailing_dot(self):
        # "tel." is in the abbreviation list so the tokenizer keeps the dot
        assert is_short_form(one_word("hubungi tel. kami", "tel."), frozenset()) is True


class TestProperNoun:
    def test_capitalized_mid_sentence(self):
        assert is_proper_noun(one_word("Selangor"), False, MALAY) is True

    def test_lowercase_word(self):
        assert is_proper_noun(one_word("sistem"), False, MALAY) is False

    def test_sentence_initial_known_word(self):
        assert is_proper_noun(one_word("Papar"), True, MALAY) is False

    def test_sentence_initial_unknown_word(self):
        assert is_proper_noun(one_word("Zamrud"), True, MALAY) is True

    def test_sentence_initial_without_wordlist(self):
        assert is_proper_noun(one_word("Zamrud"), True, None) is False


class TestLoanword:
    def test_listed_english_word(self):
        assert is_loanword(one_word("database"), ENGLISH, MALAY) is True

    def test_unlisted_word(self):
        assert is_loanword(one_word("sistem"), ENGLISH, MALAY) is False

    def test_malay_membership_wins(self):
        assert is_loanword(one_word("data"), ENGLISH, MALAY) is False

    def test_without_malay_wordlist(self):
        assert is_loanword(one_word("data"), ENGLISH, None) is True


def excluded(text: str, cfg: FilterConfig = CFG) -> list[tuple[str, str]]:
    """(surface, reason) of each excluded position of text read as one sentence."""
    tokens = all_tokens(text, ABBREVS)
    report = apply_filters(tokens, cfg)
    return [(tokens.surfaces[k], report.reasons[k]) for k in report.excluded]


def kept(text: str, cfg: FilterConfig = CFG) -> list[str]:
    """The surface of each kept position of text read as one sentence."""
    tokens = all_tokens(text, ABBREVS)
    return [tokens.surfaces[k] for k in apply_filters(tokens, cfg).kept]


class TestApplyFilters:
    def test_spec_examples(self):
        assert excluded("rekod-rekod") == [("rekod-rekod", REDUPLICATION)]
        assert [r for _, r in excluded("sistem .")] == [SYMBOL_REASON]
        assert kept("pantas") == ["pantas"]

    def test_precedence_reduplication_before_short_form(self):
        # "x-x" is both a reduplication and vowel-less; first reason wins
        assert dict(excluded("ada x-x sini"))["x-x"] == REDUPLICATION

    def test_number_reason(self):
        assert excluded("tunggu 30 hari") == [("30", NUMBER_REASON)]

    def test_counts_token_vs_type(self):
        counts = FilterCounts()
        counts.add(apply_filters(all_tokens("guna database dan database"), CFG))
        counts.add(apply_filters(all_tokens("Server dan server"), CFG))
        assert counts.kept == 3
        assert counts.token_counts[LOANWORD] == 3
        assert counts.type_counts[LOANWORD] == 2
        # "Server" opens its sentence unknown to MALAY: a proper noun there
        assert counts.type_counts[PROPER_NOUN] == 1
        assert counts.excluded_types == 2

    def test_partition_and_idempotence_on_random_sentences(self):
        rng = random.Random(404)
        for _ in range(300):
            tokens = all_tokens(random_sentence_text(rng), ABBREVS)
            report = apply_filters(tokens, CFG)
            assert sorted(report.kept + report.excluded) == list(range(len(tokens)))
            assert [report.reasons[k] for k in report.excluded] == [r for r in report.reasons if r]
            assert all(report.reasons[k] is None for k in report.kept)
            # no kept surface ends in '.', so the kept words re-read as themselves
            surfaces = [tokens.surfaces[k] for k in report.kept]
            assert excluded(" ".join(surfaces)) == []
            assert kept(" ".join(surfaces)) == surfaces

    def test_outcome_is_per_token(self):
        rng = random.Random(405)
        for _ in range(100):
            tokens = all_tokens(random_sentence_text(rng), ABBREVS)
            listed = token_list(tokens)
            initial = next((t for t in listed if t.kind == textcore_oracle.WORD), None)
            expected = [lint_oracle.classify_token(t, t is initial, CFG) for t in listed]
            assert apply_filters(tokens, CFG).reasons == expected

    @pytest.mark.parametrize("cfg", [CFG, FilterConfig(english_words=ENGLISH)])
    def test_symbol_and_number_reasons_are_the_kinds(self, cfg):
        # apply_filters finds the first word as the first token whose
        # reason is neither symbol nor number
        rng = random.Random(406)
        surfaces = set()
        for _ in range(300):
            surfaces.update(all_tokens(random_sentence_text(rng), ABBREVS).surfaces)
        table = cfg.surface_table()
        for surface in sorted(surfaces):
            kind = textcore_oracle.token_kind(surface)
            for reason in (table[surface], table.initial(surface)):
                assert (reason == SYMBOL_REASON) == (kind == textcore_oracle.SYMBOL), surface
                assert (reason == NUMBER_REASON) == (kind == textcore_oracle.NUMBER), surface

    @pytest.mark.parametrize("lead", ["«", "3", "« 3 ,"])
    def test_first_word_after_leading_symbols_and_numbers(self, lead):
        text = f"{lead} Zamrud simpan Zamrud"
        report = apply_filters(all_tokens(text, ABBREVS), CFG)
        # unknown to the Malay wordlist, so a proper noun even as the first word
        assert report.reasons[-3:] == [PROPER_NOUN, None, PROPER_NOUN]
        no_malay = FilterConfig(english_words=ENGLISH)
        report = apply_filters(all_tokens(text, ABBREVS), no_malay)
        assert report.reasons[-3:] == [None, None, PROPER_NOUN]
        assert kept(text, no_malay) == ["Zamrud", "simpan"]


class TestWordlistLoading:
    def test_comments_blanks_and_casefold(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# comment\n\nAlam\npantas\n", encoding="utf-8")
        assert load_wordlist(path) == frozenset({"alam", "pantas"})
