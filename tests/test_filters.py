"""Exclusion-filter predicate, precedence and partition tests."""

from __future__ import annotations

import random

from conftest import all_tokens, random_sentence_text
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
    classify_token,
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


def one_word(text: str, surface: str | None = None):
    words = [t for t in all_tokens(text, ABBREVS) if t.kind == "word"]
    if surface is not None:
        words = [t for t in words if t.surface == surface]
    (token,) = words
    return token


class TestShortForm:
    def test_listed_abbreviation(self):
        assert is_short_form(one_word("guna dll. sini", "dll."), ABBREVS) is True

    def test_vowelless_heuristic(self):
        assert is_short_form(one_word("pljr"), ABBREVS) is True

    def test_alam_is_not_a_short_form(self):
        assert is_short_form(one_word("alam"), ABBREVS) is False

    def test_trailing_dot(self):
        # "tel." is in the abbreviation list so the tokenizer keeps the dot
        token = one_word("hubungi tel. kami", "tel.")
        assert token.surface == "tel."
        assert is_short_form(token, frozenset()) is True


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


class TestApplyFilters:
    def test_spec_examples(self):
        report = apply_filters(all_tokens("rekod-rekod"), CFG)
        assert [(t.surface, r) for t, r in report.excluded] == [
            ("rekod-rekod", REDUPLICATION)
        ]
        report = apply_filters(all_tokens("sistem ."), CFG)
        assert [r for _, r in report.excluded] == [SYMBOL_REASON]
        report = apply_filters(all_tokens("pantas"), CFG)
        assert [t.surface for t in report.kept] == ["pantas"]

    def test_precedence_reduplication_before_short_form(self):
        # "x-x" is both a reduplication and vowel-less; first reason wins
        report = apply_filters(all_tokens("ada x-x sini"), CFG)
        reasons = dict((t.surface, r) for t, r in report.excluded)
        assert reasons["x-x"] == REDUPLICATION

    def test_number_reason(self):
        report = apply_filters(all_tokens("tunggu 30 hari"), CFG)
        assert [(t.surface, r) for t, r in report.excluded] == [("30", NUMBER_REASON)]

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
            assert len(report.kept) + len(report.excluded) == len(tokens)
            again = apply_filters(report.kept, CFG)
            assert again.excluded == []
            assert again.kept == report.kept

    def test_outcome_is_per_token(self):
        rng = random.Random(405)
        for _ in range(100):
            tokens = all_tokens(random_sentence_text(rng), ABBREVS)
            report = apply_filters(tokens, CFG)
            flags = [False] * len(tokens)
            for i, token in enumerate(tokens):
                if token.kind == "word":
                    flags[i] = True
                    break
            expected = [classify_token(t, f, CFG) for t, f in zip(tokens, flags)]
            got = []
            kept_iter = iter(report.kept)
            as_map = {id(t): r for t, r in report.excluded}
            for token in tokens:
                got.append(as_map.get(id(token)))
            assert got == expected


class TestWordlistLoading:
    def test_comments_blanks_and_casefold(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# comment\n\nAlam\npantas\n", encoding="utf-8")
        assert load_wordlist(path) == frozenset({"alam", "pantas"})
