"""Lexicon model, persistence round-trips and longest-match tests."""

from __future__ import annotations

import random

import pytest

from conftest import all_tokens, mk_doc, random_lexicon
from kaburlint.errors import LexiconError, WordlistError
from kaburlint.lexicon import (
    AttributeTag,
    Lexicon,
    LexiconEntry,
    dumps_lexicon,
    load_lexicon,
    load_pos_dictionary,
    match_entries,
    normalize_phrase,
    save_lexicon,
)
from kaburlint.textcore import slice_span


def entry(phrase, tags=("VAR",), status="verified", **kwargs):
    return LexiconEntry(
        phrase=normalize_phrase(phrase),
        tags=frozenset(AttributeTag.parse(t) for t in tags),
        status=status,
        **kwargs,
    )


class TestAttributeTag:
    def test_parse_plain_and_sub(self):
        assert str(AttributeTag.parse("T")) == "T"
        assert str(AttributeTag.parse("IMP.general")) == "IMP.general"
        assert str(AttributeTag.parse("CON.preposition")) == "CON.preposition"

    def test_rejects_unknown_attribute(self):
        with pytest.raises(LexiconError):
            AttributeTag.parse("XYZ")

    def test_rejects_unknown_sub(self):
        with pytest.raises(LexiconError):
            AttributeTag.parse("IMP.nope")

    def test_rejects_sub_on_subless_attribute(self):
        with pytest.raises(LexiconError):
            AttributeTag.parse("T.general")

    def test_rejects_trailing_dot(self):
        with pytest.raises(LexiconError):
            AttributeTag.parse("IMP.")


class TestEntryValidation:
    def test_tags_required_unless_rejected(self):
        with pytest.raises(LexiconError):
            LexiconEntry(phrase=("kata",), status="candidate").validate()
        LexiconEntry(phrase=("kata",), status="rejected").validate()

    def test_phrase_must_be_casefolded_without_whitespace(self):
        tags = frozenset({AttributeTag("VAR")})
        with pytest.raises(LexiconError):
            LexiconEntry(phrase=("Kata",), tags=tags).validate()
        with pytest.raises(LexiconError):
            LexiconEntry(phrase=("ka ta",), tags=tags).validate()

    def test_unknown_pos_and_source_and_status(self):
        with pytest.raises(LexiconError):
            entry("kata", pos_classes=frozenset({"verb"})).validate()
        with pytest.raises(LexiconError):
            entry("kata", source="elsewhere").validate()
        with pytest.raises(LexiconError):
            entry("kata", status="maybe").validate()


class TestLoadSave:
    def test_seed_example(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text(
            '{"phrase": ["efisien"], "tags": ["IMP"], "status": "verified", '
            '"source": "paper_seed"}\n',
            encoding="utf-8",
        )
        lexicon = load_lexicon(path)
        found = lexicon.get(("efisien",))
        assert found is not None
        assert found.tags == frozenset({AttributeTag("IMP")})

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_lexicon(path)) == 0

    def test_duplicate_phrase_is_an_error_with_line(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        record = '{"phrase": ["segera"], "tags": ["IMP"], "status": "verified"}\n'
        path.write_text(record + record, encoding="utf-8")
        with pytest.raises(LexiconError, match=r"lex\.jsonl:2.*segera"):
            load_lexicon(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"phrase": ["ok"], "tags": ["T"], "status": "verified"}\n{oops\n', encoding="utf-8")
        with pytest.raises(LexiconError, match=r"lex\.jsonl:2"):
            load_lexicon(path)

    def test_unknown_tag_pos_and_field_errors(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"phrase": ["x"], "tags": ["ZZZ"], "status": "verified"}\n', encoding="utf-8")
        with pytest.raises(LexiconError, match="ZZZ"):
            load_lexicon(path)
        path.write_text('{"phrase": ["x"], "pos": ["noun"], "tags": ["T"], "status": "verified"}\n', encoding="utf-8")
        with pytest.raises(LexiconError, match="noun"):
            load_lexicon(path)
        path.write_text('{"phrase": ["x"], "tags": ["T"], "status": "verified", "extra": 1}\n', encoding="utf-8")
        with pytest.raises(LexiconError, match="extra"):
            load_lexicon(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LexiconError):
            load_lexicon(tmp_path / "absent.jsonl")

    def test_round_trip_identity_and_byte_stability(self, tmp_path):
        rng = random.Random(11)
        for trial in range(25):
            lexicon = random_lexicon(rng)
            path = tmp_path / f"lex{trial}.jsonl"
            save_lexicon(lexicon, path)
            first = path.read_bytes()
            loaded = load_lexicon(path)
            assert loaded.entries() == lexicon.entries()
            save_lexicon(loaded, path)
            assert path.read_bytes() == first

    def test_round_trip_preserves_all_statuses(self, tmp_path):
        lexicon = Lexicon(
            [
                entry("satu", status="candidate", tags=("IMP",)),
                entry("dua", status="verified", tags=("CON.verb",)),
                entry("tiga", status="rejected", tags=()),
            ]
        )
        path = tmp_path / "lex.jsonl"
        save_lexicon(lexicon, path)
        loaded = load_lexicon(path)
        assert [e.status for e in loaded.entries()] == [
            "verified",
            "candidate",
            "rejected",
        ]  # sorted by phrase: dua, satu, tiga

    def test_output_sorted_by_phrase(self):
        lexicon = Lexicon([entry("zebra"), entry("alpha"), entry("data itu")])
        dumped = dumps_lexicon(lexicon)
        lines = dumped.splitlines()
        assert '"alpha"' in lines[0]
        assert '"data", "itu"' in lines[1]
        assert '"zebra"' in lines[2]


def reference_longest_match(phrases: set[tuple[str, ...]], words: list[str]):
    """Independent greedy matcher over plain word lists."""
    matches = []
    i = 0
    while i < len(words):
        hit = None
        for length in range(len(words) - i, 0, -1):
            if tuple(words[i : i + length]) in phrases:
                hit = length
                break
        if hit is None:
            i += 1
        else:
            matches.append((i, hit, tuple(words[i : i + hit])))
            i += hit
    return matches


class TestMatchEntries:
    def test_multiword_match_covers_both_tokens(self):
        lexicon = Lexicon([entry("secepat mungkin", tags=("IMP",))])
        doc = mk_doc("secepat mungkin")
        tokens = all_tokens(doc.text)
        matches = match_entries(lexicon, tokens)
        assert len(matches) == 1
        span, matched = matches[0]
        assert matched.phrase == ("secepat", "mungkin")
        assert slice_span(doc, span) == "secepat mungkin"

    def test_longest_match_wins(self):
        lexicon = Lexicon([entry("data itu"), entry("data")])
        matches = match_entries(lexicon, all_tokens("guna data itu"))
        assert [m.phrase for _, m in matches] == [("data", "itu")]

    def test_empty_lexicon(self):
        assert match_entries(Lexicon(), all_tokens("apa sahaja")) == []

    @pytest.mark.parametrize("status", ["candidate", "rejected"])
    def test_only_verified_entries_match(self, status):
        tokens = all_tokens("dengan segera")
        lexicon = Lexicon([entry("segera", status=status, tags=("IMP",))])
        assert match_entries(lexicon, tokens) == []
        verified = Lexicon([entry("segera", status="verified", tags=("IMP",))])
        assert len(match_entries(verified, tokens)) == 1

    def test_symbols_break_multiword_adjacency(self):
        lexicon = Lexicon([entry("data itu")])
        assert match_entries(lexicon, all_tokens("data, itu")) == []

    def test_matches_against_reference_on_random_inputs(self):
        rng = random.Random(21)
        vocabulary = ["a", "b", "c", "d", "e"]
        for _ in range(300):
            phrases = set()
            for _ in range(rng.randint(1, 8)):
                phrases.add(
                    tuple(
                        rng.choice(vocabulary)
                        for _ in range(rng.randint(1, 3))
                    )
                )
            lexicon = Lexicon(
                entry(" ".join(p), tags=("VAR",)) for p in sorted(phrases)
            )
            words = [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]
            tokens = all_tokens(" ".join(words))
            got = [
                (
                    next(
                        i for i, t in enumerate(tokens) if t.span.start == span.start
                    ),
                    len(m.phrase),
                    m.phrase,
                )
                for span, m in match_entries(lexicon, tokens)
            ]
            assert got == reference_longest_match(phrases, words)

    def test_superset_never_shortens_a_match(self):
        rng = random.Random(22)
        vocabulary = ["a", "b", "c"]
        for _ in range(200):
            base = {
                tuple(rng.choice(vocabulary) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 5))
            }
            extra = {
                tuple(rng.choice(vocabulary) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 3))
            }
            words = [rng.choice(vocabulary) for _ in range(10)]
            small = {m[0]: m[1] for m in reference_longest_match(base, words)}
            big = {m[0]: m[1] for m in reference_longest_match(base | extra, words)}
            for start, length in small.items():
                if start in big:
                    assert big[start] >= length


class TestPosDictionary:
    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text(
            "# comment\npapar\tadj,kk\nalam\tkk\t2\n", encoding="utf-8"
        )
        posdict = load_pos_dictionary(path)
        assert posdict.pos_classes("Papar") == frozenset({"adj", "kk"})
        assert posdict.pos_classes("alam") == frozenset({"kk"})
        assert posdict.sense_count("alam") == 2
        assert posdict.sense_count("papar") is None
        assert posdict.pos_classes("tiada") == frozenset()

    def test_bad_rows(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text("papar\n", encoding="utf-8")
        with pytest.raises(WordlistError, match="pos.tsv:1"):
            load_pos_dictionary(path)
        path.write_text("papar\tnoun\n", encoding="utf-8")
        with pytest.raises(WordlistError, match="noun"):
            load_pos_dictionary(path)
        path.write_text("papar\tkk\tbanyak\n", encoding="utf-8")
        with pytest.raises(WordlistError, match="banyak"):
            load_pos_dictionary(path)
        path.write_text("papar\tkk\npapar\tadj\n", encoding="utf-8")
        with pytest.raises(WordlistError, match="duplicate"):
            load_pos_dictionary(path)
