"""Lexicon model, persistence round-trips and longest-match tests."""

from __future__ import annotations

import os
import random
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lint_oracle
from conftest import all_tokens, byte_slice, mk_doc, random_lexicon
from kaburlint import fileio
from kaburlint.errors import LexiconError, WordlistError
from kaburlint.lexicon import (
    ATTRIBUTES,
    POS_LABELS,
    SOURCES,
    STATUS_REJECTED,
    STATUSES,
    SUB_ATTRIBUTES,
    AttributeTag,
    Lexicon,
    LexiconEntry,
    PhraseIndex,
    dumps_lexicon,
    entry_to_record,
    load_lexicon,
    load_pos_dictionary,
    longest_matches,
    match_entries,
    normalize_phrase,
    save_lexicon,
    tag_texts,
)


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

    @pytest.mark.parametrize("text, message", [
        ("X", "unknown attribute 'X'"),
        ("IMP.nope", "unknown sub-attribute 'nope' for IMP"),
        ("IMP.", "malformed tag 'IMP.'"),
    ])
    def test_invalid_text_keeps_its_error(self, text, message):
        with pytest.raises(LexiconError) as caught:
            AttributeTag.parse(text)
        assert str(caught.value) == message

    def test_parse_and_tag_texts_cover_every_valid_tag(self):
        tags = [
            AttributeTag(attribute, sub)
            for attribute in ATTRIBUTES
            for sub in (None, *SUB_ATTRIBUTES[attribute])
        ]
        assert len(tags) == 15
        for tag in tags:
            assert AttributeTag.parse(str(tag)) == tag
        # ATTRIBUTES order, each attribute before its sub-attributes by name
        expected = sorted(tags, key=lambda t: (ATTRIBUTES.index(t.attribute), t.sub or ""))
        assert tag_texts(frozenset(tags)) == [str(t) for t in expected]
        assert tag_texts(frozenset({AttributeTag("WN"), AttributeTag("CON", "adverb"),
                                    AttributeTag("CON")})) == ["CON", "CON.adverb", "WN"]


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

    def test_save_fsyncs_the_file_before_the_rename_and_the_directory_after(
        self, tmp_path, monkeypatch
    ):
        events = []
        fsync, rename = fileio.os.fsync, fileio.os.replace

        def logged_fsync(fd):
            events.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
            fsync(fd)

        def logged_replace(src, dst):
            events.append(("replace", None))
            rename(src, dst)

        monkeypatch.setattr(fileio.os, "fsync", logged_fsync)
        monkeypatch.setattr(fileio.os, "replace", logged_replace)
        save_lexicon(Lexicon([entry("satu")]), tmp_path / "lex.jsonl")
        assert events == [("fsync", False), ("replace", None), ("fsync", True)]
        assert load_lexicon(tmp_path / "lex.jsonl").get(("satu",)) is not None

    def test_output_sorted_by_phrase(self):
        lexicon = Lexicon([entry("zebra"), entry("alpha"), entry("data itu")])
        dumped = dumps_lexicon(lexicon)
        lines = dumped.splitlines()
        assert '"alpha"' in lines[0]
        assert '"data", "itu"' in lines[1]
        assert '"zebra"' in lines[2]

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_a_note_with_a_line_break_other_than_newline_round_trips(self, tmp_path, char):
        lexicon = Lexicon([entry("satu", note=f"baris{char}kedua"), entry("dua", note=char)])
        path = tmp_path / "lex.jsonl"
        save_lexicon(lexicon, path)
        text = path.read_text(encoding="utf-8")
        assert text.count(char) == 2 and text.count("\n") == 2
        loaded = load_lexicon(path)
        assert loaded.entries() == lexicon.entries()
        assert dumps_lexicon(loaded) == text


def dumps_record_by_record(lexicon: Lexicon) -> str:
    """The reference encoding: each entry's whole record, on its own."""
    return fileio.dumps_jsonl(map(entry_to_record, lexicon.entries()))


SAVE_TOKENS = ["segera", "papar", "é", "ŵ", "sé-sé", 'x"]', "a\\b"]
SAVE_TAGS = sorted(str(AttributeTag(a, s)) for a in ATTRIBUTES for s in [None, *SUB_ATTRIBUTES[a]])
# notes hold what the encoder escapes ('"', '\\') or writes as it is (U+2028, U+0085, non-ASCII)
SAVE_NOTES = st.text(st.sampled_from(["a", " ", '"', "\\", "\u2028", "\x85", "é", "😀"]), max_size=6)


@st.composite
def tails(draw) -> dict:
    """The fields of an entry but its phrase; a few of them make a lexicon, so tails repeat."""
    status = draw(st.sampled_from(STATUSES))
    tags = draw(st.lists(st.sampled_from(SAVE_TAGS), unique=True,
                         min_size=0 if status == STATUS_REJECTED else 1, max_size=3))
    return dict(
        pos_classes=frozenset(draw(st.lists(st.sampled_from(sorted(POS_LABELS)), max_size=3))),
        sense_count=draw(st.none() | st.integers(0, 12)),
        tags=frozenset(map(AttributeTag.parse, tags)),
        status=status,
        note=draw(st.none() | SAVE_NOTES),
        source=draw(st.sampled_from(SOURCES)),
    )


@st.composite
def lexicons(draw) -> Lexicon:
    shared = draw(st.lists(tails(), min_size=1, max_size=3))
    phrases = draw(st.lists(
        st.lists(st.sampled_from(SAVE_TOKENS), min_size=1, max_size=3).map(tuple),
        unique=True, max_size=12,
    ))
    return Lexicon(LexiconEntry(phrase, **draw(st.sampled_from(shared))) for phrase in phrases)


@pytest.fixture(scope="module")
def lexicon_path():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "lexicon.jsonl"


@settings(max_examples=300, deadline=None)
@given(lexicon=lexicons())
def test_save_gives_the_record_by_record_bytes_and_reads_back_to_them(lexicon_path, lexicon):
    text = dumps_lexicon(lexicon)
    assert text == dumps_record_by_record(lexicon)
    lexicon_path.write_text(text, encoding="utf-8")
    loaded = load_lexicon(lexicon_path)
    assert loaded.entries() == lexicon.entries()
    assert dumps_lexicon(loaded).encode("utf-8") == lexicon_path.read_bytes()


def test_every_status_and_source_saves_as_record_by_record():
    lexicon = Lexicon(
        entry(f"kata{i}", tags=() if status == STATUS_REJECTED else ("T",), status=status,
              source=source, sense_count=[None, 0, 3][i % 3], note=[None, 'a "b" \\ \u2028\x85 é'][i % 2])
        for i, (status, source) in enumerate((s, o) for s in STATUSES for o in SOURCES)
    )
    assert dumps_lexicon(lexicon) == dumps_record_by_record(lexicon)


def test_a_sense_count_of_true_is_not_the_tail_of_one():
    # equal as Python values, but JSON writes true and 1
    lexicon = Lexicon([entry("dua", sense_count=1), entry("satu", sense_count=True)])
    assert dumps_lexicon(lexicon) == dumps_record_by_record(lexicon)
    assert '"senses": true' in dumps_lexicon(lexicon)


def test_a_lexicon_of_distinct_notes_saves_and_loads_past_the_memo(tmp_path):
    # more distinct tails than either memo tolerates, then tails that repeat
    lexicon = Lexicon(
        [entry(f"kata{i:04}", note=f"catatan {i}") for i in range(fileio.TAIL_MISSES + 10)]
        + [entry(f"ulang{i:02}", sense_count=[None, 1][i % 2]) for i in range(20)]
    )
    text = dumps_lexicon(lexicon)
    assert text == dumps_record_by_record(lexicon)
    path = tmp_path / "lexicon.jsonl"
    path.write_text(text, encoding="utf-8")
    assert load_lexicon(path).entries() == lexicon.entries()


class TestRecordCaches:
    def test_equal_lists_share_one_frozenset(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text(
            '{"phrase": ["satu"], "pos": ["kn", "adj"], "tags": ["T", "IMP"]}\n'
            '{"phrase": ["dua"], "pos": ["kn", "adj"], "tags": ["T", "IMP"]}\n',
            encoding="utf-8",
        )
        first, second = load_lexicon(path).entries()
        assert first.tags is second.tags
        assert first.pos_classes is second.pos_classes
        assert first.tags == {AttributeTag("IMP"), AttributeTag("T")}
        assert first.pos_classes == {"kn", "adj"}

    def test_tag_texts_returns_a_new_list_each_call(self):
        tags = frozenset({AttributeTag("T"), AttributeTag("IMP", "general")})
        first = tag_texts(tags)
        first.append("WN")
        first.reverse()
        assert tag_texts(tags) == ["IMP.general", "T"]
        assert tag_texts(tags) is not tag_texts(tags)


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


PHRASE_WORDS = st.sampled_from(["a", "b", "c", "d"])


class TestPhraseIndex:
    """The prefix-stop matcher against the loop that probes every run length."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.lists(PHRASE_WORDS, min_size=1, max_size=4).map(tuple), max_size=8),
        st.lists(PHRASE_WORDS, max_size=16),
    )
    @example([("a",), ("a", "b", "c")], ["a", "b", "d"])
    @example([("a", "b"), ("b", "c")], ["a", "b", "c"])
    def test_greedy_matches_equal_brute_force(self, phrases, words):
        table = {phrase: n for n, phrase in enumerate(phrases, 1)}  # truthy values
        limit = max(map(len, table), default=0)
        want = lint_oracle.longest_matches(words, limit, table.get)
        assert longest_matches(words, PhraseIndex(table)) == want

    def test_a_prefix_that_is_no_phrase_falls_back_to_the_longest_hit(self):
        index = PhraseIndex({("a",): "short", ("a", "b", "c"): "long"})
        assert index.prefix_words == {"a"}
        assert index.prefix_runs == {("a", "b")}
        assert index.firsts == {"a"}
        assert longest_matches(["a", "b", "d"], index) == [(0, 1, "short")]
        assert longest_matches(["a", "b", "c", "a"], index) == [
            (0, 3, "long"), (3, 4, "short"),
        ]
        assert longest_matches(["b", "c"], index) == []

    def test_verified_index_follows_add_and_replace(self):
        lexicon = Lexicon([entry("segera", status="candidate", tags=("IMP",))])
        assert len(lexicon.verified()) == 0
        lexicon.add(entry("dengan segera", tags=("T",)))
        assert set(lexicon.verified().table) == {("dengan", "segera")}
        assert lexicon.verified().prefix_words == {"dengan"}
        assert lexicon.verified().prefix_runs == frozenset()


class TestMatchEntries:
    def test_multiword_match_covers_both_tokens(self):
        lexicon = Lexicon([entry("secepat mungkin", tags=("IMP",))])
        doc = mk_doc("secepat mungkin")
        tokens = all_tokens(doc.text)
        ((start, end, matched),) = match_entries(lexicon, tokens)
        assert (start, end) == (0, 2)
        assert matched.phrase == ("secepat", "mungkin")
        ((_s, span, text, _char),) = tokens.locate([(start, end - 1)])
        assert text == byte_slice(doc.text, span) == "secepat mungkin"

    def test_longest_match_wins(self):
        lexicon = Lexicon([entry("data itu"), entry("data")])
        matches = match_entries(lexicon, all_tokens("guna data itu"))
        assert [m.phrase for _, _, m in matches] == [("data", "itu")]

    def test_empty_lexicon(self):
        assert match_entries(Lexicon(), all_tokens("apa sahaja")) == []

    @pytest.mark.parametrize("status", ["candidate", "rejected"])
    def test_only_verified_entries_match(self, status):
        tokens = all_tokens("dengan segera")
        lexicon = Lexicon([entry("segera", status=status, tags=("IMP",))])
        assert match_entries(lexicon, tokens) == []
        verified = Lexicon([entry("segera", status="verified", tags=("IMP",))])
        assert len(match_entries(verified, tokens)) == 1

    def test_replace_and_add_are_seen_by_the_next_match(self):
        tokens = all_tokens("papar dengan segera")
        lexicon = Lexicon([entry("segera", status="candidate", tags=("IMP",))])
        assert match_entries(lexicon, tokens) == []
        lexicon.replace(entry("segera", status="verified", tags=("IMP",)))
        assert [m.phrase for _, _, m in match_entries(lexicon, tokens)] == [("segera",)]
        # a longer verified phrase added later wins over the shorter one
        lexicon.add(entry("dengan segera", tags=("T",)))
        assert [m.phrase for _, _, m in match_entries(lexicon, tokens)] == [
            ("dengan", "segera")
        ]
        lexicon.replace(entry("dengan segera", status="rejected"))
        lexicon.replace(entry("segera", status="rejected"))
        assert match_entries(lexicon, tokens) == []

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
                (start, end - start, m.phrase)
                for start, end, m in match_entries(lexicon, tokens)
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
        # a probe is one token, so a word with a space could never match
        path.write_text("papar\tkk\nsecepat mungkin\tadj,kk\t3\n", encoding="utf-8")
        with pytest.raises(WordlistError, match="pos.tsv:2: .*whitespace"):
            load_pos_dictionary(path)
