"""Segmentation, tokenization and span-integrity tests."""

from __future__ import annotations

import pickle
import random
import time
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textcore_oracle as oracle
from conftest import byte_slice, mk_doc, sentence_tokens, token_at, token_list
from kaburlint.filters import detect_reduplication
from kaburlint.records import DEFAULT_ABBREVIATIONS, Span
from kaburlint.textcore import (
    Document,
    SentenceList,
    line_col,
    segment_sentences,
    tokenize,
)


def sentence_texts(text: str, abbreviations=DEFAULT_ABBREVIATIONS) -> list[str]:
    doc = mk_doc(text)
    return [byte_slice(text, span) for span, _tokens in sentence_tokens(doc, abbreviations)]


def surfaces(text: str) -> list[str]:
    return [s for _span, tokens in sentence_tokens(mk_doc(text)) for s in tokens.surfaces]


class TestSegmentation:
    def test_empty_document(self):
        assert len(segment_sentences(mk_doc(""))) == 0

    def test_two_sentences(self):
        # hand segmentation: period terminates, next block starts after space
        assert sentence_texts("Sistem mesti pantas. Rekod dipapar.") == [
            "Sistem mesti pantas.",
            "Rekod dipapar.",
        ]

    def test_abbreviation_does_not_split(self):
        texts = sentence_texts("Sistem guna dll. dalam senarai.")
        assert texts == ["Sistem guna dll. dalam senarai."]

    def test_unlisted_abbreviation_splits(self):
        texts = sentence_texts("Sistem guna dll. dalam senarai.", frozenset())
        assert texts == ["Sistem guna dll.", "dalam senarai."]

    def test_question_and_exclamation(self):
        assert sentence_texts("Betul? Ya! Baik.") == ["Betul?", "Ya!", "Baik."]

    def test_newline_terminates_block(self):
        assert sentence_texts("satu dua\ntiga empat") == ["satu dua", "tiga empat"]

    def test_blank_lines_and_trailing_tail(self):
        assert sentence_texts("satu.\n\n  dua tanpa noktah") == [
            "satu.",
            "dua tanpa noktah",
        ]

    def test_decimal_period_does_not_split(self):
        assert sentence_texts("Versi 3.14 dilancar. Baik.") == [
            "Versi 3.14 dilancar.",
            "Baik.",
        ]

    def test_terminator_run_stays_in_one_sentence(self):
        assert sentence_texts("Apa?! Sudah.") == ["Apa?!", "Sudah."]

    def test_sentences_ordered_and_disjoint(self):
        doc = mk_doc("Satu. Dua! Tiga?\nEmpat")
        spans = [span for span, _tokens in sentence_tokens(doc)]
        assert len(spans) == 4
        for earlier, later in zip(spans, spans[1:]):
            assert earlier.end <= later.start


class TestTokenization:
    def test_reduplication_stays_whole(self):
        ((_span, tokens),) = sentence_tokens(mk_doc("Papar rekod-rekod pelajar."))
        assert tokens.surfaces == ["Papar", "rekod-rekod", "pelajar", "."]
        assert [t.kind for t in token_list(tokens)] == [oracle.WORD] * 3 + [oracle.SYMBOL]

    def test_all_punctuation_is_one_symbol_token(self):
        ((_span, tokens),) = sentence_tokens(mk_doc("!!!"))
        assert len(tokens) == 1
        assert token_at(tokens, 0).kind == oracle.SYMBOL
        assert token_at(tokens, 0).surface == "!!!"

    def test_multiword_stays_two_tokens(self):
        assert surfaces("secepat mungkin") == ["secepat", "mungkin"]

    def test_abbreviation_period_stays_inside_token(self):
        assert surfaces("buku dll. dalam rak.") == ["buku", "dll.", "dalam", "rak", "."]

    def test_number_with_decimal_separator(self):
        ((_span, tokens),) = sentence_tokens(mk_doc("harga 3.5 juta"))
        assert tokens.surfaces == ["harga", "3.5", "juta"]
        assert token_at(tokens, 1).kind == oracle.NUMBER

    def test_normalized_is_casefold(self):
        tokens = [t for t in in_all("PANTAS Amat") if t.kind == oracle.WORD]
        assert [t.normalized for t in tokens] == ["pantas", "amat"]

    def test_hyphen_without_letters_on_both_sides_splits(self):
        assert surfaces("rekod- rekod") == ["rekod", "-", "rekod"]
        assert surfaces("a--b") == ["a", "--", "b"]

    def test_byte_spans_with_multibyte_text(self):
        text = "kafé “ujian” résumé."
        doc = mk_doc(text)
        ((_span, tokens),) = sentence_tokens(doc)
        for token in token_list(tokens):
            assert byte_slice(text, token.span) == token.surface

    def test_line_col(self):
        doc = mk_doc("satu\nkafé dua")
        # "dua" sits on line 2 after the 4-char word and a space
        assert line_col(doc, [doc.text.index("dua")]) == [(2, 6)]


def in_all(text):
    return [t for _span, tokens in sentence_tokens(mk_doc(text)) for t in token_list(tokens)]


class TestReduplication:
    # the filter reads a surface; each case is one token to the tokenizer
    def test_examples(self):
        for surface, doubled in [("rekod-rekod", True), ("rekod", False), ("sayur-mayur", False)]:
            assert surfaces(surface) == [surface]
            assert detect_reduplication(surface) is doubled

    def test_case_folded_halves(self):
        assert surfaces("Rekod-rekod") == ["Rekod-rekod"]
        assert detect_reduplication("Rekod-rekod") is True

    def test_double_hyphen_chain_is_not_reduplication(self):
        assert surfaces("ubur-ubur-ubur") == ["ubur-ubur-ubur"]
        assert detect_reduplication("ubur-ubur-ubur") is False

    def test_digits_do_not_count(self):
        assert surfaces("12-12") == ["12-12"]
        assert detect_reduplication("12-12") is False

    def test_implies_exactly_one_hyphen_and_equal_halves(self):
        rng = random.Random(5)
        words = ["a-a", "ab-ab", "a-b", "kata-kata", "kata-katak", "x--x", "-x"]
        for _ in range(200):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
            for surface in surfaces(text):
                if detect_reduplication(surface):
                    assert surface.count("-") == 1
                    left, right = surface.casefold().split("-")
                    assert left == right and left


class TestProperties:
    def test_span_integrity_and_determinism_on_random_text(self):
        rng = random.Random(99)
        vocab = ["sistem", "kafé", "rekod-rekod", "Ali", "3.5", "dll.", "—", "“ya”"]
        for _ in range(150):
            words = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            glue = lambda: rng.choice(["  ", " ", "\n", ". ", "? "])
            text = ""
            for word in words:
                text += word + glue()
            doc = Document(id="r", text=text)
            runs = []
            for _run in range(2):
                collected = []
                for sentence, tokens in sentence_tokens(doc):
                    previous_end = sentence.start
                    for token in token_list(tokens):
                        # spans ordered, non-overlapping, inside the sentence
                        assert sentence.start <= token.span.start
                        assert token.span.end <= sentence.end
                        assert token.span.start >= previous_end
                        previous_end = token.span.end
                        assert byte_slice(text, token.span) == token.surface
                        assert token.normalized == token.surface.casefold()
                        has_alnum = any(c.isalpha() or c.isdigit() for c in token.surface)
                        assert (token.kind == oracle.SYMBOL) == (not has_alnum)
                        collected.append((token.span, token.surface, token.kind))
                runs.append(collected)
            assert runs[0] == runs[1]

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            Span(3, 3)
        with pytest.raises(ValueError):
            Span(-1, 2)

    def test_value_semantics(self):
        doc = mk_doc("Kafé, dll. Ya. Tidak.")
        (first, window), (second, _) = sentence_tokens(doc)
        spans = [token.span for token in token_list(window)]
        (_, again), *_ = sentence_tokens(mk_doc(doc.text))  # a second document
        assert spans == [token.span for token in token_list(again)] and first != second
        assert again.surfaces == window.surfaces == ["Kafé", ",", "dll.", "Ya", "."]
        assert Span(1, 3) == Span(1, 3) and Span(1, 3) != Span(1, 4)
        assert Span(1, 3) != (1, 3)
        assert hash(Span(1, 3)) == hash(Span(1, 3))
        assert len({Span(1, 3), Span(1, 3), Span(0, 3)}) == 2
        assert {first: 1}[Span(0, 15)] == 1 and {spans[0]: 1}[Span(0, 5)] == 1
        assert spans[0] != spans[1]
        assert repr(Span(1, 3)) == "Span(start=1, end=3)"
        assert repr(spans[0]) == "Span(start=0, end=5)"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        doc = mk_doc("Kafé, dll. 3.5 rekod-rekod.\nYa!")
        pairs = [
            (span, [token.span for token in token_list(tokens)])
            for span, tokens in sentence_tokens(doc)
        ]
        copied = pickle.loads(pickle.dumps(pairs, protocol))
        assert copied == pairs
        for (sentence, spans), (sentence_copy, spans_copy) in zip(pairs, copied):
            assert (sentence_copy.start, sentence_copy.end) == (sentence.start, sentence.end)
            assert [(s.start, s.end) for s in spans_copy] == [(s.start, s.end) for s in spans]
        assert pickle.loads(pickle.dumps(Span(2, 9), protocol)) == Span(2, 9)

    def test_document_requires_id(self):
        with pytest.raises(ValueError):
            Document(id="", text="x")


# Pieces for differential texts: a BOM, CRLF, multibyte letters and symbols,
# a non-decimal digit (²), a numeral that is not a digit (Ⅻ), an Arabic-Indic
# digit, a combining accent, "_", NBSP, the ideographic space and the number,
# abbreviation and reduplication forms the rules single out. "ß" casefolds
# to "ss", so "ß." matches the abbreviation "ss.". VT, FF, FS, NEL and the
# line separator are whitespace to str.strip and to \S but end no line of
# the segmenter; "...", "?!" and ". " put terminator runs at line ends and
# inside lines.
ORACLE_PIECES = [
    "\ufeff", "\r\n", "\n", " ", "\t", "é", "€", "😀", "²", "Ⅻ", "٣", "\u0301",
    "_", "\u00a0", "\u3000", "dll.", "Dll.", "3.14", "1,000", "rekod-rekod",
    "a", "Bé", "9", ".", ",", "-", "?", "!", "“", "—", "²,5", "٣.٣", "ß",
    "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "...", "?!", ". ",
]
ORACLE_ABBREVIATIONS = [
    DEFAULT_ABBREVIATIONS,
    frozenset(),
    frozenset({"dll.", "a.", "é.", "3.", "a.a.", "ss."}),
]


def token_fields(tokens) -> list[tuple]:
    return [(t.span.start, t.span.end, t.surface, t.normalized, t.kind) for t in tokens]


def assert_matches_oracle(text: str, abbreviations) -> None:
    """Sentences, tokens and every offset conversion equal the oracle's."""
    doc = Document(id="d", text=text)
    ref = oracle.OracleDocument(id="d", text=text)
    sentences = sentence_tokens(doc, abbreviations)
    expected = oracle.segment_sentences(ref, abbreviations)
    # field by field, so the comparison does not rest on the classes' __eq__
    assert [(span.start, span.end, k) for k, (span, _) in enumerate(sentences)] == [
        (s.span.start, s.span.end, s.index) for s in expected
    ]
    for (_span, tokens), sentence in zip(sentences, expected):
        assert token_fields(token_list(tokens)) == token_fields(
            oracle.tokenize(ref, sentence, abbreviations)
        )
    table = ref.offsets().char_to_byte
    offsets = doc.offsets()
    characters = range(len(text))
    assert offsets.spans([(c, c + 1) for c in characters]) == [
        Span(table[c], table[c + 1]) for c in characters
    ]
    boundaries = range(len(text) + 1)
    assert line_col(doc, boundaries) == [oracle.line_col(ref, table[c]) for c in boundaries]


# hyphens next to letters, digits, spaces and each other
COLUMN_PIECES = [*ORACLE_PIECES, "rekod-", "-rekod", "x-1.5", "a--b", "Kafé-kafé", "ß-ß"]


def assert_columns_match_oracle(text: str, abbreviations) -> None:
    """Sentence ranges and token columns give the oracle's spans and text."""
    doc = Document(id="d", text=text)
    ref = oracle.OracleDocument(id="d", text=text)
    to_byte = ref.offsets().char_to_byte
    to_char = ref.offsets().byte_to_char
    sentences = segment_sentences(doc, abbreviations)
    expected = oracle.segment_sentences(ref, abbreviations)
    ranges = list(zip(sentences.starts, sentences.ends))
    assert [(to_byte[a], to_byte[b]) for a, b in ranges] == [
        (s.span.start, s.span.end) for s in expected
    ]
    for (a, b), sentence in zip(ranges, expected):
        # one sentence is a window of one
        tokens = tokenize(doc, SentenceList([a], [b]), abbreviations)
        want = oracle.tokenize(ref, sentence, abbreviations)
        assert tokens.surfaces == [t.surface for t in want]
        assert tokens.words == [t.normalized for t in want]
        for first in range(len(want)):
            for last in range(first, len(want)):
                span = Span(want[first].span.start, want[last].span.end)
                assert tokens.locate([(first, last)]) == [
                    (0, span, oracle.slice_span(ref, span), to_char[span.start])
                ]
    # the whole document as one window: the sentences' tokens, one after another
    window = tokenize(doc, sentences, abbreviations)
    want = [oracle.tokenize(ref, sentence, abbreviations) for sentence in expected]
    assert window.heads == [0, *accumulate(map(len, want))]
    flat = [(s, t) for s, sentence_tokens in enumerate(want) for t in sentence_tokens]
    assert window.surfaces == [t.surface for _s, t in flat]
    for k in reversed(range(len(flat))):  # a later sentence located first
        s, t = flat[k]
        assert window.sentence_of(k) == s
        assert window.locate([(k, k)]) == [(s, t.span, t.surface, to_char[t.span.start])]


def assert_locate_matches_oracle(text: str, abbreviations) -> None:
    """Tokens.locate gives the oracle's sentence, span, text and first character for every run.

    The whole document is one window. The runs are every (first, last) pair
    within a sentence: all of them in one call, where each sentence holds
    several runs, and each alone (given twice) in a fresh window, where a
    probe may settle it.
    """
    doc = Document(id="d", text=text)
    ref = oracle.OracleDocument(id="d", text=text)
    sentences = segment_sentences(doc, abbreviations)
    want = [
        oracle.tokenize(ref, sentence, abbreviations)
        for sentence in oracle.segment_sentences(ref, abbreviations)
    ]
    heads = [0, *accumulate(map(len, want))]
    expected = {}
    for s, tokens in enumerate(want):
        for i in range(len(tokens)):
            for j in range(i, len(tokens)):
                span = Span(tokens[i].span.start, tokens[j].span.end)
                expected[heads[s] + i, heads[s] + j] = (
                    s, span, oracle.slice_span(ref, span), ref.offsets().byte_to_char[span.start]
                )
    runs = list(expected)
    assert tokenize(doc, sentences, abbreviations).locate(runs) == list(expected.values())
    for run in runs:
        window = tokenize(doc, sentences, abbreviations)
        assert window.locate([run, run]) == [expected[run]] * 2


# Texts where a token's surface also occurs elsewhere in its sentence: inside
# an earlier or later token, repeated, beside an abbreviation or decimal that
# holds it, or inside a run's middle token; each plain and behind a BOM, CRLF
# line ends and non-ASCII text.
LOCATE_TEXTS = [
    "apa-apa apa", "bukan sebukan", "Sebukan bukan", "segera dan segera",
    "dll. dll", "dll dll.", "3.14 3", "3 3.14", "secepat mungkin, mungkin",
    "tiga apa-apa apa", "Kafé kafé Kafé. Kafé",
]
LOCATE_TEXTS += ["\ufeff" + "".join(f"“é” — {t}.\r\n" for t in LOCATE_TEXTS)]


class TestOracle:
    """The optimized text layer against the per-character reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(COLUMN_PIECES), max_size=30).map("".join),
        st.sampled_from(ORACLE_ABBREVIATIONS),
    )
    def test_column_spans(self, text, abbreviations):
        assert_columns_match_oracle(text, abbreviations)

    @pytest.mark.parametrize(
        "text",
        ["\ufeffKafé 3.14 dll.\r\nrekod-rekod, x-1.5!", "ß. a.a. ²,5 ٣.٣ — “ya”\r\n"],
    )
    def test_fixed_column_spans(self, text):
        for abbreviations in ORACLE_ABBREVIATIONS:
            assert_columns_match_oracle(text, abbreviations)

    @pytest.mark.parametrize("text", LOCATE_TEXTS)
    def test_locating_edge_cases(self, text):
        for abbreviations in ORACLE_ABBREVIATIONS:
            assert_columns_match_oracle(text, abbreviations)
            assert_locate_matches_oracle(text, abbreviations)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(COLUMN_PIECES), max_size=16).map("".join),
        st.sampled_from(ORACLE_ABBREVIATIONS),
    )
    def test_locate(self, text, abbreviations):
        assert_locate_matches_oracle(text, abbreviations)

    def test_seeded_random_texts(self):
        rng = random.Random(1402)
        for _ in range(1500):
            pieces = rng.choices(ORACLE_PIECES, k=rng.randint(0, 24))
            assert_matches_oracle("".join(pieces), rng.choice(ORACLE_ABBREVIATIONS))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(ORACLE_PIECES), max_size=30).map("".join),
        st.sampled_from(ORACLE_ABBREVIATIONS),
    )
    def test_property(self, text, abbreviations):
        assert_matches_oracle(text, abbreviations)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40))
    def test_property_on_any_text(self, text):
        assert_matches_oracle(text, DEFAULT_ABBREVIATIONS)

    @pytest.mark.parametrize(
        "text",
        [
            "\ufeffsatu\r\ndua tiga\r\n",
            "a\n\nb",
            "\n",
            "😀x\né",
            "dll.. 3.14.15 1,000,",
            "x-1.5 -a a- a--b",
        ],
    )
    def test_fixed_texts(self, text):
        for abbreviations in ORACLE_ABBREVIATIONS:
            assert_matches_oracle(text, abbreviations)

    @pytest.mark.parametrize(
        "text",
        [
            # one-sentence lines between lines with an inner "dll.", decimal or "a.b"
            "Sistem simpan rekod.\nBuku dll. dalam rak.\nVersi 3.14 dilancar.\n"
            "Fail a.b dibuka.\nSatu dua.\n",
            "Satu.\nDua. Tiga!\nEmpat?! Lima\nEnam...\nx.y z.\nTujuh.",
            # blank and whitespace-only lines, before, between and after
            "\n\nSatu dua.\n \t \n\nBuku dll. rak. Dua.\n\x0c\n  Tiga.  \n\n",
            # CRLF throughout, and a last line with no newline
            "Satu.\r\nHarga 1.5 juta. Ya.\r\n\r\n  \r\nRekod dll. dsb.\r\nAkhir tanpa noktah",
            "\ufeffdll. pertama.\nDll. 2.5.\na.\n3.\nakhir 9.",
            # a line whose kept periods come before one that ends a sentence
            "rekod dll. 3.5 x. y\ndsb. dll. tamat.\nsatu\u2028dua.\x85tiga. \x0b\n",
        ],
    )
    def test_one_sentence_lines_among_scanned_lines(self, text):
        for abbreviations in ORACLE_ABBREVIATIONS:
            assert_matches_oracle(text, abbreviations)
            assert_columns_match_oracle(text, abbreviations)

    def test_segmentation_is_linear_in_dotted_runs(self):
        # the abbreviation check at each '.' must not rescan the whole
        # "a.a.a..." run before it: quadratic, that took ~40 s here
        doc = mk_doc("a." * 20000)
        started = time.perf_counter()
        assert len(segment_sentences(doc)) == 20000
        assert time.perf_counter() - started < 5

    def test_segmentation_is_linear_in_alternating_lines(self):
        # 20,000 lines: every one-sentence line ends the per-break scan of
        # the line before it, which holds an inner terminator, so 10,000
        # scans run. Work per scan that grows with the abbreviation set
        # (5,000 entries here) would take seconds.
        abbreviations = frozenset(f"singkatan{n}." for n in range(5000))
        doc = mk_doc("Sistem simpan rekod.\nSatu. Dua.\n" * 10000)
        started = time.perf_counter()
        assert len(segment_sentences(doc, abbreviations)) == 30000
        assert time.perf_counter() - started < 1

    def test_ascii_offsets_are_identity(self):
        offsets = Document(id="d", text="satu dua\n").offsets()
        assert offsets.spans([(0, 9), (5, 8)]) == [Span(0, 9), Span(5, 8)]

    def test_line_col_of_bom_and_crlf_lines(self):
        doc = mk_doc("\ufeffsatu\r\ndua")
        # the BOM is column 1, so "satu" starts at column 2; '\r' ends line 1
        assert line_col(doc, [1, 5, 7]) == [(1, 2), (1, 6), (2, 1)]
