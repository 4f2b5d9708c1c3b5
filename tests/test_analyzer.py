"""Lint findings, criterion heuristics and report rendering tests."""

from __future__ import annotations

import pickle
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import analyzer_oracle as oracle
import lint_oracle
import textcore_oracle
from conftest import mk_doc
from kaburlint.analyzer import (
    ATTRIBUTE_MEMBER,
    DANGLING_ELSE,
    MULTI_POS,
    MULTI_SENSE,
    REFERENTIAL_SENTENCE,
    REPORT_FORMATS,
    LintReport,
    check_dangling_else,
    lint_document,
    render_report,
    report_head,
    report_tail,
    word_heuristics,
)
from kaburlint.config import load_config, load_resources
from kaburlint.filters import FilterConfig
from kaburlint.lexicon import (
    AttributeTag,
    Lexicon,
    LexiconEntry,
    PosDictionary,
    normalize_phrase,
)
from kaburlint.seeds import write_seed_tree
from kaburlint.textcore import Document, iter_sentence_tokens, segment_sentences, tokenize


def tag(text):
    return AttributeTag.parse(text)


def entry(phrase, tags, status="verified"):
    return LexiconEntry(
        phrase=normalize_phrase(phrase),
        tags=frozenset(AttributeTag.parse(t) for t in tags),
        status=status,
    )


def seed_lexicon():
    return Lexicon(
        [
            entry("efisien", ("IMP",)),
            entry("segera", ("IMP",)),
            entry("secepat mungkin", ("IMP", "T")),
        ]
    )


def table_posdict():
    posdict = PosDictionary()
    posdict.add("papar", {"adj", "kk"})
    posdict.add("amat", {"kk", "kt"})
    posdict.add("alam", {"kk"}, 2)
    posdict.add("abstrak", {"kk", "kn"})
    return posdict


def table_heuristics():
    return word_heuristics(table_posdict())


class TestLintDocument:
    def test_two_seed_findings(self):
        doc = mk_doc("Sistem mesti efisien dan segera.")
        report = lint_document(doc, seed_lexicon())
        assert [f.phrase for f in report.findings] == ["efisien", "segera"]
        assert [f.severity for f in report.findings] == ["warning", "warning"]
        assert all(f.criterion == ATTRIBUTE_MEMBER for f in report.findings)
        assert report.findings[0].matched == "efisien"

    def test_clean_document(self):
        doc = mk_doc("Tiada apa-apa di sini.")
        assert lint_document(doc, seed_lexicon()).findings == []

    def test_deterministic(self):
        doc = mk_doc("Sistem mesti efisien. Jika gagal, berhenti. secepat mungkin")
        first = lint_document(doc, seed_lexicon(), table_heuristics())
        second = lint_document(doc, seed_lexicon(), table_heuristics())
        assert first.findings == second.findings

    def test_only_verified_entries_fire(self):
        lexicon = Lexicon(
            [
                entry("efisien", ("IMP",), status="candidate"),
                entry("segera", ("IMP",), status="rejected"),
                entry("mudah", ("IMP",)),
            ]
        )
        doc = mk_doc("efisien segera mudah")
        report = lint_document(doc, lexicon)
        assert [f.phrase for f in report.findings] == ["mudah"]

    def test_multiword_is_one_finding(self):
        doc = mk_doc("Siapkan secepat mungkin.")
        report = lint_document(doc, seed_lexicon())
        assert len(report.findings) == 1
        assert report.findings[0].matched == "secepat mungkin"
        assert report.findings[0].tags == frozenset({tag("IMP"), tag("T")})

    def test_rejecting_entry_removes_exactly_its_findings(self):
        doc = mk_doc("efisien dahulu, kemudian segera, akhirnya efisien lagi.")
        before = lint_document(doc, seed_lexicon())
        lexicon = seed_lexicon()
        rejected = LexiconEntry(
            phrase=("efisien",),
            tags=frozenset({tag("IMP")}),
            status="rejected",
        )
        lexicon.replace(rejected)
        after = lint_document(doc, lexicon)
        assert after.findings == [f for f in before.findings if f.phrase != "efisien"]
        assert len(before.findings) - len(after.findings) == 2

    def test_multi_pos_and_multi_sense_info_findings(self):
        doc = mk_doc("papar alam")
        report = lint_document(doc, seed_lexicon(), table_heuristics())
        got = {(f.criterion, f.matched, f.severity) for f in report.findings}
        assert got == {
            (MULTI_POS, "papar", "info"),
            (MULTI_SENSE, "alam", "info"),
        }

    def test_heuristics_skip_filtered_tokens(self):
        filter_cfg = FilterConfig(english_words=frozenset({"papar"}))
        doc = mk_doc("guna papar sini")
        report = lint_document(doc, seed_lexicon(), table_heuristics(), filter_cfg)
        assert report.findings == []

    def test_clitic_findings_are_off_by_default(self):
        doc = mk_doc("sila semak warnanya dahulu")
        assert lint_document(doc, seed_lexicon()).findings == []
        report = lint_document(doc, seed_lexicon(), flag_anaphoric_clitics=True)
        assert [f.criterion for f in report.findings] == [REFERENTIAL_SENTENCE]
        assert report.findings[0].matched == "warnanya"
        assert report.findings[0].tags == frozenset({tag("REF")})

    def test_summary_counts(self):
        doc = mk_doc("efisien dan secepat mungkin")
        report = lint_document(doc, seed_lexicon())
        assert report.attribute_counts["IMP"] == 2
        assert report.attribute_counts["T"] == 1
        assert report.criterion_counts == {ATTRIBUTE_MEMBER: 2}


class TestFinding:
    def findings(self):
        doc = mk_doc("papar alam, jika gagal secepat mungkin.")
        return lint_document(doc, seed_lexicon(), table_heuristics()).findings

    def test_value_semantics(self):
        first, again = self.findings(), self.findings()
        assert first == again and len(first) == 4
        assert [hash(f) for f in first] == [hash(f) for f in again]
        assert len(set(first + again)) == 4
        assert first[0] != first[1]
        assert replace(first[0], severity="warning") != first[0]
        assert not hasattr(first[0], "__dict__")
        assert repr(first[1]) == (
            "Finding(doc_id='doc', sentence_index=0, span=Span(start=6, end=10), "
            "matched='alam', phrase='', tags=frozenset({AttributeTag(attribute='VAR', "
            "sub=None)}), criterion='multi_sense', severity='info')"
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        findings = self.findings()
        copied = pickle.loads(pickle.dumps(findings, protocol))
        assert copied == findings
        assert [tuple(getattr(f, name) for name in f.__slots__) for f in copied] == [
            tuple(getattr(f, name) for name in f.__slots__) for f in findings
        ]


class TestWordHeuristics:
    def test_table_entries(self):
        table = table_heuristics()
        assert table["papar"] == (
            (MULTI_POS, frozenset({tag("CON.adjective"), tag("CON.verb")})),
        )
        assert table["abstrak"] == ((MULTI_POS, frozenset({tag("CON.verb")})),)

    def test_single_class_word_is_silent(self):
        posdict = PosDictionary()
        posdict.add("alam", {"kk"})
        assert word_heuristics(posdict) == {}

    def test_unknown_word_is_silent(self):
        assert "tiada" not in table_heuristics()
        assert word_heuristics(None) == {}

    def test_multi_sense_from_the_threshold_on(self):
        posdict = PosDictionary()
        posdict.add("alam", {"kk"}, 3)
        var = frozenset({tag("VAR")})
        assert word_heuristics(posdict, 3) == {"alam": ((MULTI_SENSE, var),)}
        assert word_heuristics(posdict, 4) == {}


class TestDanglingElse:
    def run(self, text):
        doc = mk_doc(text)
        sentences = segment_sentences(doc)
        out = []
        for i, sentence in enumerate(sentences):
            tokens = tokenize(doc, sentence)
            next_tokens = (
                tokenize(doc, sentences[i + 1]) if i + 1 < len(sentences) else None
            )
            out.append(
                check_dangling_else(
                    sentence.index, tokens, next_tokens=next_tokens, doc_id=doc.id
                )
            )
        return out

    def test_conditional_without_alternative(self):
        (finding,) = self.run("Jika kad tidak sah, sistem menolak kad.")
        assert finding is not None
        assert finding.criterion == DANGLING_ELSE
        assert finding.tags == frozenset({tag("CON.dangling_else")})
        assert finding.matched == "Jika"

    def test_alternative_in_same_sentence(self):
        (finding,) = self.run("Jika sah, terima; jika tidak, tolak.")
        assert finding is None

    def test_no_conditional(self):
        (finding,) = self.run("Sistem menolak kad.")
        assert finding is None

    def test_alternative_in_next_sentence(self):
        findings = self.run("Jika sah, terima. Sebaliknya, tolak.")
        assert findings == [None, None]

    def test_alternative_two_sentences_away_does_not_help(self):
        findings = self.run("Jika sah, terima. Rekod disimpan. Sebaliknya, tolak.")
        assert findings[0] is not None


# marker words in mixed case, near-misses, filler and punctuation; "." "?"
# "!" and newlines end sentences, so a text is a run of sentence pairs
DANGLING_ELSE_PIECES = [
    "jika", "Jika", "JIKA", "jiKa", "sekiranya", "Sekiranya", "apabila",
    "APABILA", "tidak", "Tidak", "TIDAK", "jika tidak", "Jika tidak",
    "JIKA TIDAK", "selainnya", "Selainnya", "sebaliknya", "SEBALIKNYA",
    "jikalau", "kalau", "jika-jika", "tidak-jika", "sebaliknya-nya",
    "sistem", "sah", "terima", "tolak", "rekod", "3", "dll.", "Ä",
    ",", ";", ":", "(", ")", ".", "?", "!", "\n",
]


def assert_dangling_else_matches_oracle(text):
    """Each sentence's finding equals the configurable seed check's."""
    doc = mk_doc(text)
    pairs = list(iter_sentence_tokens(doc))
    findings = []
    for i, (sentence, tokens) in enumerate(pairs):
        next_tokens = pairs[i + 1][1] if i + 1 < len(pairs) else None
        got = check_dangling_else(
            sentence.index, tokens, next_tokens=next_tokens, doc_id=doc.id
        )
        want = oracle.check_dangling_else(
            sentence, tokens, next_tokens=next_tokens or (), doc_id=doc.id
        )
        # a Finding compares equal only with the same span and matched text
        assert got == want, (text, sentence.index)
        findings.append(got)
    return findings


class TestDanglingElseOracle:
    """The fixed-marker check against the seed's configurable one."""

    def test_seeded_random_texts(self):
        rng = random.Random(1402)
        fired = silent_with_marker = 0
        for _ in range(2000):
            pieces = rng.choices(DANGLING_ELSE_PIECES, k=rng.randint(0, 16))
            text = " ".join(pieces)
            findings = assert_dangling_else_matches_oracle(text)
            fired += sum(f is not None for f in findings)
            silent_with_marker += "jika" in text.casefold() and not any(findings)
        # both outcomes occur, so the comparison is not vacuous
        assert fired > 100 and silent_with_marker > 100

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(DANGLING_ELSE_PIECES), max_size=24))
    def test_property(self, pieces):
        assert_dangling_else_matches_oracle(" ".join(pieces))

    def test_fixed_sentences(self):
        (finding,) = assert_dangling_else_matches_oracle("apabila rekod sah, Jika tidak")
        assert finding is None
        (finding,) = assert_dangling_else_matches_oracle("Apabila sah, JIKA perlu terima")
        assert finding.matched == "Apabila" and finding.span.start == 0


# Words for whole-document lint differentials. Each surface can land at a
# sentence start and elsewhere ("Papar" is kept sentence-initially and a
# proper noun mid-sentence unless the Malay list decides), and the two
# filter configurations below disagree on many of them, so a memo shared
# between configurations or sentence positions would change the findings.
LINT_PIECES = [
    "efisien", "Efisien", "EFISIEN", "segera", "secepat", "mungkin", "mudah",
    "papar", "Papar", "amat", "alam", "Alam", "abstrak", "warnanya", "Warnanya",
    "hanya", "nya", "jika", "Jika", "tidak", "selainnya", "database", "Server",
    "login", "rekod-rekod", "dll.", "tel.", "pljr", "3.5", "kafé", "Kafé",
    "sistem", "Aminah", ",", "—", ".", "?", "\n",
]
LINT_FILTERS = [
    FilterConfig(
        english_words=frozenset({"database", "server", "papar", "kafé"}),
        malay_words=frozenset({"papar", "efisien", "sistem", "alam", "jika", "mudah"}),
    ),
    FilterConfig(
        english_words=frozenset({"efisien", "login", "alam"}),
        abbreviations=frozenset({"dll.", "tel."}),
    ),
]


def lint_lexicon():
    return Lexicon(
        [
            *seed_lexicon().entries(),
            entry("jika tidak", ("CON.dangling_else",)),
            entry("warnanya", ("REF",)),
            entry("mudah", ("IMP",), status="candidate"),
            entry("papar", ("CON.verb",), status="rejected"),
        ]
    )


def finding_fields(findings):
    return [
        (f.doc_id, f.sentence_index, f.span.start, f.span.end, f.matched, f.phrase,
         f.tags, f.criterion, f.severity)
        for f in findings
    ]


def assert_lint_matches_oracle(text, posdict, filter_cfg, clitics):
    """Every finding, field by field, equals the reference lint's."""
    got = lint_document(
        mk_doc(text), lint_lexicon(), word_heuristics(posdict), filter_cfg,
        flag_anaphoric_clitics=clitics,
    ).findings
    want = lint_oracle.lint_document(
        textcore_oracle.OracleDocument(id="doc", text=text), lint_lexicon(), posdict,
        filter_cfg, flag_anaphoric_clitics=clitics,
    )
    assert finding_fields(got) == finding_fields(want), text
    return got


class TestLintOracle:
    """The table-driven lint against the per-token reference."""

    def test_seeded_random_texts(self):
        rng = random.Random(6764)
        posdicts = [None, table_posdict()]
        criteria = set()
        for _ in range(1500):
            text = " ".join(rng.choices(LINT_PIECES, k=rng.randint(0, 30)))
            findings = assert_lint_matches_oracle(
                text, rng.choice(posdicts), rng.choice(LINT_FILTERS), rng.random() < 0.5
            )
            criteria.update(f.criterion for f in findings)
        # every finding kind occurs, so the comparison is not vacuous
        assert criteria == {
            ATTRIBUTE_MEMBER, MULTI_POS, MULTI_SENSE, REFERENTIAL_SENTENCE, DANGLING_ELSE,
        }

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(LINT_PIECES), max_size=30).map(" ".join),
        st.booleans(),
        st.sampled_from(LINT_FILTERS),
        st.booleans(),
    )
    def test_property(self, text, with_posdict, filter_cfg, clitics):
        posdict = table_posdict() if with_posdict else None
        assert_lint_matches_oracle(text, posdict, filter_cfg, clitics)

    @pytest.mark.parametrize("clitics", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(LINT_PIECES), max_size=30).map(" ".join),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
        st.sampled_from(LINT_FILTERS),
    )
    def test_one_run_over_many_documents(self, clitics, texts, with_posdict, filters):
        # as in the CLI: every document of a run goes through the same
        # configuration and heuristics table, so the surface table that the
        # first documents fill serves the later ones
        posdict = table_posdict() if with_posdict else None
        heuristics = word_heuristics(posdict)
        filter_cfg = replace(filters)  # a new configuration starts an empty table
        lexicon = lint_lexicon()
        for text in texts:
            got = lint_document(
                mk_doc(text), lexicon, heuristics, filter_cfg,
                flag_anaphoric_clitics=clitics,
            ).findings
            want = lint_oracle.lint_document(
                textcore_oracle.OracleDocument(id="doc", text=text), lexicon, posdict,
                filter_cfg, flag_anaphoric_clitics=clitics,
            )
            assert finding_fields(got) == finding_fields(want), text

    def test_one_surface_at_a_sentence_start_and_inside(self):
        malay, other = LINT_FILTERS
        text = "Alam luas. Sila Alam luas. Alam"
        found = assert_lint_matches_oracle(text, table_posdict(), malay, False)
        # a known Malay word at both sentence starts, a proper noun inside
        assert [f.span.start for f in found] == [0, 27]
        # a loanword everywhere for the other configuration
        assert assert_lint_matches_oracle(text, table_posdict(), other, False) == []


def whole_report(report: LintReport, fmt: str, docs: dict[str, Document] | None = None) -> str:
    """report_head, the findings' lines and report_tail, as lint writes them."""
    tail = report_tail(fmt, report.warnings, report.attribute_counts, report.criterion_counts)
    return report_head(fmt) + render_report(report, fmt, docs) + tail


class TestRendering:
    def report(self):
        doc = mk_doc("Sistem mesti efisien dan segera.")
        return doc, lint_document(doc, seed_lexicon())

    def test_text_format(self):
        doc, report = self.report()
        text = whole_report(report, "text", {doc.id: doc})
        assert text == (
            "doc:1:14: warning: 'efisien' [IMP] attribute_member\n"
            "doc:1:26: warning: 'segera' [IMP] attribute_member\n"
            "\n"
            "total: 2 (2 warning, 0 info)\n"
            "by attribute: IMP=2 CON=0 T=0 REF=0 VAR=0 WN=0\n"
            "by criterion: attribute_member=2\n"
        )

    def test_csv_format(self):
        doc, report = self.report()
        text = whole_report(report, "csv", {doc.id: doc})
        lines = text.splitlines()
        assert lines[0] == (
            "document,line,col,start,end,sentence,matched,phrase,tags,"
            "criterion,severity"
        )
        assert lines[1] == (
            "doc,1,14,13,20,0,efisien,efisien,IMP,attribute_member,warning"
        )
        assert len(lines) == 3

    def test_records_format(self):
        import json

        _doc, report = self.report()
        lines = whole_report(report, "records").splitlines()
        first = json.loads(lines[0])
        assert first == {
            "doc": "doc",
            "sentence": 0,
            "start": 13,
            "end": 20,
            "matched": "efisien",
            "phrase": "efisien",
            "tags": ["IMP"],
            "criterion": "attribute_member",
            "severity": "warning",
        }

    def test_findings_sorted_by_offset(self):
        doc = mk_doc("segera dahulu dan efisien kemudian")
        report = lint_document(doc, seed_lexicon())
        starts = [f.span.start for f in report.findings]
        assert starts == sorted(starts)


@pytest.fixture(scope="module")
def sample_reports(tmp_path_factory) -> list[tuple[Document, object]]:
    """The seed sample documents and one clean document, each with its report."""
    root = tmp_path_factory.mktemp("seed")
    write_seed_tree(root)
    cfg = load_config(root / "kaburlint.conf")
    res = load_resources(cfg)
    heuristics = word_heuristics(res.posdict, cfg.sense_threshold)
    docs = [
        Document(id=str(path), text=path.read_text(encoding="utf-8"), source_path=str(path))
        for path in sorted((root / "sample").glob("*.txt"))
    ]
    docs.append(Document(id="clean.txt", text="Sistem simpan rekod pelajar.\n"))
    reports = [(doc, lint_document(doc, res.lexicon, heuristics, res.filter_config))
               for doc in docs]
    assert [bool(report.findings) for _, report in reports] == [True, True, False]
    return reports


@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.sampled_from(range(3)), unique=True), fmt=st.sampled_from(REPORT_FORMATS))
def test_document_parts_join_to_the_merged_report(sample_reports, picks, fmt):
    """The head, each document's body in order and the tail of the summed counts."""
    chosen = [sample_reports[k] for k in picks]
    bodies = [render_report(report, fmt, {doc.id: doc}) for doc, report in chosen]
    warnings = sum(report.warnings for _, report in chosen)
    attributes: Counter[str] = Counter()
    criteria: Counter[str] = Counter()
    for _, report in chosen:
        attributes.update(report.attribute_counts)
        criteria.update(report.criterion_counts)
    merged = LintReport([f for _, report in chosen for f in report.findings])
    whole = whole_report(merged, fmt, {doc.id: doc for doc, _ in chosen})
    parts = report_head(fmt) + "".join(bodies) + report_tail(fmt, warnings, attributes, criteria)
    assert parts == whole
