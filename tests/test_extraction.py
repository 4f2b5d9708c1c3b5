"""Candidate mining, attribute mapping and review-workflow tests."""

from __future__ import annotations

import pickle
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extraction_oracle as oracle
from conftest import mk_doc, random_lexicon, random_phrase, random_tags
from kaburlint import curation
from kaburlint.curation import (
    CandidateWord,
    Occurrence,
    ReviewDecision,
    append_audit,
    load_audit,
    load_candidates,
    record_decision,
    replay_audit,
    save_candidates,
)
from kaburlint.errors import ReviewError
from kaburlint.fileio import dumps_jsonl
from kaburlint.extraction import extract_candidates, map_candidate_attributes, merge_results
from kaburlint.filters import FilterConfig
from kaburlint.lexicon import (
    ATTRIBUTES,
    POS_LABELS,
    STATUSES,
    AttributeTag,
    Lexicon,
    LexiconEntry,
    PosDictionary,
    dumps_lexicon,
    entry_to_record,
    load_lexicon,
    load_rule_lists,
    normalize_phrase,
    save_lexicon,
)
from kaburlint.records import (
    ATTRIBUTE_MEMBER,
    CRITERIA,
    MULTI_POS,
    MULTI_SENSE,
    VAGUE_POS,
    Span,
)
from kaburlint.textcore import SENTENCE_WINDOW, segment_sentences
from record_replace import replace

LINE_BREAKS = ["\u2028", "\u2029", "\x85"]  # str.splitlines breaks at these, JSON lines not


def tag(text: str) -> AttributeTag:
    return AttributeTag.parse(text)


def seed_rules() -> dict[tuple[str, ...], frozenset[str]]:
    return {
        ("efisien",): frozenset({"IMP"}),
        ("segera",): frozenset({"IMP"}),
        ("secepat", "mungkin"): frozenset({"IMP"}),
        ("beberapa",): frozenset({"CON"}),
        ("bulanan",): frozenset({"T"}),
        ("sebelum",): frozenset({"REF"}),
        ("begini",): frozenset({"REF"}),
        ("data", "itu"): frozenset({"VAR"}),
        ("anggaran",): frozenset({"WN"}),
    }


def seed_posdict() -> PosDictionary:
    posdict = PosDictionary()
    posdict.add("papar", {"adj", "kk"})
    posdict.add("amat", {"kk", "kt"})
    posdict.add("alam", {"kk"}, 2)
    posdict.add("abstrak", {"kk", "kn"})
    posdict.add("akan", {"other"}, 2)
    return posdict


def entry(phrase, tags=("IMP",), status="verified"):
    return LexiconEntry(
        phrase=normalize_phrase(phrase),
        tags=frozenset(AttributeTag.parse(t) for t in tags),
        status=status,
    )


PLAIN_FILTERS = FilterConfig()


class TestExtractCandidates:
    def test_multi_pos_criterion(self):
        docs = [mk_doc("sistem akan papar rekod baharu.")]
        result = extract_candidates(
            docs, Lexicon(), seed_posdict(), {}, PLAIN_FILTERS
        )
        phrases = {c.phrase: c for c in result.candidates}
        assert ("papar",) in phrases
        assert MULTI_POS in phrases[("papar",)].criterion_hits

    def test_lexicon_hint_criterion_and_suggestion(self):
        docs = [mk_doc("laporan mesti efisien.")]
        result = extract_candidates(
            docs, Lexicon([entry("efisien")]), None, {}, PLAIN_FILTERS
        )
        (candidate,) = [c for c in result.candidates if c.phrase == ("efisien",)]
        assert candidate.criterion_hits == frozenset({ATTRIBUTE_MEMBER})
        assert candidate.suggested_tags == frozenset({tag("IMP")})

    def test_empty_corpus(self):
        result = extract_candidates([], Lexicon(), None, {}, PLAIN_FILTERS)
        assert result.candidates == []

    def test_sense_threshold(self):
        docs = [mk_doc("ia akan berlaku.")]
        result = extract_candidates(
            docs, Lexicon(), seed_posdict(), {}, PLAIN_FILTERS
        )
        phrases = {c.phrase: c for c in result.candidates}
        assert phrases[("akan",)].criterion_hits == frozenset({MULTI_SENSE})
        strict = extract_candidates(
            docs,
            Lexicon(),
            seed_posdict(),
            {},
            PLAIN_FILTERS,
            sense_threshold=3,
        )
        assert all(c.phrase != ("akan",) for c in strict.candidates)

    def test_rule_list_membership_and_vague_pos(self):
        docs = [mk_doc("siapkan laporan bulanan dengan segera.")]
        result = extract_candidates(docs, Lexicon(), None, seed_rules(), PLAIN_FILTERS)
        phrases = {c.phrase: c for c in result.candidates}
        assert phrases[("bulanan",)].criterion_hits == frozenset({ATTRIBUTE_MEMBER})
        assert phrases[("segera",)].criterion_hits == frozenset(
            {ATTRIBUTE_MEMBER, VAGUE_POS}
        )

    def test_multiword_rule_phrase_consumes_tokens(self):
        docs = [mk_doc("hantar data itu secepat mungkin.")]
        result = extract_candidates(docs, Lexicon(), None, seed_rules(), PLAIN_FILTERS)
        assert [c.phrase for c in result.candidates] == [
            ("data", "itu"),
            ("secepat", "mungkin"),
        ]

    def test_occurrences_merged_by_phrase_in_document_order(self):
        docs = [
            mk_doc("segera datang. datang segera.", doc_id="a"),
            mk_doc("jawab segera.", doc_id="b"),
        ]
        result = extract_candidates(docs, Lexicon(), None, seed_rules(), PLAIN_FILTERS)
        (candidate,) = [c for c in result.candidates if c.phrase == ("segera",)]
        assert [o.doc_id for o in candidate.occurrences] == ["a", "a", "b"]
        starts = [o.span.start for o in candidate.occurrences]
        assert starts == sorted(starts[:2]) + starts[2:]

    def test_rejected_lexicon_entries_do_not_hint(self):
        docs = [mk_doc("laporan mesti efisien.")]
        result = extract_candidates(
            docs,
            Lexicon([entry("efisien", status="rejected")]),
            None,
            {},
            PLAIN_FILTERS,
        )
        assert result.candidates == []

    def test_candidates_come_from_kept_tokens_only(self):
        cfg = FilterConfig(english_words=frozenset({"database"}))
        docs = [mk_doc("guna database bulanan.")]
        result = extract_candidates(
            docs,
            Lexicon([entry("database", tags=("VAR",))]),
            None,
            seed_rules(),
            cfg,
        )
        assert [c.phrase for c in result.candidates] == [("bulanan",)]

    def test_merge_results_equals_single_pass(self):
        docs = [
            mk_doc("laporan bulanan mesti efisien.", doc_id="a"),
            mk_doc("hantar data itu dengan segera.", doc_id="b"),
        ]
        lexicon = Lexicon([entry("efisien")])
        rules = seed_rules()
        whole = extract_candidates(docs, lexicon, None, rules, PLAIN_FILTERS)
        parts = [
            extract_candidates([doc], lexicon, None, rules, PLAIN_FILTERS)
            for doc in docs
        ]
        merged = merge_results(parts, lexicon, None, rules)
        assert merged.candidates == whole.candidates
        assert merged.tokens_read == whole.tokens_read
        assert merged.filter_counts == whole.filter_counts
        assert merged.filter_counts.kept == sum(p.filter_counts.kept for p in parts)


class TestMapping:
    def test_rule_list_tags(self):
        rules = seed_rules()
        assert map_candidate_attributes(("bulanan",), Lexicon(), None, rules) == frozenset(
            {tag("T")}
        )
        assert map_candidate_attributes(("sebelum",), Lexicon(), None, rules) == frozenset(
            {tag("REF")}
        )

    def test_weakness_included(self):
        tags = map_candidate_attributes(("anggaran",), Lexicon(), None, seed_rules())
        assert tag("WN") in tags

    def test_pos_derived_con_subs(self):
        tags = map_candidate_attributes(("papar",), Lexicon(), seed_posdict(), {})
        assert tags == frozenset({tag("CON.adjective"), tag("CON.verb")})
        tags = map_candidate_attributes(("amat",), Lexicon(), seed_posdict(), {})
        assert tags == frozenset({tag("CON.verb"), tag("CON.adverb")})

    def test_unmapped_candidate_is_flagged(self):
        mapped = map_candidate_attributes(("akan",), Lexicon(), seed_posdict(), {})
        assert mapped == frozenset()
        assert CandidateWord(
            phrase=("akan",),
            occurrences=(Occurrence("d", Span(0, 4)),),
            suggested_tags=mapped,
        ).unmapped

    def test_mapping_is_deterministic(self):
        rng = random.Random(3)
        rules = seed_rules()
        for _ in range(50):
            phrase = random_phrase(rng)
            first = map_candidate_attributes(phrase, Lexicon(), seed_posdict(), rules)
            second = map_candidate_attributes(phrase, Lexicon(), seed_posdict(), rules)
            assert first == second


class TestRecordDecision:
    def test_accept_makes_verified_entry(self):
        repo = Lexicon([entry("efisien", status="candidate")])
        decision = ReviewDecision(
            phrase=("efisien",),
            verdict="accept",
            final_tags=frozenset({tag("IMP.general")}),
            reviewer="pakar",
            timestamp="2026-01-01T00:00:00+00:00",
        )
        updated = record_decision(repo, decision)
        assert updated.status == "verified"
        assert updated.tags == frozenset({tag("IMP.general")})

    def test_reject_excludes_from_future_matches(self):
        repo = Lexicon([entry("akan", status="candidate", tags=("VAR",))])
        decision = ReviewDecision(phrase=("akan",), verdict="reject")
        updated = record_decision(repo, decision)
        assert updated.status == "rejected"
        from kaburlint.lexicon import match_entries
        from conftest import all_tokens

        assert match_entries(repo, all_tokens("ia akan tiba")) == []

    def test_accept_without_tags_is_an_error(self):
        repo = Lexicon()
        decision = ReviewDecision(phrase=("efisien",), verdict="accept")
        with pytest.raises(ReviewError):
            record_decision(repo, decision)

    def test_reject_of_unmapped_new_phrase(self):
        repo = Lexicon()
        updated = record_decision(
            repo, ReviewDecision(phrase=("akan",), verdict="reject")
        )
        assert updated.status == "rejected"
        assert updated.tags == frozenset()
        assert updated.source == "extracted"

    def test_statuses_only_move_forward_without_force(self):
        repo = Lexicon([entry("efisien", status="verified")])
        decision = ReviewDecision(phrase=("efisien",), verdict="reject")
        with pytest.raises(ReviewError):
            record_decision(repo, decision)
        forced = record_decision(repo, replace(decision, force=True))
        assert forced.status == "rejected"
        assert forced.tags == frozenset({tag("IMP")})  # keeps existing tags

    def test_never_deletes_entries(self):
        repo = Lexicon([entry("efisien", status="candidate"), entry("segera")])
        record_decision(repo, ReviewDecision(phrase=("efisien",), verdict="reject"))
        assert len(repo) == 2


class TestQueueAndAuditFiles:
    def test_queue_round_trip(self, tmp_path):
        candidates = [
            CandidateWord(
                phrase=("secepat", "mungkin"),
                occurrences=(
                    Occurrence("a.txt", Span(5, 20)),
                    Occurrence("b.txt", Span(7, 22)),
                ),
                suggested_tags=frozenset({tag("IMP"), tag("T")}),
                criterion_hits=frozenset({ATTRIBUTE_MEMBER, VAGUE_POS}),
            ),
            CandidateWord(
                phrase=("akan",),
                occurrences=(Occurrence("a.txt", Span(0, 4)),),
                criterion_hits=frozenset({MULTI_SENSE}),
            ),
        ]
        path = tmp_path / "queue.jsonl"
        save_candidates(candidates, path)
        loaded = load_candidates(path)
        assert loaded == candidates
        save_candidates(loaded, path)
        first = path.read_bytes()
        save_candidates(loaded, path)
        assert path.read_bytes() == first

    def test_queue_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_text(
            '{"phrase": ["x"], "occurrences": [{"doc": "a", "start": 0, "end": 1}], '
            '"status": "pending", "weird": 1}\n',
            encoding="utf-8",
        )
        with pytest.raises(ReviewError, match="weird"):
            load_candidates(path)

    def test_audit_round_trip(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        decisions = [
            ReviewDecision(
                phrase=("efisien",),
                verdict="accept",
                final_tags=frozenset({tag("IMP")}),
                reviewer="pakar",
                timestamp="2026-01-01T00:00:00+00:00",
            ),
            ReviewDecision(
                phrase=("akan",),
                verdict="reject",
                reviewer="pakar",
                timestamp="2026-01-01T00:01:00+00:00",
                force=True,
            ),
        ]
        for decision in decisions:
            append_audit(path, [decision])
        assert load_audit(path) == decisions

    @pytest.mark.parametrize("block", [curation._TAIL_BLOCK, 5])
    def test_audit_append_cuts_a_torn_last_record_at_every_byte(
        self, tmp_path, monkeypatch, block
    ):
        # a last record without its newline was never followed by a save:
        # the next batch drops it and starts on a line of its own
        monkeypatch.setattr(curation, "_TAIL_BLOCK", block)
        first, torn, batch = (
            ReviewDecision(
                phrase=(word,), verdict="reject", reviewer="pakar",
                timestamp=f"2026-01-01T00:0{n}:00+00:00", force=True,
            )
            for n, word in enumerate(["akan", "efisien", "segera"])
        )
        path = tmp_path / "audit.jsonl"
        append_audit(path, [first])
        head = path.read_bytes()
        append_audit(path, [torn])
        record = path.read_bytes()[len(head) :]
        append_audit(tmp_path / "batch.jsonl", [batch])
        appended = (tmp_path / "batch.jsonl").read_bytes()
        for prefix in (head, b""):
            for cut in range(1, len(record)):  # every cut that leaves no newline
                path.write_bytes(prefix + record[:cut])
                assert append_audit(path, [batch]) == cut
                assert path.read_bytes() == prefix + appended
                assert load_audit(path) == ([first] if prefix else []) + [batch]
            path.write_bytes(prefix + record)  # whole: nothing to cut
            assert append_audit(path, [batch]) == 0
            assert path.read_bytes() == prefix + record + appended

    @pytest.mark.parametrize("char", LINE_BREAKS)
    def test_queue_doc_with_a_line_break_other_than_newline(self, tmp_path, char):
        candidates = [
            CandidateWord(("akan",), (Occurrence(f"a{char}b.txt", Span(0, 4)),)),
            CandidateWord(("segera",), (Occurrence(char, Span(5, 11)),)),
        ]
        path = tmp_path / "queue.jsonl"
        save_candidates(candidates, path)
        assert path.read_text(encoding="utf-8").count("\n") == 2
        assert load_candidates(path) == candidates

    @pytest.mark.parametrize("char", LINE_BREAKS)
    def test_audit_reviewer_with_a_line_break_other_than_newline(self, tmp_path, char):
        decisions = [
            ReviewDecision(("akan",), "reject", reviewer=f"pakar{char}dua"),
            ReviewDecision(("segera",), "accept", frozenset({tag("T")}), reviewer=char),
        ]
        path = tmp_path / "audit.jsonl"
        append_audit(path, decisions)
        assert path.read_text(encoding="utf-8").count("\n") == 2
        assert load_audit(path) == decisions

    def test_curate_sized_files_read_back_to_the_same_bytes(self, tmp_path):
        """save(load(f)) == f for a lexicon, a queue and an audit log of 3,000+ records."""
        rng = random.Random(3016)
        lexicon = random_lexicon(rng, size=3016)
        lexicon_text = dumps_lexicon(lexicon)
        # dumps_lexicon encodes each tail once: the same text as record by record
        assert lexicon_text == dumps_jsonl(map(entry_to_record, lexicon.entries()))
        path = tmp_path / "lexicon.jsonl"
        path.write_text(lexicon_text, encoding="utf-8")
        assert dumps_lexicon(load_lexicon(path)) == lexicon_text

        phrases = [entry.phrase for entry in lexicon.entries()]
        candidates = [
            CandidateWord(
                phrase,
                tuple(
                    Occurrence(rng.choice(["a.txt", "b.txt", "c\u2028.txt"]), Span(k, k + 5))
                    for k in range(rng.randint(1, 3))
                ),
                suggested_tags=random_tags(rng, allow_empty=True),
                criterion_hits=frozenset(rng.sample(sorted(CRITERIA), rng.randint(1, 2))),
            )
            for phrase in phrases
        ]
        path = tmp_path / "queue.jsonl"
        save_candidates(candidates, path)
        queue_bytes = path.read_bytes()
        save_candidates(load_candidates(path), tmp_path / "queue2.jsonl")
        assert (tmp_path / "queue2.jsonl").read_bytes() == queue_bytes

        decisions = [
            ReviewDecision(
                phrase,
                verdict,
                random_tags(rng, allow_empty=verdict == "reject"),
                reviewer=rng.choice(["pakar", "penyemak", "p\x85"]),
                timestamp="2026-01-01T00:00:00+00:00",
                note=rng.choice([None, "nota", "baris\u2029dua"]),
                force=rng.random() < 0.1,
            )
            for phrase in phrases
            for verdict in [rng.choice(["accept", "reject"])]
        ]
        path = tmp_path / "audit.jsonl"
        append_audit(path, decisions)
        audit_bytes = path.read_bytes()
        append_audit(tmp_path / "audit2.jsonl", load_audit(path))
        assert (tmp_path / "audit2.jsonl").read_bytes() == audit_bytes


class TestAuditReplay:
    def test_replay_reproduces_final_repository(self, tmp_path):
        rng = random.Random(777)
        for trial in range(30):
            repo = random_lexicon(rng, rng.randint(2, 12))
            initial_path = tmp_path / f"initial{trial}.jsonl"
            save_lexicon(repo, initial_path)
            audit_path = tmp_path / f"audit{trial}.jsonl"
            if audit_path.exists():
                audit_path.unlink()

            status = {e.phrase: e.status for e in repo.entries()}
            phrases = list(status)
            for _ in range(rng.randint(1, 10)):
                if phrases and rng.random() < 0.7:
                    phrase = rng.choice(phrases)
                else:
                    phrase = random_phrase(rng)
                verdict = rng.choice(["accept", "reject"])
                decided = status.get(phrase) in ("verified", "rejected")
                decision = ReviewDecision(
                    phrase=phrase,
                    verdict=verdict,
                    final_tags=(
                        random_tags(rng)
                        if verdict == "accept"
                        else random_tags(rng, allow_empty=True)
                    ),
                    reviewer="r",
                    timestamp=f"2026-01-01T00:00:{rng.randint(0, 59):02d}+00:00",
                    force=decided,
                )
                record_decision(repo, decision)
                append_audit(audit_path, [decision])
                status[phrase] = (
                    "verified" if verdict == "accept" else "rejected"
                )
                if phrase not in phrases:
                    phrases.append(phrase)

            final_bytes = dumps_lexicon(repo).encode()
            replayed = replay_audit(load_lexicon(initial_path), load_audit(audit_path))
            assert dumps_lexicon(replayed).encode() == final_bytes


# --- the candidate table against the per-probe seed extraction ---

# words whose case variants fold together: "straße", "STRASSE" and "Strasse"
# all probe "strasse"
ORACLE_WORDS = [
    "segera", "data", "itu", "efisien", "alam", "papar", "masa", "nyata",
    "laporan", "ss", "ß", "strasse", "straße",
]
ORACLE_PUNCT = [",", ".", "!", "\n", "3", "dll."]
ORACLE_FILTERS = [
    FilterConfig(),
    FilterConfig(
        english_words=frozenset({"data"}),
        malay_words=frozenset({"segera", "data", "itu", "masa"}),
    ),
]
ORACLE_TAGS = ["IMP", "IMP.general", "CON.verb", "T", "WN"]

# mostly lower case: a capitalized word mid-sentence is filtered as a name
cased_words = st.tuples(
    st.sampled_from(ORACLE_WORDS),
    st.sampled_from([str.lower, str.lower, str.lower, str.upper, str.title]),
).map(lambda pair: pair[1](pair[0]))
phrases = st.lists(cased_words, min_size=1, max_size=4).map(" ".join)


@st.composite
def extraction_inputs(draw):
    """A corpus with a hint lexicon, rule lists and a POS dictionary over it."""
    hints = draw(st.lists(st.tuples(
        phrases,
        st.sampled_from(STATUSES),
        st.sets(st.sampled_from(ORACLE_TAGS), min_size=1, max_size=2),
    ), max_size=8))
    entries = {}
    for text, status, tags in hints:
        phrase = normalize_phrase(text)
        entries.setdefault(phrase, LexiconEntry(
            phrase, tags=frozenset(map(AttributeTag.parse, tags)), status=status
        ))
    listed = draw(st.lists(st.tuples(
        phrases, st.sets(st.sampled_from(ATTRIBUTES), min_size=1, max_size=3)
    ), max_size=6))
    rule_lines = {attribute: [] for attribute in ATTRIBUTES}
    for text, attributes in listed:
        for attribute in attributes:
            rule_lines[attribute].append(text)
    words = draw(st.lists(st.tuples(
        cased_words,
        st.sets(st.sampled_from(sorted(POS_LABELS)), max_size=3),
        st.none() | st.integers(0, 4),
    ), max_size=6))
    posdict = PosDictionary()
    for word, classes, senses in words:
        if word not in posdict:
            posdict.add(word, classes, senses)
    # the texts also quote the drawn phrases and words, so that they occur
    pieces = cased_words | st.sampled_from(ORACLE_PUNCT)
    known = [text for text, *_ in hints + listed + words]
    if known:
        pieces |= st.sampled_from(known)
    texts = draw(st.lists(
        st.lists(pieces, min_size=4, max_size=40).map(" ".join),
        min_size=1,
        max_size=3,
    ))
    return (
        Lexicon(entries.values()),
        rule_lines,
        draw(st.none() | st.just(posdict)),
        [mk_doc(text, doc_id=f"d{i}") for i, text in enumerate(texts)],
        draw(st.sampled_from(ORACLE_FILTERS)),
        draw(st.integers(0, 4)),
    )


def through_pickle(value):
    return pickle.loads(pickle.dumps(value))


def pickling_map(task, docs):
    """In-process stand-in for the CLI's pool: the task, each document and
    each result go through pickle, as they would to and from a worker."""
    task = through_pickle(task)
    return [through_pickle(task(through_pickle(doc))) for doc in docs]


def assert_table_matches_oracle(lexicon, rule_lines, posdict, docs, cfg, threshold):
    """Serial and --jobs-style extraction equal the seed's, field by field."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for attribute, lines in rule_lines.items():
            paths[attribute] = Path(tmp) / f"{attribute}.txt"
            paths[attribute].write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        rules = load_rule_lists(paths)
        seed_rules = oracle.RuleLists.load(paths)
    want = oracle.extract_candidates(
        docs, lexicon, posdict, seed_rules, cfg, sense_threshold=threshold
    )
    got = extract_candidates(docs, lexicon, posdict, rules, cfg, sense_threshold=threshold)
    pooled = extract_candidates(
        docs, lexicon, posdict, rules, cfg, sense_threshold=threshold,
        map_documents=pickling_map,
    )
    for result in (got, pooled):
        # CandidateWord equality covers occurrences, suggested tags and hits
        assert result.candidates == want.candidates
        assert result.filter_counts == want.filter_counts
        assert (result.tokens_read, result.documents) == (want.tokens_read, want.documents)
    return got


class TestCandidateTableOracle:
    @settings(max_examples=300, deadline=None)
    @given(extraction_inputs())
    def test_property(self, inputs):
        assert_table_matches_oracle(*inputs)

    def test_every_criterion_and_case_variant(self):
        lexicon = Lexicon([
            entry("masa nyata", tags=("T",), status="candidate"),
            entry("laporan", tags=("WN",), status="rejected"),
            entry("straße", tags=("VAR",)),
        ])
        rule_lines = {attribute: [] for attribute in ATTRIBUTES}
        rule_lines["IMP"] = ["Segera", "data itu"]
        rule_lines["T"] = ["SEGERA", "masa"]
        rule_lines["WN"] = ["laporan"]
        posdict = PosDictionary()
        posdict.add("STRASSE", {"kk", "adj"}, 3)
        posdict.add("alam", {"kk"}, 2)
        posdict.add("papar", {"kk", "kn"}, 1)
        docs = [
            mk_doc("Sistem segera papar data itu. Masa nyata, straße dan alam.", doc_id="a"),
            mk_doc("Straße laporan masa segera.", doc_id="b"),
        ]
        result = assert_table_matches_oracle(
            lexicon, rule_lines, posdict, docs, PLAIN_FILTERS, 2
        )
        hits = {c.phrase: c.criterion_hits for c in result.candidates}
        assert hits[("segera",)] == frozenset({ATTRIBUTE_MEMBER, VAGUE_POS})
        assert hits[("data", "itu")] == frozenset({ATTRIBUTE_MEMBER, VAGUE_POS})
        assert hits[("masa", "nyata")] == frozenset({ATTRIBUTE_MEMBER})
        assert hits[("alam",)] == frozenset({MULTI_SENSE})
        assert hits[("papar",)] == frozenset({MULTI_POS})
        # rejected in the hint lexicon, so no rule list makes it a candidate
        assert ("laporan",) not in hits
        assert hits[("strasse",)] == frozenset({ATTRIBUTE_MEMBER, MULTI_POS, MULTI_SENSE})
        tags = {c.phrase: c.suggested_tags for c in result.candidates}
        assert tags[("segera",)] == frozenset({tag("IMP"), tag("T")})


# --- windows of sentences: a scan reads SENTENCE_WINDOW sentences per stage call ---

# a window's last sentence ends on "masa" (of the verified hint "masa
# nyata"); the next window's first opens with "nyata", a capitalized word or
# a symbol; two filler sentences inside a window straddle "masa nyata" too
WINDOW_LAST = ["Sistem papar data masa.", "Laporan itu segera masa!"]
WINDOW_FIRST = ["nyata segera papar data.", "Segera papar data itu.", "— Segera alam, Papar."]
WINDOW_FILLER = ["Sistem segera papar data masa.", "nyata, straße dan alam.", "Masa nyata 3 dll."]
# one window less one sentence, one, one and a sentence, and three and a sentence
WINDOW_COUNTS = [
    SENTENCE_WINDOW - 1, SENTENCE_WINDOW, SENTENCE_WINDOW + 1, 3 * SENTENCE_WINDOW + 1
]


def window_document(count: int) -> str:
    """count sentences, with the boundary cases at every window's end and start."""
    sentences = []
    for i in range(count):
        window, k = divmod(i, SENTENCE_WINDOW)
        if k == 0 and window:
            sentences.append(WINDOW_FIRST[window % 3])
        elif k == SENTENCE_WINDOW - 1 or i == count - 1:
            sentences.append(WINDOW_LAST[window % 2])
        else:
            sentences.append(WINDOW_FILLER[i % len(WINDOW_FILLER)])
    return "\n".join(sentences)


class TestScanWindowBoundaries:
    @pytest.mark.parametrize("count", WINDOW_COUNTS)
    def test_scan_equals_the_reference(self, count):
        lexicon = Lexicon([entry("masa nyata", tags=("T",)), entry("alam", tags=("WN",))])
        rule_lines = {attribute: [] for attribute in ATTRIBUTES}
        rule_lines["IMP"] = ["segera", "data itu"]
        posdict = PosDictionary()
        posdict.add("papar", {"kk", "kn"}, 1)
        text = window_document(count)
        assert len(segment_sentences(mk_doc(text))) == count
        for cfg in ORACLE_FILTERS:
            result = assert_table_matches_oracle(
                lexicon, rule_lines, posdict, [mk_doc(text, doc_id="w")], cfg, 2
            )
            spots = {c.phrase: c.occurrences for c in result.candidates}
            # "masa" then "nyata" across a sentence end never matches
            matched = {
                text.encode()[o.span.start : o.span.end].decode().casefold()
                for o in spots[("masa", "nyata")]
            }
            assert matched == {"masa nyata"}
