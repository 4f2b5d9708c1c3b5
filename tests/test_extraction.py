"""Candidate mining, attribute mapping and review-workflow tests."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import mk_doc, random_lexicon, random_phrase, random_tags
from kaburlint.analyzer import ATTRIBUTE_MEMBER, MULTI_POS, MULTI_SENSE, VAGUE_POS
from kaburlint.errors import ReviewError
from kaburlint.extraction import (
    CandidateWord,
    Occurrence,
    ReviewDecision,
    RuleLists,
    append_audit,
    extract_candidates,
    load_audit,
    load_candidates,
    map_candidate_attributes,
    merge_results,
    record_decision,
    replay_audit,
    save_candidates,
)
from kaburlint.filters import FilterConfig
from kaburlint.lexicon import (
    AttributeTag,
    Lexicon,
    LexiconEntry,
    PosDictionary,
    dumps_lexicon,
    load_lexicon,
    normalize_phrase,
    save_lexicon,
)
from kaburlint.textcore import Span


def tag(text: str) -> AttributeTag:
    return AttributeTag.parse(text)


def seed_rules() -> RuleLists:
    return RuleLists(
        {
            "IMP": [("efisien",), ("segera",), ("secepat", "mungkin")],
            "CON": [("beberapa",)],
            "T": [("bulanan",)],
            "REF": [("sebelum",), ("begini",)],
            "VAR": [("data", "itu")],
            "WN": [("anggaran",)],
        }
    )


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
            docs, Lexicon(), seed_posdict(), RuleLists(), PLAIN_FILTERS
        )
        phrases = {c.phrase: c for c in result.candidates}
        assert ("papar",) in phrases
        assert MULTI_POS in phrases[("papar",)].criterion_hits

    def test_lexicon_hint_criterion_and_suggestion(self):
        docs = [mk_doc("laporan mesti efisien.")]
        result = extract_candidates(
            docs, Lexicon([entry("efisien")]), None, RuleLists(), PLAIN_FILTERS
        )
        (candidate,) = [c for c in result.candidates if c.phrase == ("efisien",)]
        assert candidate.criterion_hits == frozenset({ATTRIBUTE_MEMBER})
        assert candidate.suggested_tags == frozenset({tag("IMP")})

    def test_empty_corpus(self):
        result = extract_candidates([], Lexicon(), None, RuleLists(), PLAIN_FILTERS)
        assert result.candidates == []

    def test_sense_threshold(self):
        docs = [mk_doc("ia akan berlaku.")]
        result = extract_candidates(
            docs, Lexicon(), seed_posdict(), RuleLists(), PLAIN_FILTERS
        )
        phrases = {c.phrase: c for c in result.candidates}
        assert phrases[("akan",)].criterion_hits == frozenset({MULTI_SENSE})
        strict = extract_candidates(
            docs,
            Lexicon(),
            seed_posdict(),
            RuleLists(),
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
            RuleLists(),
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
        candidate = CandidateWord(
            phrase=("bulanan",), occurrences=(Occurrence("d", Span(0, 7)),)
        )
        assert map_candidate_attributes(candidate, Lexicon(), None, rules) == frozenset(
            {tag("T")}
        )
        candidate = CandidateWord(
            phrase=("sebelum",), occurrences=(Occurrence("d", Span(0, 7)),)
        )
        assert map_candidate_attributes(candidate, Lexicon(), None, rules) == frozenset(
            {tag("REF")}
        )

    def test_weakness_included(self):
        candidate = CandidateWord(
            phrase=("anggaran",), occurrences=(Occurrence("d", Span(0, 8)),)
        )
        tags = map_candidate_attributes(candidate, Lexicon(), None, seed_rules())
        assert tag("WN") in tags

    def test_pos_derived_con_subs(self):
        candidate = CandidateWord(
            phrase=("papar",), occurrences=(Occurrence("d", Span(0, 5)),)
        )
        tags = map_candidate_attributes(candidate, Lexicon(), seed_posdict(), RuleLists())
        assert tags == frozenset({tag("CON.adjective"), tag("CON.verb")})
        candidate = CandidateWord(
            phrase=("amat",), occurrences=(Occurrence("d", Span(0, 4)),)
        )
        tags = map_candidate_attributes(candidate, Lexicon(), seed_posdict(), RuleLists())
        assert tags == frozenset({tag("CON.verb"), tag("CON.adverb")})

    def test_unmapped_candidate_is_flagged(self):
        candidate = CandidateWord(
            phrase=("akan",), occurrences=(Occurrence("d", Span(0, 4)),)
        )
        mapped = map_candidate_attributes(candidate, Lexicon(), seed_posdict(), RuleLists())
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
            candidate = CandidateWord(
                phrase=random_phrase(rng),
                occurrences=(Occurrence("d", Span(0, 1)),),
            )
            first = map_candidate_attributes(candidate, Lexicon(), seed_posdict(), rules)
            second = map_candidate_attributes(candidate, Lexicon(), seed_posdict(), rules)
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
            append_audit(path, decision)
        assert load_audit(path) == decisions


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
                append_audit(audit_path, decision)
                status[phrase] = (
                    "verified" if verdict == "accept" else "rejected"
                )
                if phrase not in phrases:
                    phrases.append(phrase)

            final_bytes = dumps_lexicon(repo).encode()
            replayed = replay_audit(load_lexicon(initial_path), load_audit(audit_path))
            assert dumps_lexicon(replayed).encode() == final_bytes
