"""Candidate mining, attribute mapping and the verification workflow.

Candidates are mined from the post-filter token stream, one per distinct
normalized phrase, with occurrence spans kept as evidence for reviewers.
Review decisions are appended to a JSON-lines audit log whose records are
self-contained: replaying the log over the initial repository reproduces
the final repository byte for byte.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from .analyzer import ATTRIBUTE_MEMBER, CRITERIA, MULTI_POS, MULTI_SENSE, VAGUE_POS
from .errors import LexiconError, ReviewError, WordlistError
from .fileio import check_record, read_jsonl, read_lines, write_atomic
from .filters import FilterConfig, FilterCounts, apply_filters
from .lexicon import (
    ATTRIBUTES,
    POS_TO_CON_SUB,
    STATUS_CANDIDATE,
    STATUS_REJECTED,
    STATUS_VERIFIED,
    AttributeTag,
    Lexicon,
    LexiconEntry,
    PosDictionary,
    longest_matches,
    normalize_phrase,
    sorted_tags,
)
from .textcore import Document, Span, iter_sentence_tokens

PENDING = "pending"
ACCEPTED = "accepted"
REJECTED = "rejected"
CANDIDATE_STATUSES = (PENDING, ACCEPTED, REJECTED)

VERDICT_ACCEPT = "accept"
VERDICT_REJECT = "reject"


@dataclass(frozen=True)
class Occurrence:
    doc_id: str
    span: Span


@dataclass(frozen=True)
class CandidateWord:
    """A potentially ambiguous phrase awaiting mapping and verification."""

    phrase: tuple[str, ...]
    occurrences: tuple[Occurrence, ...]
    suggested_tags: frozenset[AttributeTag] = frozenset()
    criterion_hits: frozenset[str] = frozenset()
    status: str = PENDING

    @property
    def phrase_text(self) -> str:
        return " ".join(self.phrase)

    @property
    def unmapped(self) -> bool:
        return not self.suggested_tags


class RuleLists:
    """Per-attribute phrase lists driving the attribute mapping step."""

    def __init__(self, by_attribute: dict[str, Iterable[Sequence[str]]] | None = None):
        self._phrases: dict[str, frozenset[tuple[str, ...]]] = {}
        self._max_len = 1
        for attribute in ATTRIBUTES:
            phrases = frozenset(
                tuple(p) for p in (by_attribute or {}).get(attribute, ())
            )
            self._phrases[attribute] = phrases
            for p in phrases:
                self._max_len = max(self._max_len, len(p))

    @classmethod
    def load(cls, paths: dict[str, str | Path]) -> "RuleLists":
        """Load one phrase-per-line list files keyed by attribute."""
        by_attribute: dict[str, list[tuple[str, ...]]] = {}
        for attribute, path in paths.items():
            if attribute not in ATTRIBUTES:
                raise WordlistError(f"unknown rule list attribute {attribute!r}")
            by_attribute[attribute] = [
                normalize_phrase(entry)
                for _where, entry in read_lines(path, "rule list", WordlistError)
            ]
        return cls(by_attribute)

    def attributes_for(self, phrase: Sequence[str]) -> set[str]:
        key = tuple(phrase)
        return {a for a, phrases in self._phrases.items() if key in phrases}

    def tags_for(self, phrase: Sequence[str]) -> set[AttributeTag]:
        return {AttributeTag(a) for a in self.attributes_for(phrase)}

    @property
    def max_phrase_len(self) -> int:
        return self._max_len


def _phrase_criteria(
    phrase: tuple[str, ...],
    lex_hints: Lexicon,
    posdict: PosDictionary | None,
    rules: RuleLists,
    sense_threshold: int,
) -> set[str]:
    """Criterion hits that make this phrase a candidate (empty set: none)."""
    hits: set[str] = set()
    entry = lex_hints.get(phrase)
    if entry is not None and entry.status in (STATUS_CANDIDATE, STATUS_VERIFIED):
        hits.add(ATTRIBUTE_MEMBER)
    rule_attrs = rules.attributes_for(phrase)
    if rule_attrs:
        hits.add(ATTRIBUTE_MEMBER)
        if "IMP" in rule_attrs:
            # the IMP list seeds the vague adjective/adverb/verb criterion
            hits.add(VAGUE_POS)
    if len(phrase) == 1 and posdict is not None:
        word = phrase[0]
        if len(posdict.pos_classes(word)) >= 2:
            hits.add(MULTI_POS)
        senses = posdict.sense_count(word)
        if senses is not None and senses >= sense_threshold:
            hits.add(MULTI_SENSE)
    return hits


def map_candidate_attributes(
    candidate: CandidateWord,
    lex_hints: Lexicon,
    posdict: PosDictionary | None,
    rules: RuleLists,
) -> frozenset[AttributeTag]:
    """Suggest tags: lexicon hints, rule lists and POS-derived CON subs.

    An empty result marks the candidate as unmapped for the reviewer.
    """
    tags: set[AttributeTag] = set()
    entry = lex_hints.get(candidate.phrase)
    if entry is not None and entry.status != STATUS_REJECTED:
        tags |= entry.tags
    tags |= rules.tags_for(candidate.phrase)
    if len(candidate.phrase) == 1 and posdict is not None:
        for pos in posdict.pos_classes(candidate.phrase[0]):
            sub = POS_TO_CON_SUB.get(pos)
            if sub is not None:
                tags.add(AttributeTag("CON", sub))
    return frozenset(tags)


@dataclass
class ExtractionResult:
    candidates: list[CandidateWord]
    filter_counts: FilterCounts
    tokens_read: int = 0
    documents: int = 0


def _scan_document(
    doc: Document,
    lex_hints: Lexicon,
    posdict: PosDictionary | None,
    rules: RuleLists,
    filter_cfg: FilterConfig,
    sense_threshold: int,
) -> ExtractionResult:
    """One document's unmapped candidates, one per phrase, in scan order."""
    counts = FilterCounts()
    tokens_read = 0
    limit = max(lex_hints.max_phrase_len, rules.max_phrase_len, 1)
    occurrences: dict[tuple[str, ...], list[Occurrence]] = {}
    hits_by_phrase: dict[tuple[str, ...], set[str]] = {}

    def criteria(phrase: tuple[str, ...]) -> set[str]:
        return _phrase_criteria(phrase, lex_hints, posdict, rules, sense_threshold)

    for _sentence, tokens in iter_sentence_tokens(doc, filter_cfg.abbreviations):
        tokens_read += len(tokens)
        sentence_report = apply_filters(tokens, filter_cfg)
        counts.add(sentence_report)
        kept = sentence_report.kept
        words = [t.normalized for t in kept]
        for start, end, hits in longest_matches(words, limit, criteria):
            phrase = tuple(words[start:end])
            span = Span(kept[start].span.start, kept[end - 1].span.end)
            occurrences.setdefault(phrase, []).append(Occurrence(doc.id, span))
            hits_by_phrase.setdefault(phrase, set()).update(hits)
    candidates = [
        CandidateWord(p, tuple(spots), criterion_hits=frozenset(hits_by_phrase[p]))
        for p, spots in occurrences.items()
    ]
    return ExtractionResult(candidates, counts, tokens_read, documents=1)


def extract_candidates(
    corpus: Sequence[Document],
    lex_hints: Lexicon,
    posdict: PosDictionary | None,
    rules: RuleLists,
    filter_cfg: FilterConfig | None = None,
    *,
    sense_threshold: int = 2,
) -> ExtractionResult:
    """Mine candidate phrases from a corpus (longest phrase wins per spot).

    A kept word (or kept-adjacent phrase) becomes a candidate when it has
    two or more POS classes, reaches the sense-count threshold, appears in
    the hint lexicon as candidate/verified, or appears in a rule list.
    Each document is scanned on its own and the scans end in one
    merge_results call, the same reduction that combines per-document
    results under --jobs N, so any job count gives the same result.
    """
    filter_cfg = filter_cfg or FilterConfig()
    scans = [
        _scan_document(doc, lex_hints, posdict, rules, filter_cfg, sense_threshold)
        for doc in corpus
    ]
    return merge_results(scans, lex_hints, posdict, rules)


def merge_results(
    results: Sequence[ExtractionResult],
    lex_hints: Lexicon,
    posdict: PosDictionary | None,
    rules: RuleLists,
) -> ExtractionResult:
    """The one reduction of per-document extraction results, in input order.

    Candidates become unique by phrase, with occurrences concatenated in
    input order and criterion hits united, then sorted by phrase and mapped
    onto suggested tags. extract_candidates ends here for --jobs 1, and
    --jobs N merges its per-document results here, so both give the same
    bytes.
    """
    counts = FilterCounts()
    occurrences: dict[tuple[str, ...], list[Occurrence]] = {}
    hits_by_phrase: dict[tuple[str, ...], set[str]] = {}
    tokens_read = 0
    documents = 0
    for result in results:
        counts.update(result.filter_counts)
        tokens_read += result.tokens_read
        documents += result.documents
        for candidate in result.candidates:
            occurrences.setdefault(candidate.phrase, []).extend(candidate.occurrences)
            hits_by_phrase.setdefault(candidate.phrase, set()).update(
                candidate.criterion_hits
            )
    candidates = []
    for phrase in sorted(occurrences):
        candidate = CandidateWord(
            phrase,
            tuple(occurrences[phrase]),
            criterion_hits=frozenset(hits_by_phrase[phrase]),
        )
        tags = map_candidate_attributes(candidate, lex_hints, posdict, rules)
        candidates.append(replace(candidate, suggested_tags=tags))
    return ExtractionResult(candidates, counts, tokens_read, documents)


@dataclass(frozen=True)
class ReviewDecision:
    """A recorded expert verdict for one candidate phrase."""

    phrase: tuple[str, ...]
    verdict: str
    final_tags: frozenset[AttributeTag] = frozenset()
    reviewer: str = ""
    timestamp: str = ""
    note: str | None = None
    force: bool = False

    def validate(self) -> None:
        if not self.phrase:
            raise ReviewError("decision phrase must be non-empty")
        if self.verdict not in (VERDICT_ACCEPT, VERDICT_REJECT):
            raise ReviewError(f"unknown verdict {self.verdict!r}")
        if self.verdict == VERDICT_ACCEPT and not self.final_tags:
            raise ReviewError(
                f"accepting {' '.join(self.phrase)!r} requires at least one tag"
            )


def record_decision(repo: Lexicon, decision: ReviewDecision) -> LexiconEntry:
    """Apply one decision to the repository and return the updated entry.

    Statuses only move forward (candidate or new to verified/rejected);
    overriding an already-decided entry requires the decision's force flag.
    Uses nothing but the repository and the decision itself, so an audit
    log of decisions replays to an identical repository.
    """
    decision.validate()
    existing = repo.get(decision.phrase)
    if (
        existing is not None
        and existing.status in (STATUS_VERIFIED, STATUS_REJECTED)
        and not decision.force
    ):
        raise ReviewError(
            f"{' '.join(decision.phrase)!r} is already {existing.status}; "
            "re-review requires --force"
        )
    if decision.verdict == VERDICT_ACCEPT:
        status = STATUS_VERIFIED
        tags = decision.final_tags
    else:
        status = STATUS_REJECTED
        tags = decision.final_tags or (existing.tags if existing else frozenset())
    note = decision.note if decision.note is not None else (
        existing.note if existing else None
    )
    entry = LexiconEntry(
        phrase=tuple(decision.phrase),
        pos_classes=existing.pos_classes if existing else frozenset(),
        sense_count=existing.sense_count if existing else None,
        tags=tags,
        status=status,
        note=note,
        source=existing.source if existing else "extracted",
    )
    repo.replace(entry)
    return entry


# --- queue and audit-log persistence (JSON lines) ---

_CANDIDATE_KINDS = {
    "phrase": list,
    "tags": list,
    "criteria": list,
    "occurrences": {"doc": str, "start": int, "end": int},
    "status": str,
}
_DECISION_KINDS = {
    "phrase": list,
    "verdict": str,
    "tags": list,
    "reviewer": str,
    "timestamp": str,
    "note": str,
    "force": bool,
}


def candidate_to_record(candidate: CandidateWord) -> dict:
    return {
        "phrase": list(candidate.phrase),
        "tags": [str(t) for t in sorted_tags(candidate.suggested_tags)],
        "criteria": sorted(candidate.criterion_hits, key=CRITERIA.index),
        "occurrences": [
            {"doc": o.doc_id, "start": o.span.start, "end": o.span.end}
            for o in candidate.occurrences
        ],
        "status": candidate.status,
    }


def record_to_candidate(record: object, where: str = "record") -> CandidateWord:
    check_record(record, _CANDIDATE_KINDS, where, ReviewError, required=("phrase",))
    try:
        candidate = CandidateWord(
            phrase=normalize_phrase(record["phrase"]),
            occurrences=tuple(
                Occurrence(o["doc"], Span(o["start"], o["end"]))
                for o in record.get("occurrences", ())
            ),
            suggested_tags=frozenset(map(AttributeTag.parse, record.get("tags", ()))),
            criterion_hits=frozenset(record.get("criteria", ())),
            status=record.get("status", PENDING),
        )
    except (LexiconError, ValueError) as exc:
        raise ReviewError(f"{where}: malformed candidate ({exc})") from None
    if not candidate.occurrences:
        raise ReviewError(f"{where}: candidate must have at least one occurrence")
    if candidate.status not in CANDIDATE_STATUSES:
        raise ReviewError(f"{where}: unknown status {candidate.status!r}")
    unknown_criteria = candidate.criterion_hits - set(CRITERIA)
    if unknown_criteria:
        raise ReviewError(f"{where}: unknown criteria {sorted(unknown_criteria)}")
    return candidate


def save_candidates(candidates: Sequence[CandidateWord], path: str | Path) -> None:
    lines = [json.dumps(candidate_to_record(c), ensure_ascii=False) for c in candidates]
    write_atomic(path, "".join(line + "\n" for line in lines))


def load_candidates(path: str | Path) -> list[CandidateWord]:
    return [
        record_to_candidate(record, where)
        for where, record in read_jsonl(path, "candidate queue", ReviewError)
    ]


def decision_to_record(decision: ReviewDecision) -> dict:
    record: dict = {
        "phrase": list(decision.phrase),
        "verdict": decision.verdict,
        "tags": [str(t) for t in sorted_tags(decision.final_tags)],
        "reviewer": decision.reviewer,
        "timestamp": decision.timestamp,
    }
    if decision.note is not None:
        record["note"] = decision.note
    if decision.force:
        record["force"] = True
    return record


def record_to_decision(record: object, where: str = "record") -> ReviewDecision:
    check_record(
        record, _DECISION_KINDS, where, ReviewError, required=("phrase", "verdict")
    )
    try:
        decision = ReviewDecision(
            phrase=normalize_phrase(record["phrase"]),
            verdict=record["verdict"],
            final_tags=frozenset(map(AttributeTag.parse, record.get("tags", ()))),
            reviewer=record.get("reviewer", ""),
            timestamp=record.get("timestamp", ""),
            note=record.get("note"),
            force=record.get("force", False),
        )
        decision.validate()
    except (LexiconError, ReviewError) as exc:
        raise ReviewError(f"{where}: {exc}") from None
    return decision


def append_audit(path: str | Path, decision: ReviewDecision) -> None:
    with open(path, "a", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(decision_to_record(decision), ensure_ascii=False) + "\n")


def load_audit(path: str | Path, what: str = "audit log") -> list[ReviewDecision]:
    """Decisions from a JSON-lines file: an audit log or a batch file."""
    return [
        record_to_decision(record, where)
        for where, record in read_jsonl(path, what, ReviewError)
    ]


def replay_audit(repo: Lexicon, decisions: Iterable[ReviewDecision]) -> Lexicon:
    """Apply logged decisions in order; repo is mutated and returned."""
    for decision in decisions:
        record_decision(repo, decision)
    return repo
