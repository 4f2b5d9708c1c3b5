"""Candidate mining, attribute mapping and the verification workflow.

Candidates are mined from the post-filter token stream, one per distinct
normalized phrase, with occurrence spans kept as evidence for reviewers.
Which phrases are candidates, and with which criterion hits, comes from
one candidate index built per run from the hint lexicon, the rule lists
and the POS dictionary (candidate_criteria, a lexicon.PhraseIndex). The
scan matches it against a window of sentences' kept words at a time,
read from the filter report's columns, and builds an Occurrence only for
a hit, with the spans of a window's hits from one Tokens.locate call.
Review decisions are appended to a JSON-lines audit log whose records are
self-contained: replaying the log over the initial repository reproduces
the final repository byte for byte.

A decision whose outcome the repository already holds (the same status,
tags and note) changes nothing and needs no force flag. So a review that
crashed after appending its batch to the audit log, but before saving the
lexicon, can be run again: the log then holds the batch twice, and the
second copy replays as a no-op.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from pathlib import Path

from .analyzer import (
    ATTRIBUTE_MEMBER,
    CRITERIA,
    SENSE_THRESHOLD,
    VAGUE_POS,
    word_heuristics,
)
from .errors import LexiconError, ReviewError
from .fileio import check_record, dumps_jsonl, load_jsonl, write_atomic
from .filters import FilterConfig, FilterCounts, apply_filters
from .lexicon import (
    STATUS_REJECTED,
    STATUS_VERIFIED,
    AttributeTag,
    Lexicon,
    LexiconEntry,
    PhraseIndex,
    PhraseSets,
    PosDictionary,
    con_sub_tags,
    load_rule_lists,
    longest_matches,
    normalize_phrase,
    tag_texts,
)
from .textcore import Document, Record, Span, segment_sentences, tokenize

PENDING = "pending"
ACCEPTED = "accepted"
REJECTED = "rejected"
CANDIDATE_STATUSES = (PENDING, ACCEPTED, REJECTED)

VERDICT_ACCEPT = "accept"
VERDICT_REJECT = "reject"

_DECIDED = {STATUS_VERIFIED: ACCEPTED, STATUS_REJECTED: REJECTED}


class Occurrence(Record, frozen=True):
    """Where a candidate phrase occurs: a document and a byte span in it."""

    __slots__ = ("doc_id", "span")

    def __init__(self, doc_id: str, span: Span) -> None:
        object.__setattr__(self, "doc_id", doc_id)
        object.__setattr__(self, "span", span)


class CandidateWord(Record, frozen=True):
    """A potentially ambiguous phrase awaiting mapping and verification."""

    __slots__ = ("phrase", "occurrences", "suggested_tags", "criterion_hits", "status")

    def __init__(
        self,
        phrase: tuple[str, ...],
        occurrences: tuple[Occurrence, ...],
        suggested_tags: frozenset[AttributeTag] = frozenset(),
        criterion_hits: frozenset[str] = frozenset(),
        status: str = PENDING,
    ) -> None:
        object.__setattr__(self, "phrase", phrase)
        object.__setattr__(self, "occurrences", occurrences)
        object.__setattr__(self, "suggested_tags", suggested_tags)
        object.__setattr__(self, "criterion_hits", criterion_hits)
        object.__setattr__(self, "status", status)

    @property
    def phrase_text(self) -> str:
        return " ".join(self.phrase)

    @property
    def unmapped(self) -> bool:
        return not self.suggested_tags


def candidate_criteria(
    lex_hints: Lexicon,
    posdict: PosDictionary | None,
    rules: PhraseSets,
    sense_threshold: int,
) -> PhraseIndex:
    """The candidate index: each phrase that makes a candidate -> its criterion hits.

    Built once per run: a phrase hits attribute_member when the hint
    lexicon holds it undecided or verified, or a rule list holds it (the
    IMP list also seeds vague_pos); a POS-dictionary word hits the
    criteria of its word_heuristics entry (multi_pos, multi_sense), the
    table lint uses. A phrase the hint lexicon holds as rejected is never
    a candidate: a reviewer has decided it, whatever else names it.
    Phrases with the same hits share one frozenset, so a dictionary of
    many words costs one set per distinct outcome, not one per word.
    """
    shared: dict[frozenset[str], frozenset[str]] = {}
    table: dict[tuple[str, ...], frozenset[str]] = {}

    def add(phrase: tuple[str, ...], names: frozenset[str]) -> None:
        held = table.get(phrase)
        if held is not None:
            names = held | names
        table[phrase] = shared.setdefault(names, names)

    rejected = set()
    member = frozenset({ATTRIBUTE_MEMBER})
    for entry in lex_hints.entries():
        if entry.status == STATUS_REJECTED:
            rejected.add(entry.phrase)
        else:
            add(entry.phrase, member)
    vague_member = frozenset({ATTRIBUTE_MEMBER, VAGUE_POS})
    for phrase, attributes in rules.items():
        add(phrase, vague_member if "IMP" in attributes else member)
    # word_heuristics shares one hits tuple among words with the same outcome
    names_of: dict[tuple, frozenset[str]] = {}
    for word, hits in word_heuristics(posdict, sense_threshold).items():
        names = names_of.get(hits)
        if names is None:
            names = names_of[hits] = frozenset(criterion for criterion, _tags in hits)
        add((word,), names)
    for phrase in rejected:
        table.pop(phrase, None)
    return PhraseIndex(table)


def map_candidate_attributes(
    phrase: tuple[str, ...],
    lex_hints: Lexicon,
    posdict: PosDictionary | None,
    rules: PhraseSets,
) -> frozenset[AttributeTag]:
    """Suggest tags: lexicon hints, rule lists and POS-derived CON subs.

    An empty result marks the candidate as unmapped for the reviewer.
    """
    tags: set[AttributeTag] = set()
    entry = lex_hints.get(phrase)
    if entry is not None and entry.status != STATUS_REJECTED:
        tags |= entry.tags
    tags.update(AttributeTag(a) for a in rules.get(phrase, ()))
    if len(phrase) == 1 and posdict is not None:
        tags |= con_sub_tags(posdict.pos_classes(phrase[0]))
    return frozenset(tags)


class ExtractionResult(Record):
    """Candidates and filter totals of one document's scan or of a whole run."""

    __slots__ = ("candidates", "filter_counts", "tokens_read", "documents")
    _defaults = {"tokens_read": 0, "documents": 0}
    candidates: list[CandidateWord]
    filter_counts: FilterCounts
    tokens_read: int
    documents: int


def scan_document(
    doc: Document,
    criteria: PhraseIndex,
    filter_cfg: FilterConfig,
) -> ExtractionResult:
    """One document's unmapped candidates, one per phrase, in scan order.

    `criteria` is the run's candidate index from candidate_criteria; the
    greedy longest match runs over a window's kept words at a time, within
    each sentence, and only an occurrence gets a span.
    extract_candidates maps this scan over a corpus and merge_results
    combines, sorts and maps the scans.
    """
    counts = FilterCounts()
    tokens_read = 0
    abbreviations = filter_cfg.abbreviations
    occurrences: dict[tuple[str, ...], list[Occurrence]] = {}
    for window in segment_sentences(doc, abbreviations).windows():
        tokens = tokenize(doc, window, abbreviations)
        tokens_read += len(tokens)
        report = apply_filters(tokens, filter_cfg)
        counts.add(report)
        kept = report.kept
        words = list(map(tokens.words.__getitem__, kept))
        # each sentence's first position among the kept words
        heads = [bisect_left(kept, head) for head in tokens.heads]
        hits = longest_matches(words, criteria, heads)
        located = tokens.locate([(kept[start], kept[end - 1]) for start, end, _ in hits])
        for (start, end, _hits), (_s, span, _text) in zip(hits, located):
            occurrences.setdefault(tuple(words[start:end]), []).append(Occurrence(doc.id, span))
        del tokens, report, kept, words  # the next window is read without this one
    candidates = [
        CandidateWord(p, tuple(spots), criterion_hits=criteria.table[p])
        for p, spots in occurrences.items()
    ]
    return ExtractionResult(candidates, counts, tokens_read, documents=1)


def extract_candidates(
    corpus: Sequence[Document],
    lex_hints: Lexicon,
    posdict: PosDictionary | None,
    rules: PhraseSets,
    filter_cfg: FilterConfig | None = None,
    *,
    sense_threshold: int = SENSE_THRESHOLD,
    map_documents: Callable[..., Iterable[ExtractionResult]] = map,
) -> ExtractionResult:
    """Mine candidate phrases from a corpus (longest phrase wins per spot).

    A kept word (or kept-adjacent phrase) becomes a candidate when it has
    two or more POS classes, reaches the sense-count threshold, appears in
    the hint lexicon as candidate/verified, or appears in a rule list. These
    criteria are compiled into one candidate table per run. Each document
    is scanned against it on its own, and the scans end in one
    merge_results call. map_documents(task, corpus) runs the scans: the
    builtin map in-process, or the CLI's pool for --jobs N. The scans
    arrive in corpus order either way, so any job count gives the same
    result.
    """
    criteria = candidate_criteria(lex_hints, posdict, rules, sense_threshold)
    task = partial(scan_document, criteria=criteria, filter_cfg=filter_cfg or FilterConfig())
    # all scans first, so a span around merge_results times the merge alone
    scans = list(map_documents(task, corpus))
    return merge_results(scans, lex_hints, posdict, rules)


def queue_status(phrase: tuple[str, ...], status: str, lexicon: Lexicon) -> str:
    """A queued phrase's status as the lexicon decides it.

    A phrase the lexicon holds as verified is accepted and one it holds as
    rejected is rejected; any other keeps status (pending from extract).
    extract and map both set each candidate's status here.
    """
    entry = lexicon.get(phrase)
    return status if entry is None else _DECIDED.get(entry.status, status)


def merge_results(
    results: Iterable[ExtractionResult],
    lex_hints: Lexicon,
    posdict: PosDictionary | None,
    rules: PhraseSets,
) -> ExtractionResult:
    """The one reduction of per-document extraction results, in input order.

    `results` is any iterable of scans, consumed once. Candidates become
    unique by phrase, with occurrences concatenated in input order, then
    sorted by phrase and mapped onto suggested tags; a phrase's criterion
    hits come from the run's one candidate table, so every scan carries the
    same ones. Each is queued with queue_status, so a phrase the hint
    lexicon holds as verified is accepted and review does not offer it
    again; every other one is pending (rejected phrases are never
    candidates). extract_candidates ends here at any job count.
    """
    counts = FilterCounts()
    occurrences: dict[tuple[str, ...], list[Occurrence]] = {}
    hits_by_phrase: dict[tuple[str, ...], frozenset[str]] = {}
    tokens_read = 0
    documents = 0
    for result in results:
        counts.update(result.filter_counts)
        tokens_read += result.tokens_read
        documents += result.documents
        for candidate in result.candidates:
            occurrences.setdefault(candidate.phrase, []).extend(candidate.occurrences)
            hits_by_phrase.setdefault(candidate.phrase, candidate.criterion_hits)
    candidates = [
        CandidateWord(
            phrase,
            tuple(occurrences[phrase]),
            suggested_tags=map_candidate_attributes(phrase, lex_hints, posdict, rules),
            criterion_hits=hits_by_phrase[phrase],
            status=queue_status(phrase, PENDING, lex_hints),
        )
        for phrase in sorted(occurrences)
    ]
    return ExtractionResult(candidates, counts, tokens_read, documents)


class ReviewDecision(Record, frozen=True):
    """A recorded expert verdict for one candidate phrase."""

    __slots__ = ("phrase", "verdict", "final_tags", "reviewer", "timestamp", "note", "force")

    def __init__(
        self,
        phrase: tuple[str, ...],
        verdict: str,
        final_tags: frozenset[AttributeTag] = frozenset(),
        reviewer: str = "",
        timestamp: str = "",
        note: str | None = None,
        force: bool = False,
    ) -> None:
        object.__setattr__(self, "phrase", phrase)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "final_tags", final_tags)
        object.__setattr__(self, "reviewer", reviewer)
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "note", note)
        object.__setattr__(self, "force", force)

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
    changing an already-decided entry requires the decision's force flag.
    A decision whose outcome the entry already holds returns it unchanged,
    forced or not. Uses nothing but the repository and the decision
    itself, so an audit log of decisions replays to an identical
    repository.
    """
    decision.validate()
    existing = repo.get(decision.phrase)
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
    if existing is not None and existing.status in (STATUS_VERIFIED, STATUS_REJECTED):
        if entry == existing:
            return existing
        if not decision.force:
            raise ReviewError(
                f"{' '.join(decision.phrase)!r} is already {existing.status}; "
                "re-review requires --force"
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
_KNOWN_CRITERIA = frozenset(CRITERIA)
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
        "tags": tag_texts(candidate.suggested_tags),
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
    unknown_criteria = candidate.criterion_hits - _KNOWN_CRITERIA
    if unknown_criteria:
        raise ReviewError(f"{where}: unknown criteria {sorted(unknown_criteria)}")
    return candidate


def save_candidates(candidates: Sequence[CandidateWord], path: str | Path) -> None:
    write_atomic(path, dumps_jsonl(map(candidate_to_record, candidates)))


def load_candidates(path: str | Path) -> list[CandidateWord]:
    return list(load_jsonl(
        path, "candidate queue", ReviewError, record_to_candidate, _quick_candidate,
        ("phrase", "occurrences"),
    ))


def _quick_candidate(record: dict, ref: CandidateWord) -> CandidateWord:
    phrase, items = record["phrase"], record["occurrences"]
    if phrase.__class__ is not list or items.__class__ is not list or not items:
        raise ValueError
    occurrences = []
    for item in items:
        doc, start, end = item["doc"], item["start"], item["end"]
        if len(item) != 3 or (doc.__class__, start.__class__, end.__class__) != (str, int, int):
            raise ValueError
        occurrences.append(Occurrence(doc, Span(start, end)))
    return CandidateWord(
        normalize_phrase(phrase), tuple(occurrences), ref.suggested_tags, ref.criterion_hits,
        ref.status,
    )


def decision_to_record(decision: ReviewDecision) -> dict:
    record: dict = {
        "phrase": list(decision.phrase),
        "verdict": decision.verdict,
        "tags": tag_texts(decision.final_tags),
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


def append_audit(path: str | Path, decisions: Iterable[ReviewDecision]) -> int:
    """Append a batch of decisions in one write and flush it to disk.

    A last line without its newline is a torn write. The batch is on disk
    before the lexicon is saved, so no save followed that line: it was never
    committed. It is cut off, and the cut flushed to disk, before the batch
    is appended, so a batch never runs on from a torn line. Returns the
    number of bytes cut off.
    """
    data = dumps_jsonl(map(decision_to_record, decisions)).encode("utf-8")
    with open(path, "a+b") as handle:
        torn = _cut_torn_tail(handle)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    return torn


_TAIL_BLOCK = 1 << 16


def _cut_torn_tail(handle) -> int:
    """Truncate a log open for reading and appending after its last newline.

    Returns the number of bytes cut off: 0 when the log is empty or ends
    with a newline.
    """
    size = handle.seek(0, os.SEEK_END)
    handle.seek(max(size - 1, 0))
    if handle.read(1) in (b"", b"\n"):
        return 0
    keep = 0
    end = size - 1
    while end > 0:  # read back a block at a time to the last newline
        start = max(end - _TAIL_BLOCK, 0)
        handle.seek(start)
        cut = handle.read(end - start).rfind(b"\n")
        if cut >= 0:
            keep = start + cut + 1
            break
        end = start
    handle.truncate(keep)
    handle.flush()
    os.fsync(handle.fileno())
    return size - keep


def load_audit(path: str | Path, what: str = "audit log") -> list[ReviewDecision]:
    """Decisions from a JSON-lines file: an audit log or a batch file."""
    varying = ("phrase", "timestamp")
    return list(load_jsonl(path, what, ReviewError, record_to_decision, _quick_decision, varying))


def _quick_decision(record: dict, ref: ReviewDecision) -> ReviewDecision:
    phrase, timestamp = record["phrase"], record.get("timestamp", "")
    if phrase.__class__ is not list or not phrase or timestamp.__class__ is not str:
        raise ValueError
    return ReviewDecision(
        normalize_phrase(phrase), ref.verdict, ref.final_tags, ref.reviewer, timestamp, ref.note,
        ref.force,
    )


def replay_audit(repo: Lexicon, decisions: Iterable[ReviewDecision]) -> Lexicon:
    """Apply logged decisions in order; repo is mutated and returned."""
    for decision in decisions:
        record_decision(repo, decision)
    return repo
