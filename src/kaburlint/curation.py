"""Expert verification: the candidate queue, review decisions and the audit log.

Nothing here tokenizes or lints, so review loads neither textcore nor
analyzer. Queued and decided phrases follow the lexicon's phrase rule
(lexicon.check_phrase), so the queue and the audit log hold no phrase the
lexicon would refuse, and a queue lists each phrase once. Review decisions
are appended to a JSON-lines audit log whose records are self-contained:
replaying the log over the initial repository reproduces the final
repository byte for byte.

A decision whose outcome the repository already holds (the same status,
tags and note) changes nothing and needs no force flag. So a review that
crashed after appending its batch to the audit log, but before saving the
lexicon, can be run again: the log then holds the batch twice, and the
second copy replays as a no-op.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from pathlib import Path

from .errors import LexiconError, ReviewError
from .fileio import check_record, dumps_jsonl, load_jsonl, write_atomic
from .lexicon import (
    STATUS_REJECTED,
    STATUS_VERIFIED,
    AttributeTag,
    Lexicon,
    LexiconEntry,
    check_phrase,
    normalize_phrase,
    tag_texts,
)
from .records import CRITERIA, Record, Span

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


def queue_status(phrase: tuple[str, ...], status: str, lexicon: Lexicon) -> str:
    """A queued phrase's status as the lexicon decides it.

    A phrase the lexicon holds as verified is accepted and one it holds as
    rejected is rejected; any other keeps status (pending from extract).
    extract and map both set each candidate's status here.
    """
    entry = lexicon.get(phrase)
    return status if entry is None else _DECIDED.get(entry.status, status)


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
        check_phrase(self.phrase, "decision")
        if self.verdict not in (VERDICT_ACCEPT, VERDICT_REJECT):
            raise ReviewError(f"unknown verdict {self.verdict!r}")
        if self.verdict == VERDICT_ACCEPT and not self.final_tags:
            raise ReviewError(
                f"accepting {' '.join(self.phrase)!r} requires at least one tag"
            )


def _now_iso() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def resolve_decision(
    decision: ReviewDecision,
    queue: dict[tuple[str, ...], CandidateWord],
    default_reviewer: str,
    force_flag: bool,
) -> ReviewDecision:
    """A decision on a queued phrase as review records it, defaults filled in.

    A rejection without tags keeps the candidate's suggested tags.
    """
    candidate = queue.get(decision.phrase)
    if candidate is None:
        raise ReviewError(f"no candidate in queue for phrase {' '.join(decision.phrase)!r}")
    tags = decision.final_tags
    if decision.verdict == VERDICT_REJECT and not tags:
        tags = candidate.suggested_tags
    return ReviewDecision(
        decision.phrase, decision.verdict, tags, decision.reviewer or default_reviewer,
        decision.timestamp or _now_iso(), decision.note, decision.force or force_flag,
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
    try:
        check_phrase(candidate.phrase, "candidate")
    except LexiconError as exc:
        raise ReviewError(f"{where}: {exc}") from None
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
    """The queue's candidates in file order; a phrase listed twice is refused.

    review keys the queue by phrase, so a second listing would be saved as
    a copy of the last; it is refused with its file:line instead, as
    load_lexicon refuses a second entry.
    """
    candidates: dict[tuple[str, ...], CandidateWord] = {}

    def parse(record: object, where: str) -> CandidateWord:
        candidate = record_to_candidate(record, where)
        if candidate.phrase in candidates:
            raise ReviewError(f"{where}: duplicate phrase {candidate.phrase_text!r}")
        return candidate

    def quick(record: dict, ref: CandidateWord) -> CandidateWord:
        words, items = record["phrase"], record["occurrences"]
        # check_phrase inline: joined by spaces, only tokens that are neither
        # empty nor hold whitespace split back into themselves
        if (words.__class__ is not list or not words or " ".join(words).split() != words
                or items.__class__ is not list or not items):
            raise ValueError
        occurrences = []
        for item in items:
            doc, start, end = item["doc"], item["start"], item["end"]
            if len(item) != 3 or (doc.__class__, start.__class__, end.__class__) != (str, int, int):
                raise ValueError
            occurrences.append(Occurrence(doc, Span(start, end)))
        phrase = normalize_phrase(words)
        if phrase in candidates:
            raise ValueError
        return CandidateWord(
            phrase, tuple(occurrences), ref.suggested_tags, ref.criterion_hits, ref.status
        )

    for candidate in load_jsonl(
        path, "candidate queue", ReviewError, parse, quick, ("phrase", "occurrences")
    ):
        candidates[candidate.phrase] = candidate
    return list(candidates.values())


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
    # check_phrase inline, as in load_candidates
    if (phrase.__class__ is not list or not phrase or " ".join(phrase).split() != phrase
            or timestamp.__class__ is not str):
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
