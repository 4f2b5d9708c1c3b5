"""Lint documents against the verified lexicon and criterion heuristics.

Word matches against verified lexicon entries produce warnings; the
criterion heuristics (multiple POS classes, multiple senses, dangling
else) produce candidate-grade info findings. Reports are deterministically
ordered by (document, start offset) with fixed tiebreakers, so serialized
reports are byte-stable across runs and job counts.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass, field

from .filters import FilterConfig, apply_filters
from .lexicon import (
    ATTRIBUTES,
    POS_TO_CON_SUB,
    AttributeTag,
    Lexicon,
    PosDictionary,
    match_entries,
    sorted_tags,
)
from .textcore import (
    WORD,
    Document,
    Sentence,
    Span,
    Token,
    iter_sentence_tokens,
    line_col,
    slice_span,
)

MULTI_POS = "multi_pos"
MULTI_SENSE = "multi_sense"
VAGUE_POS = "vague_pos"
ATTRIBUTE_MEMBER = "attribute_member"
DANGLING_ELSE = "dangling_else"
REFERENTIAL_SENTENCE = "referential_sentence"

CRITERIA = (
    MULTI_POS,
    MULTI_SENSE,
    VAGUE_POS,
    ATTRIBUTE_MEMBER,
    DANGLING_ELSE,
    REFERENTIAL_SENTENCE,
)

SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

DEFAULT_CONDITIONAL_MARKERS = ("jika", "sekiranya", "apabila")
DEFAULT_ALTERNATIVE_MARKERS = ("jika tidak", "selainnya", "sebaliknya")

# words that end in "nya" without being anaphoric
_CLITIC_STOPLIST = frozenset({"hanya", "tanya", "punya"})


@dataclass(frozen=True)
class Finding:
    """One lint hit, spanning the matched text within its sentence."""

    doc_id: str
    sentence_index: int
    span: Span
    matched: str
    phrase: str  # lexicon phrase; empty for heuristic and sentence-level hits
    tags: frozenset[AttributeTag]
    criterion: str
    severity: str


def _finding_sort_key(f: Finding) -> tuple:
    return (f.span.start, f.span.end, CRITERIA.index(f.criterion), f.phrase)


@dataclass
class LintReport:
    """Findings in a deterministic total order plus summary counts."""

    findings: list[Finding] = field(default_factory=list)

    def extend(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)

    @property
    def attribute_counts(self) -> dict[str, int]:
        counts = {a: 0 for a in ATTRIBUTES}
        for f in self.findings:
            for attribute in {t.attribute for t in f.tags}:
                counts[attribute] += 1
        return counts

    @property
    def criterion_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.criterion] = counts.get(f.criterion, 0) + 1
        return counts


@dataclass(frozen=True)
class LintConfig:
    filter_config: FilterConfig = field(default_factory=FilterConfig)
    sense_threshold: int = 2
    conditional_markers: tuple[str, ...] = DEFAULT_CONDITIONAL_MARKERS
    alternative_markers: tuple[str, ...] = DEFAULT_ALTERNATIVE_MARKERS
    flag_anaphoric_clitics: bool = False


def check_multi_pos(
    token: Token,
    posdict: PosDictionary,
    *,
    doc_id: str = "",
    sentence_index: int = 0,
) -> Finding | None:
    """Info finding when the dictionary gives the word two or more classes."""
    classes = posdict.pos_classes(token.normalized)
    if len(classes) < 2:
        return None
    tags = frozenset(
        AttributeTag("CON", POS_TO_CON_SUB[p]) for p in classes if p in POS_TO_CON_SUB
    ) or frozenset({AttributeTag("CON")})
    return Finding(
        doc_id=doc_id,
        sentence_index=sentence_index,
        span=token.span,
        matched=token.surface,
        phrase="",
        tags=tags,
        criterion=MULTI_POS,
        severity=SEVERITY_INFO,
    )


def check_multi_sense(
    token: Token,
    posdict: PosDictionary,
    threshold: int = 2,
    *,
    doc_id: str = "",
    sentence_index: int = 0,
) -> Finding | None:
    """Info finding when the recorded sense count reaches the threshold."""
    senses = posdict.sense_count(token.normalized)
    if senses is None or senses < threshold:
        return None
    return Finding(
        doc_id=doc_id,
        sentence_index=sentence_index,
        span=token.span,
        matched=token.surface,
        phrase="",
        tags=frozenset({AttributeTag("VAR")}),
        criterion=MULTI_SENSE,
        severity=SEVERITY_INFO,
    )


def _contains_marker(words: Sequence[str], marker_words: tuple[str, ...]) -> int | None:
    """Index of the first occurrence of a marker token run, else None."""
    span = len(marker_words)
    for i in range(len(words) - span + 1):
        if tuple(words[i : i + span]) == marker_words:
            return i
    return None


def check_dangling_else(
    sentence: Sentence,
    tokens: Sequence[Token],
    cfg: LintConfig,
    *,
    next_tokens: Sequence[Token] = (),
    doc_id: str = "",
) -> Finding | None:
    """Conditional marker without an alternative branch nearby.

    Fires when the sentence contains a conditional marker and neither this
    sentence nor the immediately following one contains an alternative
    marker.
    """
    words = [t.normalized for t in tokens]
    first_marker: tuple[int, int] | None = None
    for marker in cfg.conditional_markers:
        marker_words = tuple(marker.casefold().split())
        at = _contains_marker(words, marker_words)
        if at is not None and (first_marker is None or at < first_marker[0]):
            first_marker = (at, len(marker_words))
    if first_marker is None:
        return None
    next_words = [t.normalized for t in next_tokens]
    for alternative in cfg.alternative_markers:
        alt_words = tuple(alternative.casefold().split())
        if (
            _contains_marker(words, alt_words) is not None
            or _contains_marker(next_words, alt_words) is not None
        ):
            return None
    start, length = first_marker
    run = tokens[start : start + length]
    span = Span(run[0].span.start, run[-1].span.end)
    return Finding(
        doc_id=doc_id,
        sentence_index=sentence.index,
        span=span,
        matched=" ".join(t.surface for t in run),
        phrase="",
        tags=frozenset({AttributeTag("CON", "dangling_else")}),
        criterion=DANGLING_ELSE,
        severity=SEVERITY_INFO,
    )


def _check_anaphoric_clitic(
    token: Token, *, doc_id: str, sentence_index: int
) -> Finding | None:
    normalized = token.normalized
    if len(normalized) <= 3 or not normalized.endswith("nya"):
        return None
    if normalized in _CLITIC_STOPLIST:
        return None
    return Finding(
        doc_id=doc_id,
        sentence_index=sentence_index,
        span=token.span,
        matched=token.surface,
        phrase="",
        tags=frozenset({AttributeTag("REF")}),
        criterion=REFERENTIAL_SENTENCE,
        severity=SEVERITY_INFO,
    )


def lint_document(
    doc: Document,
    lexicon: Lexicon,
    posdict: PosDictionary | None = None,
    cfg: LintConfig | None = None,
) -> LintReport:
    """Lint one document; only verified lexicon entries participate."""
    cfg = cfg or LintConfig()
    findings: list[Finding] = []
    # One sentence of lookahead serves the dangling-else check; earlier
    # sentences' tokens are dropped as the scan moves on, so the objects the
    # garbage collector must traverse do not grow with the document.
    pairs = iter_sentence_tokens(doc, cfg.filter_config.abbreviations)
    following = next(pairs, None)
    while following is not None:
        sentence, tokens = following
        following = next(pairs, None)
        for span, entry in match_entries(lexicon, tokens):
            findings.append(
                Finding(
                    doc_id=doc.id,
                    sentence_index=sentence.index,
                    span=span,
                    matched=slice_span(doc, span),
                    phrase=entry.phrase_text,
                    tags=entry.tags,
                    criterion=ATTRIBUTE_MEMBER,
                    severity=SEVERITY_WARNING,
                )
            )
        report = apply_filters(tokens, cfg.filter_config)
        for token in report.kept:
            if token.kind != WORD:
                continue
            if posdict is not None:
                hit = check_multi_pos(
                    token, posdict, doc_id=doc.id, sentence_index=sentence.index
                )
                if hit:
                    findings.append(hit)
                hit = check_multi_sense(
                    token,
                    posdict,
                    cfg.sense_threshold,
                    doc_id=doc.id,
                    sentence_index=sentence.index,
                )
                if hit:
                    findings.append(hit)
            if cfg.flag_anaphoric_clitics:
                hit = _check_anaphoric_clitic(
                    token, doc_id=doc.id, sentence_index=sentence.index
                )
                if hit:
                    findings.append(hit)
        next_tokens = following[1] if following is not None else ()
        hit = check_dangling_else(
            sentence, tokens, cfg, next_tokens=next_tokens, doc_id=doc.id
        )
        if hit:
            findings.append(hit)
    findings.sort(key=_finding_sort_key)
    return LintReport(findings)


FORMAT_TEXT = "text"
FORMAT_CSV = "csv"
FORMAT_RECORDS = "records"
REPORT_FORMATS = (FORMAT_TEXT, FORMAT_CSV, FORMAT_RECORDS)


def _tags_text(tags: frozenset[AttributeTag]) -> str:
    return " ".join(str(t) for t in sorted_tags(tags))


def render_text(report: LintReport, docs: dict[str, Document]) -> str:
    out = []
    for f in report.findings:
        doc = docs[f.doc_id]
        line, col = line_col(doc, f.span.start)
        location = doc.source_path or doc.id
        out.append(
            f"{location}:{line}:{col}: {f.severity}: '{f.matched}' "
            f"[{_tags_text(f.tags)}] {f.criterion}"
        )
    warnings = sum(1 for f in report.findings if f.severity == SEVERITY_WARNING)
    infos = len(report.findings) - warnings
    out.append("")
    out.append(f"total: {len(report.findings)} ({warnings} warning, {infos} info)")
    counts = report.attribute_counts
    out.append("by attribute: " + " ".join(f"{a}={counts[a]}" for a in ATTRIBUTES))
    crit = report.criterion_counts
    out.append(
        "by criterion: "
        + " ".join(f"{c}={crit[c]}" for c in CRITERIA if c in crit)
    )
    return "\n".join(out) + "\n"


def render_csv(report: LintReport, docs: dict[str, Document]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "document",
            "line",
            "col",
            "start",
            "end",
            "sentence",
            "matched",
            "phrase",
            "tags",
            "criterion",
            "severity",
        ]
    )
    for f in report.findings:
        doc = docs[f.doc_id]
        line, col = line_col(doc, f.span.start)
        writer.writerow(
            [
                doc.source_path or doc.id,
                line,
                col,
                f.span.start,
                f.span.end,
                f.sentence_index,
                f.matched,
                f.phrase,
                _tags_text(f.tags),
                f.criterion,
                f.severity,
            ]
        )
    return buf.getvalue()


def render_records(report: LintReport) -> str:
    lines = []
    for f in report.findings:
        lines.append(
            json.dumps(
                {
                    "doc": f.doc_id,
                    "sentence": f.sentence_index,
                    "start": f.span.start,
                    "end": f.span.end,
                    "matched": f.matched,
                    "phrase": f.phrase,
                    "tags": [str(t) for t in sorted_tags(f.tags)],
                    "criterion": f.criterion,
                    "severity": f.severity,
                },
                ensure_ascii=False,
            )
        )
    return "".join(line + "\n" for line in lines)


def render_report(
    report: LintReport, fmt: str, docs: dict[str, Document] | None = None
) -> str:
    if fmt == FORMAT_TEXT:
        return render_text(report, docs or {})
    if fmt == FORMAT_CSV:
        return render_csv(report, docs or {})
    if fmt == FORMAT_RECORDS:
        return render_records(report)
    raise ValueError(f"unknown report format {fmt!r}")
