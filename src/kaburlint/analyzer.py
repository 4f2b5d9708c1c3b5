"""Lint documents against the verified lexicon and criterion heuristics.

Word matches against verified lexicon entries produce warnings; the
criterion heuristics (multiple POS classes, multiple senses, dangling
else, optionally the "-nya" clitic) produce candidate-grade info
findings. The two dictionary heuristics come from the run's one
lexicon.word_heuristics table, which extraction reads too; the
dangling-else and clitic rules are lint's own. Reports are
deterministically ordered by (document, start offset) with fixed
tiebreakers, so serialized reports are byte-stable across runs and job
counts.

lint_document reads a window of sentences (textcore.SENTENCE_WINDOW) at
a time as flat columns: the surfaces, words and sentence heads of one
tokenize call, the kept positions of one apply_filters call and the
(start, end, entry) hits of one match_entries call. One scan of the
window's words each finds the heuristic words (one word_heuristics
lookup), clitics and conditional markers; a dangling-else hit on a
window's last sentence waits for the next window's first sentence. A
Finding is built only for a hit: one Tokens.locate call per window gives
every hit's sentence, byte span, text and first character, and one
textcore.line_col call the line:col of each. So a Finding carries all
that a report prints, and the renderers read the report alone. The csv
and records reports also give the byte offsets, counted as Span counts
them (a "\r\n" line end is one byte).
"""

from __future__ import annotations

import io
from collections.abc import Mapping

from .fileio import dumps_jsonl
from .filters import FilterConfig, apply_filters
from .lexicon import (
    ATTRIBUTES,
    AttributeTag,
    Lexicon,
    PhraseIndex,
    WordHits,
    longest_matches,
    match_entries,
    tag_texts,
)
from .records import ATTRIBUTE_MEMBER, CRITERIA, DANGLING_ELSE, FORMAT_CSV, FORMAT_RECORDS
from .records import FORMAT_TEXT, REFERENTIAL_SENTENCE, Record, Span
from .textcore import Document, Tokens, line_col, segment_sentences, tokenize

SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

# dangling-else markers as normalized words: a conditional is one word, an
# alternative a run of words
CONDITIONAL_MARKERS = frozenset({"jika", "sekiranya", "apabila"})
ALTERNATIVE_MARKERS = frozenset({("jika", "tidak"), ("selainnya",), ("sebaliknya",)})
_ALTERNATIVES = PhraseIndex(dict.fromkeys(ALTERNATIVE_MARKERS, True))

# words that end in "nya" without being anaphoric
_CLITIC_STOPLIST = frozenset({"hanya", "tanya", "punya"})
_REF = frozenset({AttributeTag("REF")})
_DANGLING_ELSE = frozenset({AttributeTag("CON", "dangling_else")})


class Finding(Record, hashable=True):
    """One lint hit, spanning the matched text within its sentence.

    line and col are the 1-based line:col of the span's start, in
    characters. A hashable Record like Span that is not frozen, so that
    __init__ assigns plainly: one is built per hit.
    """

    __slots__ = (
        "doc_id", "line", "col", "sentence_index", "span", "matched", "phrase", "tags",
        "criterion", "severity",
    )

    def __init__(
        self,
        doc_id: str,
        line: int,
        col: int,
        sentence_index: int,
        span: Span,
        matched: str,
        phrase: str,  # lexicon phrase; empty for heuristic and sentence-level hits
        tags: frozenset[AttributeTag],
        criterion: str,
        severity: str,
    ) -> None:
        self.doc_id = doc_id
        self.line = line
        self.col = col
        self.sentence_index = sentence_index
        self.span = span
        self.matched = matched
        self.phrase = phrase
        self.tags = tags
        self.criterion = criterion
        self.severity = severity


def _finding_sort_key(f: Finding) -> tuple:
    return (f.span.start, f.span.end, CRITERIA.index(f.criterion), f.phrase)


class LintReport(Record):
    """Findings in a deterministic total order plus summary counts."""

    __slots__ = ("findings",)

    def __init__(self, findings: list[Finding] | None = None) -> None:
        self.findings = [] if findings is None else findings

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


def _is_anaphoric_clitic(word: str) -> bool:
    return len(word) > 3 and word.endswith("nya") and word not in _CLITIC_STOPLIST


def _has_alternative(tokens: Tokens, s: int) -> bool:
    """Whether sentence s of the window holds an alternative marker."""
    heads = tokens.heads
    return bool(longest_matches(tokens.words[heads[s] : heads[s + 1]], _ALTERNATIVES))


def _dangling_markers(tokens: Tokens) -> list[int]:
    """The first conditional marker of each sentence with no alternative near.

    A conditional marker ("jika", "sekiranya", "apabila") dangles when
    neither its sentence nor the next one holds an alternative marker
    ("jika tidak", "selainnya", "sebaliknya"). Markers match normalized
    words, so case is ignored. The window's last sentence is checked
    against itself only: the caller checks the sentence after.
    """
    last = len(tokens.heads) - 2
    first: dict[int, int] = {}  # sentence -> its first marker
    for k in [k for k, word in enumerate(tokens.words) if word in CONDITIONAL_MARKERS]:
        first.setdefault(tokens.sentence_of(k), k)
    return [
        k for s, k in first.items()
        if not (_has_alternative(tokens, s) or s < last and _has_alternative(tokens, s + 1))
    ]


def lint_document(
    doc: Document,
    lexicon: Lexicon,
    heuristics: dict[str, WordHits] | None = None,
    filter_cfg: FilterConfig | None = None,
    *,
    flag_anaphoric_clitics: bool = False,
) -> LintReport:
    """Lint one document; only verified lexicon entries participate.

    Matches of verified lexicon phrases are warnings. Each kept word gets
    the info findings of its entry in heuristics (the run's word_heuristics
    table; None runs no dictionary heuristics) and, with
    flag_anaphoric_clitics, a referential finding when it ends in the
    "-nya" clitic. Every sentence gets the dangling-else check.

    The scan makes one tokenize, apply_filters and match_entries call per
    window of sentences and builds a Finding only for a hit.
    """
    filter_cfg = filter_cfg or FilterConfig()
    heuristics = heuristics or {}
    doc_id = doc.id
    findings: list[Finding] = []
    abbreviations = filter_cfg.abbreviations
    base = 0  # the document index of the window's first sentence
    # a dangling-else hit on a window's last sentence waits for the next
    # window's first; one window is alive at a time (del below), so memory
    # stays bounded
    pending = None
    for window in segment_sentences(doc, abbreviations).windows():
        tokens = tokenize(doc, window, abbreviations)
        if pending is not None and not _has_alternative(tokens, 0):
            findings.append(pending)
        # each hit's token run and (phrase, tags, criterion, severity), all
        # located by one call
        runs: list[tuple[int, int]] = []
        labels: list[tuple] = []
        for start, end, entry in match_entries(lexicon, tokens):
            runs.append((start, end - 1))
            labels.append((entry.phrase_text, entry.tags, ATTRIBUTE_MEMBER, SEVERITY_WARNING))
        words = tokens.words
        kept = apply_filters(tokens, filter_cfg).kept  # kept tokens are words
        for k in [k for k in kept if words[k] in heuristics]:
            for criterion, tags in heuristics[words[k]]:
                runs.append((k, k))
                labels.append(("", tags, criterion, SEVERITY_INFO))
        if flag_anaphoric_clitics:
            for k in [k for k in kept if _is_anaphoric_clitic(words[k])]:
                runs.append((k, k))
                labels.append(("", _REF, REFERENTIAL_SENTENCE, SEVERITY_INFO))
        for k in _dangling_markers(tokens):
            runs.append((k, k))
            labels.append(("", _DANGLING_ELSE, DANGLING_ELSE, SEVERITY_INFO))
        last = len(tokens.heads) - 2
        pending = None
        located = tokens.locate(runs)
        places = line_col(doc, [char for *_, char in located]) if located else []
        for (s, span, matched, _), (line, col), (phrase, tags, criterion, severity) in zip(
            located, places, labels
        ):
            hit = Finding(
                doc_id, line, col, base + s, span, matched, phrase, tags, criterion, severity
            )
            if criterion == DANGLING_ELSE and s == last:
                pending = hit
            else:
                findings.append(hit)
        base += last + 1
        del tokens, words, kept
    if pending is not None:
        findings.append(pending)
    findings.sort(key=_finding_sort_key)
    return LintReport(findings)


CSV_HEADER = "document,line,col,start,end,sentence,matched,phrase,tags,criterion,severity\n"


def render_text(report: LintReport) -> str:
    return "".join(
        f"{f.doc_id}:{f.line}:{f.col}: {f.severity}: '{f.matched}' "
        f"[{' '.join(tag_texts(f.tags))}] {f.criterion}\n"
        for f in report.findings
    )


def render_csv(report: LintReport) -> str:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [
            f.doc_id,
            f.line,
            f.col,
            f.span.start,
            f.span.end,
            f.sentence_index,
            f.matched,
            f.phrase,
            " ".join(tag_texts(f.tags)),
            f.criterion,
            f.severity,
        ]
        for f in report.findings
    )
    return buf.getvalue()


def render_records(report: LintReport) -> str:
    return dumps_jsonl(
        {
            "doc": f.doc_id,
            "sentence": f.sentence_index,
            "start": f.span.start,
            "end": f.span.end,
            "matched": f.matched,
            "phrase": f.phrase,
            "tags": tag_texts(f.tags),
            "criterion": f.criterion,
            "severity": f.severity,
        }
        for f in report.findings
    )


def report_head(fmt: str) -> str:
    """What a report opens with: the csv header row; nothing in text and records."""
    return CSV_HEADER if fmt == FORMAT_CSV else ""


def report_tail(
    fmt: str, attribute_counts: Mapping[str, int], criterion_counts: Mapping[str, int]
) -> str:
    """What a report closes with: the text totals; nothing in csv and records.

    The counts are LintReport's, so the totals of several documents are
    the sums of theirs. Only attribute_member findings are warnings.
    """
    if fmt != FORMAT_TEXT:
        return ""
    total = sum(criterion_counts.values())
    warnings = criterion_counts.get(ATTRIBUTE_MEMBER, 0)
    attributes = " ".join(f"{a}={attribute_counts[a]}" for a in ATTRIBUTES)
    criteria = " ".join(f"{c}={criterion_counts[c]}" for c in CRITERIA if criterion_counts.get(c))
    return (
        f"\ntotal: {total} ({warnings} warning, {total - warnings} info)\n"
        f"by attribute: {attributes}\n"
        f"by criterion: {criteria}\n"
    )


def render_report(report: LintReport, fmt: str) -> str:
    """The report's findings in fmt, one line each.

    A whole report is report_head, then the findings' lines, then the
    report_tail of the counts; over several documents, each document's
    lines in input order and the tail of the summed counts.
    """
    if fmt == FORMAT_TEXT:
        return render_text(report)
    if fmt == FORMAT_CSV:
        return render_csv(report)
    if fmt == FORMAT_RECORDS:
        return render_records(report)
    raise ValueError(f"unknown report format {fmt!r}")
