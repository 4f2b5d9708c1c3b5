"""Lint documents against the verified lexicon and criterion heuristics.

Word matches against verified lexicon entries produce warnings; the
criterion heuristics (multiple POS classes, multiple senses, dangling
else, optionally the "-nya" clitic) produce candidate-grade info
findings. The two dictionary heuristics are decided once per run for
every POS-dictionary word (word_heuristics), and lint and extraction
both read that one table. Reports are deterministically ordered by
(document, start offset) with fixed tiebreakers, so serialized reports
are byte-stable across runs and job counts.

lint_document reads each sentence as columns: the surfaces and words
from tokenize, the kept positions from apply_filters and the lexicon hits
from match_entries; a kept word's dictionary heuristics are one lookup in
the word_heuristics table. A Finding, with its byte span and matched
text, is built only for a hit.
"""

from __future__ import annotations

import io
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, pairwise

from .fileio import dumps_jsonl
from .filters import FilterConfig, apply_filters
from .lexicon import (
    ATTRIBUTES,
    AttributeTag,
    Lexicon,
    PhraseIndex,
    PosDictionary,
    con_sub_tags,
    longest_matches,
    match_entries,
    tag_texts,
)
from .textcore import (
    Document,
    Span,
    Tokens,
    line_col,
    pickle_fields,
    segment_sentences,
    tokenize,
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

# a word with at least this many recorded senses is a multi-sense finding
SENSE_THRESHOLD = 2

# dangling-else markers as normalized words: a conditional is one word, an
# alternative a run of words
CONDITIONAL_MARKERS = frozenset({"jika", "sekiranya", "apabila"})
ALTERNATIVE_MARKERS = frozenset({("jika", "tidak"), ("selainnya",), ("sebaliknya",)})
_ALTERNATIVES = PhraseIndex(dict.fromkeys(ALTERNATIVE_MARKERS, True))

# words that end in "nya" without being anaphoric
_CLITIC_STOPLIST = frozenset({"hanya", "tanya", "punya"})
_REF = frozenset({AttributeTag("REF")})
_DANGLING_ELSE = frozenset({AttributeTag("CON", "dangling_else")})


@dataclass(slots=True, unsafe_hash=True)
class Finding:
    """One lint hit, spanning the matched text within its sentence.

    A slots dataclass like Token, for the same reason: one is built per
    hit, and findings cross the --jobs pool.
    """

    doc_id: str
    sentence_index: int
    span: Span
    matched: str
    phrase: str  # lexicon phrase; empty for heuristic and sentence-level hits
    tags: frozenset[AttributeTag]
    criterion: str
    severity: str

    __reduce__ = pickle_fields


def _finding_sort_key(f: Finding) -> tuple:
    return (f.span.start, f.span.end, CRITERIA.index(f.criterion), f.phrase)


@dataclass
class LintReport:
    """Findings in a deterministic total order plus summary counts."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def warnings(self) -> int:
        return sum(f.severity == SEVERITY_WARNING for f in self.findings)

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


# one word's heuristic hits: (criterion, tags) per heuristic that fires
WordHits = tuple[tuple[str, frozenset[AttributeTag]], ...]


@cache  # bounded: POS classes are subsets of the five POS_LABELS
def _dictionary_hits(classes: frozenset[str], multi_sense: bool) -> WordHits:
    hits = []
    if len(classes) >= 2:
        hits.append((MULTI_POS, con_sub_tags(classes) or frozenset({AttributeTag("CON")})))
    if multi_sense:
        hits.append((MULTI_SENSE, frozenset({AttributeTag("VAR")})))
    return tuple(hits)


def word_heuristics(
    posdict: PosDictionary | None, sense_threshold: int = SENSE_THRESHOLD
) -> dict[str, WordHits]:
    """Case-folded word -> the dictionary heuristics that fire on it.

    A word with two or more POS classes hits multi_pos, tagged with the CON
    sub-attribute of each class that has one (plain CON if none has); a
    word whose recorded sense count reaches sense_threshold hits
    multi_sense (VAR). Words on which neither fires are absent. Both read
    only the dictionary, so this is one table per run: lint probes it once
    per kept word and extraction takes its dictionary criteria from it.
    Words with the same classes and sense outcome share one hits tuple.
    """
    table: dict[str, WordHits] = {}
    for word, classes, senses in posdict.items() if posdict is not None else ():
        multi_sense = senses is not None and senses >= sense_threshold
        if len(classes) >= 2 or multi_sense:
            table[word] = _dictionary_hits(classes, multi_sense)
    return table


def _info(
    doc_id: str,
    index: int,
    tokens: Tokens,
    k: int,
    tags: frozenset[AttributeTag],
    criterion: str,
) -> Finding:
    """An info finding on token k of sentence index, read from the columns."""
    return Finding(
        doc_id, index, tokens.span(k, k), tokens.surfaces[k], "", tags, criterion,
        SEVERITY_INFO,
    )


def _is_anaphoric_clitic(word: str) -> bool:
    return len(word) > 3 and word.endswith("nya") and word not in _CLITIC_STOPLIST


def _dangling_marker(words: Sequence[str], next_words: Sequence[str]) -> int | None:
    """Position of the first conditional marker when no alternative is near."""
    if CONDITIONAL_MARKERS.isdisjoint(words):
        return None
    if longest_matches(words, _ALTERNATIVES) or longest_matches(next_words, _ALTERNATIVES):
        return None
    return next(k for k, word in enumerate(words) if word in CONDITIONAL_MARKERS)


def check_dangling_else(
    index: int,
    tokens: Tokens,
    *,
    next_tokens: Tokens | None = None,
    doc_id: str = "",
) -> Finding | None:
    """Conditional marker without an alternative branch nearby.

    Fires on the first conditional marker ("jika", "sekiranya",
    "apabila") of sentence index when neither this sentence nor the
    immediately following one contains an alternative marker ("jika
    tidak", "selainnya", "sebaliknya"). Markers match normalized tokens,
    so case is ignored. tokens is the sentence's tokenize result and
    next_tokens the following sentence's, or None after the last one.
    """
    next_words = () if next_tokens is None else next_tokens.words
    k = _dangling_marker(tokens.words, next_words)
    if k is None:
        return None
    return _info(doc_id, index, tokens, k, _DANGLING_ELSE, DANGLING_ELSE)


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

    The scan reads each sentence's columns (Tokens, FilterReport, Matches)
    and builds a Finding, and the byte span in it, only for a hit.
    """
    filter_cfg = filter_cfg or FilterConfig()
    heuristics = heuristics or {}
    doc_id = doc.id
    findings: list[Finding] = []
    abbreviations = filter_cfg.abbreviations
    runs = (
        tokenize(doc, chars, abbreviations)
        for chars in segment_sentences(doc, abbreviations).ranges()
    )
    # pairwise holds one sentence of lookahead for the dangling-else check;
    # earlier sentences' tokens are dropped as the scan moves on, so the
    # objects the garbage collector must traverse do not grow with the
    # document.
    for index, (tokens, next_tokens) in enumerate(pairwise(chain(runs, [None]))):
        for start, end, entry in match_entries(lexicon, tokens).hits:
            findings.append(
                Finding(
                    doc_id, index, tokens.span(start, end - 1), tokens.text(start, end - 1),
                    entry.phrase_text, entry.tags, ATTRIBUTE_MEMBER, SEVERITY_WARNING,
                )
            )
        words = tokens.words
        for k in apply_filters(tokens, filter_cfg).kept_index:  # kept tokens are words
            word = words[k]
            for criterion, tags in heuristics.get(word, ()):
                findings.append(_info(doc_id, index, tokens, k, tags, criterion))
            if flag_anaphoric_clitics and _is_anaphoric_clitic(word):
                findings.append(_info(doc_id, index, tokens, k, _REF, REFERENTIAL_SENTENCE))
        hit = check_dangling_else(index, tokens, next_tokens=next_tokens, doc_id=doc_id)
        if hit:
            findings.append(hit)
    findings.sort(key=_finding_sort_key)
    return LintReport(findings)


FORMAT_TEXT = "text"
FORMAT_CSV = "csv"
FORMAT_RECORDS = "records"
REPORT_FORMATS = (FORMAT_TEXT, FORMAT_CSV, FORMAT_RECORDS)


CSV_HEADER = "document,line,col,start,end,sentence,matched,phrase,tags,criterion,severity\n"


def render_text(report: LintReport, docs: dict[str, Document]) -> str:
    out = []
    for f in report.findings:
        doc = docs[f.doc_id]
        line, col = line_col(doc, f.span.start)
        location = doc.source_path or doc.id
        tags = " ".join(tag_texts(f.tags))
        out.append(
            f"{location}:{line}:{col}: {f.severity}: '{f.matched}' [{tags}] {f.criterion}\n"
        )
    return "".join(out)


def render_csv(report: LintReport, docs: dict[str, Document]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
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
                " ".join(tag_texts(f.tags)),
                f.criterion,
                f.severity,
            ]
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
    fmt: str,
    warnings: int,
    attribute_counts: Mapping[str, int],
    criterion_counts: Mapping[str, int],
) -> str:
    """What a report closes with: the text totals; nothing in csv and records.

    The counts are LintReport's, so the totals of several documents are
    the sums of theirs.
    """
    if fmt != FORMAT_TEXT:
        return ""
    total = sum(criterion_counts.values())
    attributes = " ".join(f"{a}={attribute_counts[a]}" for a in ATTRIBUTES)
    criteria = " ".join(f"{c}={criterion_counts[c]}" for c in CRITERIA if criterion_counts.get(c))
    return (
        f"\ntotal: {total} ({warnings} warning, {total - warnings} info)\n"
        f"by attribute: {attributes}\n"
        f"by criterion: {criteria}\n"
    )


def render_report(report: LintReport, fmt: str, docs: dict[str, Document] | None = None) -> str:
    """The report's findings in fmt, one line each.

    A whole report is report_head, then the findings' lines, then the
    report_tail of the counts; over several documents, each document's
    lines in input order and the tail of the summed counts.
    """
    if fmt == FORMAT_TEXT:
        return render_text(report, docs or {})
    if fmt == FORMAT_CSV:
        return render_csv(report, docs or {})
    if fmt == FORMAT_RECORDS:
        return render_records(report)
    raise ValueError(f"unknown report format {fmt!r}")
