"""Reference candidate mining for differential tests of ``kaburlint.extraction``.

This is the per-probe version of extraction: ``RuleLists`` keeps one
phrase set per attribute and scans all six for every lookup,
``_phrase_criteria`` asks the hint lexicon, the rule lists and the POS
dictionary again at every probe of every length at every position (the
seed's ``longest_matches`` loop, copied here, not imported), and
``scan_document`` and ``merge_results`` unite the criterion hits of every
occurrence. Its text layer is ``textcore_oracle``'s, its filter step
``lint_oracle``'s, and it tallies its own filter counts, so nothing here
runs the optimized segmentation, tokenization or filters. It is kept as
the definition of correct output; the candidate table must give the same
candidates, occurrences, criterion hits, suggested tags and filter counts
on every corpus. One rule changed since the seed, here as in the table: a
phrase the hint lexicon holds as rejected is never a candidate, whichever
rule list or POS row names it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from pathlib import Path

import lint_oracle
import textcore_oracle

from kaburlint.curation import CandidateWord, Occurrence
from kaburlint.errors import WordlistError
from kaburlint.extraction import ExtractionResult
from kaburlint.fileio import read_lines
from kaburlint.filters import FilterConfig, FilterCounts
from kaburlint.lexicon import (
    ATTRIBUTES,
    POS_TO_CON_SUB,
    STATUS_CANDIDATE,
    STATUS_REJECTED,
    STATUS_VERIFIED,
    AttributeTag,
    Lexicon,
    PosDictionary,
    normalize_phrase,
)
from kaburlint.records import (
    ATTRIBUTE_MEMBER,
    MULTI_POS,
    MULTI_SENSE,
    SENSE_THRESHOLD,
    VAGUE_POS,
    Span,
)
from kaburlint.textcore import Document
from record_replace import replace


def longest_matches(
    words: Sequence[str], limit: int, lookup: Callable[[tuple[str, ...]], object]
) -> list[tuple[int, int, object]]:
    """Greedy longest match over words: (start, end, value) per hit.

    Scans left to right; at each position the longest run of at most limit
    words for which lookup returns a truthy value wins and its words are
    consumed, so hits never overlap.
    """
    hits = []
    count = len(words)
    i = 0
    while i < count:
        for end in range(min(i + limit, count), i, -1):
            value = lookup(tuple(words[i:end]))
            if value:
                hits.append((i, end, value))
                i = end
                break
        else:
            i += 1
    return hits


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
    """Criterion hits that make this phrase a candidate (empty set: none).

    A phrase the hint lexicon holds as rejected is never a candidate.
    """
    hits: set[str] = set()
    entry = lex_hints.get(phrase)
    if entry is not None and entry.status == STATUS_REJECTED:
        return hits
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
    """Suggest tags: lexicon hints, rule lists and POS-derived CON subs."""
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


def scan_document(
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

    ref = textcore_oracle.OracleDocument(doc.id, doc.text)
    abbreviations = filter_cfg.abbreviations
    for sentence in textcore_oracle.segment_sentences(ref, abbreviations):
        tokens = textcore_oracle.tokenize(ref, sentence, abbreviations)
        tokens_read += len(tokens)
        kept = lint_oracle.kept_tokens(tokens, filter_cfg)
        counts.kept += len(kept)
        initial = next((t for t in tokens if t.kind == textcore_oracle.WORD), None)
        for token in tokens:
            reason = lint_oracle.classify_token(token, token is initial, filter_cfg)
            if reason is not None:
                counts.excluded[reason][token.normalized] += 1
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


def merge_results(
    results: Sequence[ExtractionResult],
    lex_hints: Lexicon,
    posdict: PosDictionary | None,
    rules: RuleLists,
) -> ExtractionResult:
    """Unique candidates by phrase, occurrences in input order, then mapped."""
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


def extract_candidates(
    corpus: Sequence[Document],
    lex_hints: Lexicon,
    posdict: PosDictionary | None,
    rules: RuleLists,
    filter_cfg: FilterConfig | None = None,
    *,
    sense_threshold: int = SENSE_THRESHOLD,
) -> ExtractionResult:
    """Scan each document on its own and merge the scans."""
    filter_cfg = filter_cfg or FilterConfig()
    scans = [
        scan_document(doc, lex_hints, posdict, rules, filter_cfg, sense_threshold)
        for doc in corpus
    ]
    return merge_results(scans, lex_hints, posdict, rules)
