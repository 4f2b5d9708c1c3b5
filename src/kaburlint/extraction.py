"""Candidate mining and attribute mapping.

Candidates are mined from the post-filter token stream, one per distinct
normalized phrase, with occurrence spans kept as evidence for reviewers.
Which phrases are candidates, and with which criterion hits, comes from
one candidate index built per run from the hint lexicon, the rule lists
and the POS dictionary (candidate_criteria, a lexicon.PhraseIndex). The
dictionary's criteria are those of lexicon.word_heuristics, the table
lint reads; mining needs nothing of lint, so extract and map never load
analyzer. The scan matches the index against a window of sentences' kept
words at a time, read from the filter report's columns, and builds an
Occurrence only for a hit, with the spans of a window's hits from one
Tokens.locate call. The queue the mined candidates go to, and their
review, are curation's.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from functools import partial

from .curation import CandidateWord, Occurrence

# the benchmark's traced run reads these from here: they are curation's objects
from .curation import append_audit, load_candidates, record_decision, save_candidates
from .filters import FilterConfig, FilterCounts, apply_filters
from .lexicon import (
    STATUS_REJECTED,
    AttributeTag,
    Lexicon,
    PhraseIndex,
    PhraseSets,
    PosDictionary,
    con_sub_tags,
    longest_matches,
    word_heuristics,
)
from .records import ATTRIBUTE_MEMBER, SENSE_THRESHOLD, VAGUE_POS, Record
from .textcore import Document, segment_sentences, tokenize


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
        for (start, end, _hits), (_s, span, _text, _char) in zip(hits, located):
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
    same ones. A candidate carries no verdict: review asks the lexicon
    which phrases are decided (rejected phrases are never candidates).
    extract_candidates ends here at any job count.
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
        )
        for phrase in sorted(occurrences)
    ]
    return ExtractionResult(candidates, counts, tokens_read, documents)


