"""Reference lint for differential tests of ``kaburlint.analyzer.lint_document``.

This is ``lint_document`` as it was before tokens became slot classes and
per-word facts were memoized: every kept token is classified by the filter
predicates again, every heuristic asks the POS dictionary again and builds
its finding from scratch, and lexicon matching filters entries by status
in a closure at every probe of ``longest_matches``, the seed's loop that
tries every run length at every position. The loop and the seed's filter
predicates over token records are copied here, not imported. The text
layer is ``textcore_oracle``'s and the dangling-else check is
``analyzer_oracle``'s, so nothing here shares the optimized code paths.
A finding's line:col is ``textcore_oracle.line_col`` of its byte start. It
is kept unchanged as the definition of correct output; the optimized lint
must give the same findings, locations, spans, matched text, tags and
criteria on every document.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import analyzer_oracle
import textcore_oracle
from kaburlint.analyzer import SEVERITY_INFO, SEVERITY_WARNING, Finding
from kaburlint.filters import (
    LOANWORD,
    NUMBER_REASON,
    PROPER_NOUN,
    REDUPLICATION,
    SHORT_FORM,
    SYMBOL_REASON,
    FilterConfig,
)
from kaburlint.lexicon import (
    POS_TO_CON_SUB,
    STATUS_VERIFIED,
    AttributeTag,
    Lexicon,
    LexiconEntry,
    PosDictionary,
)
from kaburlint.records import (
    ATTRIBUTE_MEMBER,
    CRITERIA,
    MULTI_POS,
    MULTI_SENSE,
    REFERENTIAL_SENTENCE,
    SENSE_THRESHOLD,
    Span,
)
from textcore_oracle import NUMBER, SYMBOL, WORD, Token

_CLITIC_STOPLIST = frozenset({"hanya", "tanya", "punya"})
_VOWELS = frozenset("aeiou")


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


def detect_reduplication(token: Token) -> bool:
    """True for doubled words joined by exactly one hyphen ("rekod-rekod").

    Both halves must be identical non-empty letter sequences after case
    folding; partial reduplication ("sayur-mayur") does not count.
    """
    if token.kind != WORD:
        return False
    normalized = token.normalized
    if normalized.count("-") != 1:
        return False
    left, right = normalized.split("-")
    return bool(left) and left == right and left.isalpha()


def is_short_form(token: Token, abbrev_list: frozenset[str] | set[str]) -> bool:
    """Abbreviation-like tokens: listed, vowel-less and short, or dotted."""
    normalized = token.normalized
    if normalized in abbrev_list:
        return True
    if len(normalized) <= 4 and not (_VOWELS & set(normalized)):
        return True
    if token.surface.endswith("."):
        return True
    return False


def is_proper_noun(
    token: Token,
    sentence_initial: bool,
    malay_wordlist: frozenset[str] | set[str] | None = None,
) -> bool:
    """Capitalization heuristic for proper nouns (kata nama khas).

    A capitalized word mid-sentence is a proper noun; sentence-initially it
    only counts when a Malay wordlist is available and does not know the
    word.
    """
    if not token.surface[0].isupper():
        return False
    if not sentence_initial:
        return True
    return malay_wordlist is not None and token.normalized not in malay_wordlist


def is_loanword(
    token: Token,
    english_list: frozenset[str] | set[str],
    malay_wordlist: frozenset[str] | set[str] | None = None,
) -> bool:
    """English-wordlist membership; Malay wordlist membership wins."""
    normalized = token.normalized
    if normalized not in english_list:
        return False
    return malay_wordlist is None or normalized not in malay_wordlist


def classify_token(token: Token, sentence_initial: bool, cfg: FilterConfig) -> str | None:
    """Return the exclusion reason for one token, or None to keep it."""
    if token.kind == SYMBOL:
        return SYMBOL_REASON
    if token.kind == NUMBER:
        return NUMBER_REASON
    if detect_reduplication(token):
        return REDUPLICATION
    if is_short_form(token, cfg.abbreviations):
        return SHORT_FORM
    if is_proper_noun(token, sentence_initial, cfg.malay_words):
        return PROPER_NOUN
    if is_loanword(token, cfg.english_words, cfg.malay_words):
        return LOANWORD
    return None


def kept_tokens(tokens: Sequence[Token], cfg: FilterConfig) -> list[Token]:
    """The tokens no filter excludes; the first word token is sentence-initial."""
    initial = next((token for token in tokens if token.kind == WORD), None)
    return [t for t in tokens if classify_token(t, t is initial, cfg) is None]


def match_entries(
    lexicon: Lexicon, tokens: Sequence[Token]
) -> list[tuple[Span, LexiconEntry]]:
    """Greedy longest match of verified lexicon phrases over one sentence."""
    entries = lexicon._entries

    def lookup(phrase: tuple[str, ...]) -> LexiconEntry | None:
        entry = entries.get(phrase)
        return entry if entry is not None and entry.status == STATUS_VERIFIED else None

    words = [t.normalized for t in tokens]
    return [
        (Span(tokens[start].span.start, tokens[end - 1].span.end), entry)
        for start, end, entry in longest_matches(words, lexicon.max_phrase_len, lookup)
    ]


def _finding(
    doc: textcore_oracle.OracleDocument, sentence_index: int, span: Span, matched: str,
    phrase: str, tags: frozenset[AttributeTag], criterion: str, severity: str,
) -> Finding:
    line, col = textcore_oracle.line_col(doc, span.start)
    return Finding(
        doc.id, line, col, sentence_index, span, matched, phrase, tags, criterion, severity
    )


def check_multi_pos(
    token: Token, posdict: PosDictionary, *, doc: textcore_oracle.OracleDocument,
    sentence_index: int,
) -> Finding | None:
    classes = posdict.pos_classes(token.normalized)
    if len(classes) < 2:
        return None
    tags = frozenset(
        AttributeTag("CON", POS_TO_CON_SUB[p]) for p in classes if p in POS_TO_CON_SUB
    ) or frozenset({AttributeTag("CON")})
    return _finding(doc, sentence_index, token.span, token.surface, "", tags,
                    MULTI_POS, SEVERITY_INFO)


def check_multi_sense(
    token: Token, posdict: PosDictionary, threshold: int, *,
    doc: textcore_oracle.OracleDocument, sentence_index: int,
) -> Finding | None:
    senses = posdict.sense_count(token.normalized)
    if senses is None or senses < threshold:
        return None
    return _finding(doc, sentence_index, token.span, token.surface, "",
                    frozenset({AttributeTag("VAR")}), MULTI_SENSE, SEVERITY_INFO)


def check_anaphoric_clitic(
    token: Token, *, doc: textcore_oracle.OracleDocument, sentence_index: int
) -> Finding | None:
    normalized = token.normalized
    if len(normalized) <= 3 or not normalized.endswith("nya"):
        return None
    if normalized in _CLITIC_STOPLIST:
        return None
    return _finding(doc, sentence_index, token.span, token.surface, "",
                    frozenset({AttributeTag("REF")}), REFERENTIAL_SENTENCE, SEVERITY_INFO)


def lint_document(
    doc: textcore_oracle.OracleDocument,
    lexicon: Lexicon,
    posdict: PosDictionary | None = None,
    filter_cfg: FilterConfig | None = None,
    *,
    sense_threshold: int = SENSE_THRESHOLD,
    flag_anaphoric_clitics: bool = False,
) -> list[Finding]:
    """Findings of one document in report order."""
    filter_cfg = filter_cfg or FilterConfig()
    sentences = textcore_oracle.segment_sentences(doc, filter_cfg.abbreviations)
    token_runs = [
        textcore_oracle.tokenize(doc, sentence, filter_cfg.abbreviations)
        for sentence in sentences
    ]
    findings: list[Finding] = []
    for k, (sentence, tokens) in enumerate(zip(sentences, token_runs)):
        for span, entry in match_entries(lexicon, tokens):
            findings.append(
                _finding(doc, sentence.index, span, textcore_oracle.slice_span(doc, span),
                         entry.phrase_text, entry.tags, ATTRIBUTE_MEMBER, SEVERITY_WARNING)
            )
        for token in kept_tokens(tokens, filter_cfg):
            if token.kind != WORD:
                continue
            where = {"doc": doc, "sentence_index": sentence.index}
            hits = []
            if posdict is not None:
                hits.append(check_multi_pos(token, posdict, **where))
                hits.append(check_multi_sense(token, posdict, sense_threshold, **where))
            if flag_anaphoric_clitics:
                hits.append(check_anaphoric_clitic(token, **where))
            findings.extend(hit for hit in hits if hit)
        next_tokens = token_runs[k + 1] if k + 1 < len(token_runs) else ()
        hit = analyzer_oracle.check_dangling_else(
            sentence, tokens, next_tokens=next_tokens, doc=doc
        )
        if hit:
            findings.append(hit)
    findings.sort(
        key=lambda f: (f.span.start, f.span.end, CRITERIA.index(f.criterion), f.phrase)
    )
    return findings
