"""Reference dangling-else check for differential tests of ``kaburlint.analyzer``.

This is the configurable version of the dangling-else check: each marker is
case-folded and split per call, ``_contains_marker`` walks every position
for every marker, and the earliest conditional wins, ties going to the
marker listed first. It is kept unchanged as the definition of correct
output; ``lint_document``'s fixed-marker check must give the same
finding, span and matched text on every sentence pair. The marker lists
that used to come from ``LintConfig`` are keyword arguments with the same
defaults. ``Sentence``, ``Token`` and the finding's line:col, counted from
its byte start (``line_col``), are ``textcore_oracle``'s.
"""

from __future__ import annotations

from collections.abc import Sequence

from kaburlint.analyzer import SEVERITY_INFO, Finding
from kaburlint.lexicon import AttributeTag
from kaburlint.records import DANGLING_ELSE, Span
from textcore_oracle import OracleDocument, Sentence, Token, line_col

DEFAULT_CONDITIONAL_MARKERS = ("jika", "sekiranya", "apabila")
DEFAULT_ALTERNATIVE_MARKERS = ("jika tidak", "selainnya", "sebaliknya")


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
    *,
    conditional_markers: tuple[str, ...] = DEFAULT_CONDITIONAL_MARKERS,
    alternative_markers: tuple[str, ...] = DEFAULT_ALTERNATIVE_MARKERS,
    next_tokens: Sequence[Token] = (),
    doc: OracleDocument,
) -> Finding | None:
    """Conditional marker without an alternative branch nearby.

    Fires when the sentence contains a conditional marker and neither this
    sentence nor the immediately following one contains an alternative
    marker.
    """
    words = [t.normalized for t in tokens]
    first_marker: tuple[int, int] | None = None
    for marker in conditional_markers:
        marker_words = tuple(marker.casefold().split())
        at = _contains_marker(words, marker_words)
        if at is not None and (first_marker is None or at < first_marker[0]):
            first_marker = (at, len(marker_words))
    if first_marker is None:
        return None
    next_words = [t.normalized for t in next_tokens]
    for alternative in alternative_markers:
        alt_words = tuple(alternative.casefold().split())
        if (
            _contains_marker(words, alt_words) is not None
            or _contains_marker(next_words, alt_words) is not None
        ):
            return None
    start, length = first_marker
    run = tokens[start : start + length]
    span = Span(run[0].span.start, run[-1].span.end)
    line, col = line_col(doc, span.start)
    return Finding(
        doc_id=doc.id,
        line=line,
        col=col,
        sentence_index=sentence.index,
        span=span,
        matched=" ".join(t.surface for t in run),
        phrase="",
        tags=frozenset({AttributeTag("CON", "dangling_else")}),
        criterion=DANGLING_ELSE,
        severity=SEVERITY_INFO,
    )
