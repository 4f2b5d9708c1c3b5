"""Reference text layer for differential tests of ``kaburlint.textcore``.

These are the straightforward per-character versions of ``_OffsetMap``,
``segment_sentences``, ``tokenize``, ``line_col`` and ``slice_span`` (the
text that ``Tokens.locate`` gives with each span, now): a full
character -> byte table with a reverse dict, ``count``/``rfind`` line
numbers and a character loop tokenizer. They are kept unchanged as the
definition of correct output; the optimized module must produce the same
spans, surfaces, kinds and locations on every text. ``OracleDocument``
is the original ``Document``, so its offset map is this module's table,
and ``Sentence`` and ``Token`` the original sentence and token records:
a token's kind (``token_kind``) is a function of its surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from kaburlint.records import DEFAULT_ABBREVIATIONS, Span
from kaburlint.textcore import TERMINATORS

WORD = "word"
SYMBOL = "symbol"
NUMBER = "number"


@dataclass(frozen=True)
class Sentence:
    """A sentence's byte span and its 0-based position in the document."""

    span: Span
    index: int


@dataclass(frozen=True)
class Token:
    """One token: its span, text, case-folded text and kind."""

    span: Span
    surface: str
    normalized: str
    kind: str  # WORD, SYMBOL or NUMBER


def token_kind(surface: str) -> str:
    """WORD with a letter, else NUMBER with a digit, else SYMBOL."""
    if any(c.isalpha() for c in surface):
        return WORD
    if any(c.isdigit() for c in surface):
        return NUMBER
    return SYMBOL


class _OffsetMap:
    """Bidirectional character index <-> byte offset table for one text."""

    __slots__ = ("char_to_byte", "byte_to_char")

    def __init__(self, text: str) -> None:
        table = [0] * (len(text) + 1)
        pos = 0
        for i, ch in enumerate(text):
            table[i] = pos
            pos += len(ch.encode("utf-8"))
        table[len(text)] = pos
        self.char_to_byte = table
        self.byte_to_char = {b: i for i, b in enumerate(table)}


@dataclass
class OracleDocument:
    """One input text, usually a whole requirement-specification file."""

    id: str
    text: str
    source_path: str | None = None
    _offsets: _OffsetMap | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")

    def offsets(self) -> _OffsetMap:
        if self._offsets is None:
            self._offsets = _OffsetMap(self.text)
        return self._offsets


def slice_span(doc: OracleDocument, span: Span) -> str:
    """Return the document substring covered by a byte span."""
    offsets = doc.offsets()
    try:
        a = offsets.byte_to_char[span.start]
        b = offsets.byte_to_char[span.end]
    except KeyError:
        raise ValueError(f"span [{span.start}, {span.end}) not on character boundaries")
    return doc.text[a:b]


def line_col(doc: OracleDocument, byte_offset: int) -> tuple[int, int]:
    """1-based (line, column) of a byte offset, for report locations."""
    char = doc.offsets().byte_to_char[byte_offset]
    line = doc.text.count("\n", 0, char) + 1
    col = char - doc.text.rfind("\n", 0, char)
    return line, col


def _is_word_char(ch: str) -> bool:
    return ch.isalnum()


def _decimal_period(text: str, i: int) -> bool:
    # "3.14" must neither end a sentence nor split a number token
    return 0 < i < len(text) - 1 and text[i - 1].isdigit() and text[i + 1].isdigit()


def _abbreviation_period(text: str, i: int, abbrevs: frozenset[str] | set[str]) -> bool:
    # i points at '.'; compare the immediately preceding token plus the dot
    j = i - 1
    while j >= 0 and (text[j].isalpha() or text[j] == "."):
        j -= 1
    candidate = text[j + 1 : i + 1].casefold()
    return candidate in abbrevs


def segment_sentences(
    doc: OracleDocument, abbreviations: frozenset[str] | set[str] = DEFAULT_ABBREVIATIONS
) -> list[Sentence]:
    """Split a document into sentences.

    Terminators are '.', '?' and '!'; every newline also ends the current
    block. Periods inside the configured abbreviations ("dll.") or between
    digits do not split. Returns sentences ordered by start offset.
    """
    text = doc.text
    offsets = doc.offsets()
    abbrevs = frozenset(a.casefold() for a in abbreviations)
    sentences: list[Sentence] = []

    def emit(cs: int, ce: int) -> None:
        while ce > cs and text[ce - 1].isspace():
            ce -= 1
        if ce <= cs:
            return
        span = Span(offsets.char_to_byte[cs], offsets.char_to_byte[ce])
        sentences.append(Sentence(span, len(sentences)))

    n = len(text)
    start: int | None = None
    i = 0
    while i < n:
        ch = text[i]
        if ch == "\n":
            if start is not None:
                emit(start, i)
            start = None
            i += 1
            continue
        if start is None:
            if ch.isspace():
                i += 1
                continue
            start = i
        if ch in TERMINATORS:
            if ch == "." and (
                _decimal_period(text, i) or _abbreviation_period(text, i, abbrevs)
            ):
                i += 1
                continue
            j = i + 1
            while j < n and text[j] in TERMINATORS:
                j += 1
            emit(start, j)
            start = None
            i = j
            continue
        i += 1
    if start is not None:
        emit(start, n)
    return sentences


def tokenize(
    doc: OracleDocument,
    sentence: Sentence,
    abbreviations: frozenset[str] | set[str] = DEFAULT_ABBREVIATIONS,
) -> list[Token]:
    """Split one sentence into word, number and symbol tokens.

    Hyphens join word characters on both sides into a single token
    ("rekod-rekod"); '.' and ',' between digits stay inside number tokens;
    a period stays inside a token when the result is a listed abbreviation
    ("dll."); runs of other punctuation become one symbol token.
    Whitespace never appears inside a token.
    """
    text = doc.text
    offsets = doc.offsets()
    abbrevs = frozenset(a.casefold() for a in abbreviations)
    a = offsets.byte_to_char[sentence.span.start]
    b = offsets.byte_to_char[sentence.span.end]
    tokens: list[Token] = []

    i = a
    while i < b:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if _is_word_char(ch):
            j = i + 1
            while j < b:
                c = text[j]
                if _is_word_char(c):
                    j += 1
                elif c == "-" and j + 1 < b and _is_word_char(text[j + 1]):
                    j += 1
                elif (
                    c in ".,"
                    and text[j - 1].isdigit()
                    and j + 1 < b
                    and text[j + 1].isdigit()
                ):
                    j += 1
                elif c == "." and text[i : j + 1].casefold() in abbrevs:
                    j += 1
                else:
                    break
        else:
            j = i + 1
            while j < b and not text[j].isspace() and not _is_word_char(text[j]):
                j += 1
        surface = text[i:j]
        span = Span(offsets.char_to_byte[i], offsets.char_to_byte[j])
        tokens.append(Token(span, surface, surface.casefold(), token_kind(surface)))
        i = j
    return tokens
