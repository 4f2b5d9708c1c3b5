"""Sentence segmentation and tokenization, kept as columns.

Spans are byte offsets into the UTF-8 encoding of the document text and
always fall on character boundaries, so reports stay editor-friendly and
bit-exact across platforms. Everything here is a pure function over an
immutable document; per-document parallel use is safe.

Segmentation and tokenization work in character offsets and return
columns, not objects. A document's sentences (SentenceList) are their
character starts and ends, read a window of consecutive sentences at a
time (SentenceList.windows; one sentence is a window of one). A window's
tokens (Tokens) are one flat surface column and each sentence's first
token index, with case-folded words computed on first use. Every later
stage takes a window as Tokens and reads its plain lists. Tokens carry
no offsets: Tokens.locate finds the runs of tokens that give a finding
or an occurrence, all of a window's runs in one call, with each run's
first character index for line_col. A sentence with one run is settled
by str.find when the run's end surfaces occur once in it; any other
sentence is walked once, token by token.

Every step is linear in the document. A document builds its offset map
at its first span; the map converts character indices to byte offsets,
by identity when the text is ASCII, and otherwise with a sparse table of
the non-ASCII characters only and ``bisect``. It converts a window's
character ranges to byte spans in one call (spans). line_col gives the
line:col of a list of character indices in one call, bisecting a
line-start table that the document builds on first use, so a location
never goes through bytes. Segmentation never crosses a newline, so it
decides each line with str methods: a line whose only terminators are
its trailing run, or periods that the decimal and abbreviation rules
keep, is one sentence, and only the other lines are scanned break by
break. The tokenizer splits a sentence at whitespace, which no token
spans: an alnum chunk is one word and a word with a final '.' or ',' is
decided by one abbreviation lookup; other chunks go through the token
pattern and the per-character rules at '.' and ',' (decimals and
abbreviations).

Normalization is case-folding only. Hyphenated words ("rekod-rekod") are
kept as single tokens so the reduplication filter can see them whole, and
clitic suffixes are never split off.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain

from .records import DEFAULT_ABBREVIATIONS, Record, Span

TERMINATORS = frozenset(".?!")

# Sentences per window in lint and extraction: every stage runs once per
# window, and a window's columns keep memory bounded on a long document.
SENTENCE_WINDOW = 64

_NON_ASCII = re.compile(r"[^\x00-\x7f]")
_NEWLINE = re.compile(r"\n")
_NON_SPACE = re.compile(r"\S")
# a newline or one of TERMINATORS, and a run of TERMINATORS
_BREAK = re.compile(r"[\n.?!]")
_TERMINATOR_RUN = re.compile(r"[.?!]+")
# segment_sentences splits the text into lines one block of at least this
# many characters at a time, so it never holds a copy of a whole long text
_LINE_BLOCK = 1 << 14
# Re's \w is str.isalnum() plus "_" and its \s is str.isspace(), so a token
# starts at the first match: a word run (alnum characters, single hyphens
# between them) or a symbol run (neither alnum nor space). A match is a word
# run exactly when its first character is alnum.
_TOKEN = re.compile(r"[^\W_]+(?:-[^\W_]+)*|(?:[^\w\s]|_)+")
# what may follow a '.' or ',' that a number or abbreviation took in
_WORD_TAIL = re.compile(r"(?:-?[^\W_]+)*")


class _OffsetMap:
    """Character index -> UTF-8 byte offset conversion for one text.

    ASCII text (``str.isascii()``) converts by identity and stores no
    table. Other text stores only the character indices of its non-ASCII
    characters and the running count of extra UTF-8 bytes up to each; a
    conversion is one ``bisect`` on that sparse table, so memory grows
    with the non-ASCII characters, not with the text.
    """

    __slots__ = ("_chars", "_extra")

    def __init__(self, text: str) -> None:
        if text.isascii():
            self._chars = self._extra = None
            return
        chars = [m.start() for m in _NON_ASCII.finditer(text)]
        self._chars = chars
        self._extra = list(accumulate(len(text[c].encode("utf-8")) - 1 for c in chars))

    def spans(self, ranges: list[tuple[int, int]]) -> list[Span]:
        """The byte Span of each character range (start, end), in one call."""
        chars = self._chars
        if chars is None:
            return [Span(a, b) for a, b in ranges]
        extra = self._extra
        return [
            Span(
                a + extra[k - 1] if (k := bisect_left(chars, a)) else a,
                b + extra[k - 1] if (k := bisect_left(chars, b, k)) else b,
            )
            for a, b in ranges
        ]


class Document(Record):
    """One input text, usually a whole requirement-specification file."""

    __slots__ = ("id", "text", "_offsets", "_line_starts")

    def __init__(self, id: str, text: str) -> None:
        if not id:
            raise ValueError("document id must be non-empty")
        self.id = id
        self.text = text
        self._offsets: _OffsetMap | None = None
        self._line_starts: list[int] | None = None

    def offsets(self) -> _OffsetMap:
        if self._offsets is None:
            self._offsets = _OffsetMap(self.text)
        return self._offsets


def line_col(doc: Document, chars: list[int]) -> list[tuple[int, int]]:
    """1-based (line, column) of each character index of doc.text, in one call.

    A column counts characters, so a BOM is column 1 of line 1, and only
    "\n" starts a line. The document's line-start table (the character
    indices that follow a newline) is built on its first call.
    """
    starts = doc._line_starts
    if starts is None:
        starts = doc._line_starts = [0, *(m.end() for m in _NEWLINE.finditer(doc.text))]
    return [(line := bisect_right(starts, c), c - starts[line - 1] + 1) for c in chars]


def _kept_period(text: str, i: int, abbrevs: frozenset[str] | set[str], longest: int) -> bool:
    """Whether the '.' at text[i] stays inside its sentence.

    It does between digits ("3.14") and when it ends a listed abbreviation:
    the run of letters and dots just before it, plus the dot, case-folded.
    """
    if 0 < i < len(text) - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
        return True
    # A run longer than the longest abbreviation cannot match, so the walk
    # back stops there ("a.a.a." would otherwise rescan the run at each dot);
    # a word of at least that many letters is settled without the walk.
    if i >= longest and text[i - longest : i].isalpha():
        return False
    j = i - 1
    while j >= 0 and (text[j].isalpha() or text[j] == "."):
        if i - j >= longest:
            return False
        j -= 1
    return text[j + 1 : i + 1].casefold() in abbrevs


def _kept_periods(
    text: str, first: int, core: str, abbrevs: frozenset[str] | set[str], longest: int
) -> bool:
    """Whether every '.' of core, the text from index first on, stays inside its sentence."""
    k = core.find(".")
    while k >= 0:
        if not _kept_period(text, first + k, abbrevs, longest):
            return False
        k = core.find(".", k + 1)
    return True


class SentenceList:
    """A document's sentences: the character starts and ends of each.

    Sentence k of the list is text[starts[k]:ends[k]]; windows() cuts the
    list into the windows that tokenize takes.
    """

    __slots__ = ("starts", "ends")

    def __init__(self, starts: list[int], ends: list[int]) -> None:
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.starts)

    def windows(self):
        """Consecutive SentenceLists of SENTENCE_WINDOW sentences (the last may hold fewer)."""
        starts, ends, size = self.starts, self.ends, SENTENCE_WINDOW
        for k in range(0, len(starts), size):
            yield SentenceList(starts[k : k + size], ends[k : k + size])


class Tokens:
    """The tokens of a window of consecutive sentences, as flat columns.

    surfaces holds the window's tokens in order, and heads each sentence's
    first token index followed by the token count, so sentence s is
    surfaces[heads[s]:heads[s + 1]]; a single sentence is a window of one.
    window is the window's SentenceList. Words, the case-folded surfaces,
    are computed on first read. Tokens carry no offsets: locate() finds
    where runs of tokens are, all of a window's runs in one call.
    """

    __slots__ = ("doc", "surfaces", "heads", "window", "_starts", "_ends", "_words")

    def __init__(
        self, doc: Document, surfaces: list[str], heads: list[int], window: SentenceList
    ) -> None:
        self.doc = doc
        self.surfaces = surfaces
        self.heads = heads
        self.window = window
        self._starts: list[int | None] | None = None
        self._ends: list[int | None] | None = None
        self._words: list[str] | None = None

    def __len__(self) -> int:
        return len(self.surfaces)

    @property
    def words(self) -> list[str]:
        """The normalized (case-folded) surfaces."""
        if self._words is None:
            self._words = list(map(str.casefold, self.surfaces))
        return self._words

    def sentence_of(self, k: int) -> int:
        """The window position of the sentence that holds token k."""
        return bisect_right(self.heads, k) - 1

    def locate(self, runs: list[tuple[int, int]]) -> list[tuple[int, Span, str, int]]:
        """Each run's sentence, byte span, text and first character index.

        A run (first, last) spans from the start of token first to the end
        of token last, both in one sentence. A sentence that holds one run
        (a run given twice counts once) is probed once: an end token whose
        surface occurs once in the sentence's text (the last token's: once
        after the first token) is that occurrence. Any other sentence is
        walked once, and the walk is kept: each of its tokens starts where
        its surface next occurs after the previous one. So a sentence costs
        at most one probe and one walk, linear in its text, however many
        runs it holds.
        """
        if not runs:
            return []  # no offset map is built for a window without hits
        heads, text = self.heads, self.doc.text
        sentences = [bisect_right(heads, first) - 1 for first, _ in runs]
        alone: dict[int, tuple[int, int] | None] = {}  # sentence -> its one run
        for s, run in zip(sentences, runs):
            if alone.setdefault(s, run) != run:
                alone[s] = None
        probed: dict[int, tuple[int, int] | None] = {}
        ranges = []
        for s, (first, last) in zip(sentences, runs):
            walked = self._starts is not None and self._starts[first] is not None
            if not walked and alone[s] is not None:
                if s not in probed:
                    probed[s] = self._probe(s, first, last)
                if probed[s] is not None:
                    ranges.append(probed[s])
                    continue
            if not walked:
                self._walk(s)
            ranges.append((self._starts[first], self._ends[last]))
        return [
            (s, span, text[a:b], a)
            for s, span, (a, b) in zip(sentences, self.doc.offsets().spans(ranges), ranges)
        ]

    def _probe(self, s: int, first: int, last: int) -> tuple[int, int] | None:
        """The character range of run (first, last) of sentence s, if a probe settles it."""
        surfaces, find = self.surfaces, self.doc.text.find
        hi = self.window.ends[s]
        word = surfaces[first]
        a = find(word, self.window.starts[s], hi)
        if find(word, a + 1, hi) >= 0:
            return None
        b = a + len(word)
        if last != first:
            word = surfaces[last]
            z = find(word, b, hi)
            if find(word, z + 1, hi) >= 0:
                return None
            b = z + len(word)
        return a, b

    def _walk(self, s: int) -> None:
        """Locate every token of sentence s in characters."""
        starts, ends, surfaces = self._starts, self._ends, self.surfaces
        if starts is None:
            starts = self._starts = [None] * len(surfaces)
            ends = self._ends = [None] * len(surfaces)
        find = self.doc.text.find
        pos = self.window.starts[s]
        for i in range(self.heads[s], self.heads[s + 1]):
            starts[i] = pos = find(surfaces[i], pos)
            ends[i] = pos = pos + len(surfaces[i])


def _segment_breaks(
    text: str,
    lo: int,
    hi: int,
    abbreviations: frozenset[str] | set[str],
    longest: int,
    starts: list[int],
    ends: list[int],
) -> None:
    """Append the sentences of text[lo:hi], break by break.

    lo is the first non-space character of a line and hi ends a line (a
    newline or the end of the text). Only newlines and terminators change
    state; a sentence starts at the first non-space character after the
    previous break and ends, trailing spaces stripped, at a terminator run
    or a newline.
    """
    start: int | None = lo
    pos = lo
    # hi ends the last line as a newline would
    for i in chain(map(re.Match.start, _BREAK.finditer(text, lo, hi)), (hi,)):
        if i < pos:
            continue  # inside a terminator run that ended a sentence
        if start is None and (first := _NON_SPACE.search(text, pos, i)):
            start = first.start()
        pos = i + 1
        if i == hi or (c := text[i]) == "\n":
            end = i
        else:
            if start is None:
                start = i
            if c == "." and _kept_period(text, i, abbreviations, longest):
                continue
            if text[pos : pos + 1] in TERMINATORS:  # a run of them ends the sentence
                pos = _TERMINATOR_RUN.match(text, i).end()
            end = pos
        if start is not None:
            while text[end - 1].isspace():
                end -= 1
            starts.append(start)
            ends.append(end)
        start = None


def segment_sentences(
    doc: Document, abbreviations: frozenset[str] | set[str] = DEFAULT_ABBREVIATIONS
) -> SentenceList:
    """Split a document into sentences.

    Terminators are '.', '?' and '!'; every newline also ends the current
    block. Periods inside the configured abbreviations ("dll."; case-folded
    entries) or between digits do not split. Returns sentences ordered by
    start offset.

    No sentence crosses a newline, so the text is decided line by line,
    with str methods. A line whose stripped body holds no '?' or '!'
    outside its trailing terminator run, and no '.' there that the decimal
    or abbreviation rule would let end a sentence, is one sentence: the
    body. Whatever the rules decide at the trailing run, the sentence ends
    with it. Only the other lines go through the per-break scan, each run
    of consecutive ones in one call (_segment_breaks), so text with
    several sentences per line pays no per-line call.
    """
    text = doc.text
    longest = max(map(len, abbreviations), default=0)
    starts: list[int] = []
    ends: list[int] = []
    size = len(text)
    scan_from = -1  # first non-space of the lines that await the per-break scan
    pos = 0  # where the next line starts
    while pos <= size:
        cut = text.find("\n", pos + _LINE_BLOCK)
        for line in text[pos : cut if cut >= 0 else size].split("\n"):
            body = line.lstrip()
            if body:
                first = pos + len(line) - len(body)
                body = body.rstrip()
                core = body.rstrip(".?!")
                if (
                    "?" in core
                    or "!" in core
                    or "." in core
                    and not _kept_periods(text, first, core, abbreviations, longest)
                ):
                    if scan_from < 0:
                        scan_from = first
                else:
                    if scan_from >= 0:
                        _segment_breaks(
                            text, scan_from, pos - 1, abbreviations, longest, starts, ends
                        )
                        scan_from = -1
                    starts.append(first)
                    ends.append(first + len(body))
            pos += len(line) + 1
    if scan_from >= 0:
        _segment_breaks(text, scan_from, size, abbreviations, longest, starts, ends)
    return SentenceList(starts, ends)


def _scan(text: str, abbreviations: frozenset[str] | set[str]) -> list[str]:
    """The token surfaces of text, match by match."""
    surfaces: list[str] = []
    pos = 0
    b = len(text)
    while (m := _TOKEN.search(text, pos)) is not None:
        i, pos = m.span()
        if text[i].isalnum():
            # a '.' or ',' may extend a word run (decimal or abbreviation rule)
            while pos < b and text[pos] in ".,":
                if text[pos - 1].isdigit() and pos + 1 < b and text[pos + 1].isdigit():
                    pos += 1
                elif text[pos] == "." and text[i : pos + 1].casefold() in abbreviations:
                    pos += 1
                else:
                    break
                pos = _WORD_TAIL.match(text, pos, b).end()
        surfaces.append(text[i:pos])
    return surfaces


def tokenize(
    doc: Document,
    window: SentenceList,
    abbreviations: frozenset[str] | set[str] = DEFAULT_ABBREVIATIONS,
) -> Tokens:
    """Split a window of sentences into word, number and symbol tokens.

    Hyphens join word characters on both sides into a single token
    ("rekod-rekod"); '.' and ',' between digits stay inside number tokens;
    a period stays inside a token when the case-folded result is a listed
    abbreviation ("dll."; entries are case-folded); runs of other
    punctuation become one symbol token. Whitespace never appears inside a
    token. window is consecutive sentences, as SentenceList.windows()
    gives them, and one sentence is a window of one; each sentence is
    split on its own, and Tokens.heads keeps where each one starts. Tokens
    are located (Tokens.locate) only when a caller asks where they are.
    """
    starts, ends = window.starts, window.ends
    text = doc.text
    surfaces: list[str] = []
    append = surfaces.append
    heads = [0]
    # No token spans whitespace and the rules look at nothing beyond the
    # token they extend, so the whitespace-free chunks tokenize on their
    # own: an alnum chunk is one word, a word and a final '.' or ',' is two
    # tokens unless the abbreviation rule joins them, and any other chunk
    # goes through _scan. str.split and the token pattern agree on what
    # whitespace is.
    for a, b in zip(starts, ends):
        for chunk in text[a:b].split():
            if chunk.isalnum():
                append(chunk)
            elif chunk[-1] in ".," and chunk[:-1].isalnum():
                if chunk[-1] == "." and chunk.casefold() in abbreviations:
                    append(chunk)
                else:
                    append(chunk[:-1])
                    append(chunk[-1])
            else:
                surfaces += _scan(chunk, abbreviations)
        heads.append(len(surfaces))
    return Tokens(doc, surfaces, heads, window)

