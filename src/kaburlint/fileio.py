"""The package's line reader, JSON-lines loader and writer, and atomic writer.

Every input file is UTF-8 text. read_lines yields ("<file>:<line>", line)
pairs, and load_jsonl names a bad JSON line as "<file>:<line>", so callers
can name the exact spot of a bad line; both raise the caller's error class
(a KaburlintError subclass), which names the path when the file cannot be
read or is not valid UTF-8. Both read a data file through _read_data, which
drops one leading byte order mark; read_text keeps a document's.
check_record is the JSON type check of every record parser.

Both readers split a file at '\n' only; read_text has already turned
'\r\n' and '\r' into '\n'. So '\x0c', '\x1c', U+0085, U+2028 and the
other separators of str.splitlines never split a line, and a line's
number counts newlines alone; dumps_jsonl writes U+2028, U+2029 and
U+0085 inside strings as they are. load_jsonl skips blank lines and
decodes each other line by one call of a shared decoder's scan_once,
accepted when the value ends exactly at the end of the line. Any other
line (with surrounding whitespace, a stray U+FEFF, extra data or invalid
JSON) goes through json.loads, so every value and every error message is
the one json.loads gives for that line, and the caller's parse checks the
record in full. Given the head its caller writes ('{"phrase": '), it also
keeps the tail of each line parsed in full, the text after its first
field's value: a line that repeats such a tail byte for byte has only that
value scanned and checked. json_encoder is the one encoder of dumps_jsonl
and of dumps_lexicon, which encodes each tail once.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path


def read_text(path: str | Path, what: str, error: type[Exception]) -> str:
    """The whole UTF-8 file; error names the path if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def _read_data(path: str | Path, what: str, error: type[Exception]) -> str:
    """read_text of a data file, without one leading U+FEFF (a byte order mark).

    str.strip keeps the mark, and json.loads refuses it, so it would join
    the first line's word, phrase or key, or fail the first record.
    """
    text = read_text(path, what, error)
    return text[1:] if text.startswith("\ufeff") else text


def read_lines(
    path: str | Path, what: str, error: type[Exception]
) -> Iterator[tuple[str, str]]:
    """Stripped lines of a text file (_read_data), skipping blanks and '#' comments."""
    name = os.path.basename(path)
    for lineno, raw in enumerate(_read_data(path, what, error).split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield f"{name}:{lineno}", line


# json.loads(line) for a line that is one JSON value with nothing around it
_scan_once = json.JSONDecoder().scan_once


def _decode_line(line: str, name: str, lineno: int, error: type[Exception]) -> object:
    """json.loads(line) for line lineno of file name, which error names if it is not JSON."""
    try:
        value, end = _scan_once(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    # not one bare value: json.loads decides, and words any error
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise error(f"{name}:{lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from None


# the tail memos of load_jsonl and dumps_lexicon give up once their misses outnumber
# their hits by this many
TAIL_MISSES = 256


def load_jsonl(
    path: str | Path, what: str, error: type[Exception], parse: Callable,
    head: str | None = None, quick: Callable | None = None,
) -> Iterator:
    """The parsed records of a JSON-lines file (_read_data), each line checked once.

    parse(record, "<file>:<line>"), the full check that raises error, parses
    every line but the tail memo's hits.

    head and quick are given together or not at all. head is '{"<field>": ',
    how the writer starts each line, and a line that starts with it is a
    value of that field and a tail, the rest of the line. The tail of a line
    parsed in full is kept with its record, unless it holds a backslash or
    the field's quoted name, which might name the field again. A line that
    repeats a kept tail byte for byte is not decoded again: only its value
    is scanned, and quick(value, the tail's record) converts it, raising
    TypeError or ValueError where parse might not agree, so that the line
    is parsed in full after all. Where the tails are mostly distinct
    (free-text fields), the memo gives up after TAIL_MISSES more misses
    than hits and every line is parsed in full.
    """
    name = os.path.basename(path)
    quoted = head[1:-2] if head is not None else None
    tails: dict[str, object] = {}  # tail -> the record of a line it ends
    misses = 0  # tail lookups that missed, less those that hit
    for lineno, line in enumerate(_read_data(path, what, error).split("\n"), start=1):
        tail = None
        if head is not None and line.startswith(head):
            try:
                field, end = _scan_once(line, len(head))
            except (StopIteration, ValueError, RecursionError):
                pass
            else:
                tail = line[end:]
                ref = tails.get(tail)
                if ref is not None:
                    try:
                        value = quick(field, ref)
                    except (TypeError, ValueError):
                        pass  # parse below words the refusal
                    else:
                        misses -= 1
                        yield value
                        continue
                misses += 1
                if misses > TAIL_MISSES:
                    head = tail = None
        if not line.strip():
            continue
        value = parse(_decode_line(line, name, lineno, error), f"{name}:{lineno}")
        if tail is not None and "\\" not in tail and quoted not in tail:
            tails[tail] = value
        yield value


def json_encoder() -> Callable[[object], str]:
    """encode(value) == json.dumps(value, ensure_ascii=False), by the C encoder where there is one."""
    e, make_encoder = json.JSONEncoder(ensure_ascii=False), json.encoder.c_make_encoder
    if make_encoder is None:  # no _json module
        return e.encode
    chunks = make_encoder(
        {}, e.default, json.encoder.encode_basestring, e.indent, e.key_separator,
        e.item_separator, e.sort_keys, e.skipkeys, e.allow_nan,
    )
    return lambda value: "".join(chunks(value, 0))


def dumps_jsonl(records: Iterable[object]) -> str:
    """JSON-lines text: json.dumps(record, ensure_ascii=False) per line.

    The counterpart of load_jsonl: every JSON-lines file the package writes
    and every records report is this text, or (dumps_lexicon) the same
    bytes built a tail at a time. One json_encoder encodes it all.
    """
    encode = json_encoder()
    return "".join([encode(record) + "\n" for record in records])


_KIND_NAMES = {
    str: "a string",
    int: "an integer",
    bool: "true or false",
    list: "an array of strings",
    dict: "an array of objects",
}


def _all_strings(values: list) -> bool:
    for value in values:
        if value.__class__ is not str:
            return False
    return True


def check_record(
    record: object,
    kinds: dict[str, object],
    where: str,
    error: type[Exception],
    required: tuple[str, ...] = (),
) -> None:
    """Raise error unless record is an object of known, well-typed fields.

    kinds maps every allowed key to the exact class of its JSON value, so a
    boolean is never an int and null is never allowed. list means an array
    of strings; a nested kinds dict means an array of objects that each
    have all of its keys.
    """
    if record.__class__ is not dict:
        raise error(f"{where}: expected an object, got {type(record).__name__}")
    for key, value in record.items():
        kind = kinds.get(key)
        if value.__class__ is kind:
            if kind is list and value and not _all_strings(value):
                raise error(f"{where}: {key!r} must be an array of strings")
        elif kind is None:
            raise error(f"{where}: unknown field(s) {sorted(record.keys() - kinds)}")
        elif kind.__class__ is dict and value.__class__ is list:
            required_keys = tuple(kind)
            for item in value:
                check_record(item, kind, where, error, required_keys)
        else:
            name = _KIND_NAMES[dict if kind.__class__ is dict else kind]
            raise error(f"{where}: {key!r} must be {name}")
    for key in required:
        if key not in record:
            raise error(f"{where}: missing field {key!r}")


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path via a temp file and rename, with LF newlines.

    Durable as well as atomic: the temp file is flushed to disk before the
    rename, and the directory after it, so a crash leaves either the old
    file or the new one, never an empty or a missing one.
    """
    import tempfile

    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_directory(path.parent)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fsync_directory(directory: Path) -> None:
    """Flush a directory's entries (a rename in it) to disk, where POSIX allows."""
    if os.name != "posix":
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
