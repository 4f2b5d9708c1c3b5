"""The line and JSON-lines readers: lines end at '\\n' alone, after one byte order mark."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaburlint.config import load_config
from kaburlint.errors import KaburlintError, WordlistError
from kaburlint.fileio import dumps_jsonl, load_jsonl, read_lines
from kaburlint.filters import load_wordlist
from kaburlint.lexicon import load_pos_dictionary, load_rule_lists

DEEP = "[" * 100_000 + "]" * 100_000

EDGE_LINES = [
    "", " ", "\t", " \t ", "\x0c", "\x1c", "\u2028", "\xa0",  # blank to str.strip
    " 1", "1 ", "\t{}", "{}\t", " [1, 2] ", "\ufeff{}", "\ufeff",
    "NaN", "-Infinity", "[NaN, Infinity]", "1 2", "{}x", "{}{}", "[1,]", "{oops",
    '"\u2028"', '{"a": "\u2029\x85"}', '{"a": 1}\u2028', "\u2028{}", DEEP,
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=5), children, max_size=4)
    ),
    max_leaves=12,
)
encoded_values = st.builds(
    json.dumps,
    json_values,
    ensure_ascii=st.booleans(),
    separators=st.sampled_from([None, (",", ":"), (" , ", " : ")]),
)
padding = st.sampled_from(["", "", "", " ", "\t", " \t"])
any_lines = st.one_of(
    encoded_values,
    st.builds(lambda before, line, after: before + line + after, padding, encoded_values, padding),
    st.sampled_from(EDGE_LINES),
)


class FileError(KaburlintError):
    pass


def loads_each_line(text: str, name: str) -> tuple[list[tuple[int, object]], str | None]:
    """(line number, json.loads(line)) per non-blank '\\n'-split line up to the first error.

    One leading byte order mark is dropped first, as both readers drop it.
    """
    values = []
    text = text[1:] if text.startswith("\ufeff") else text
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            values.append((lineno, json.loads(line)))
        except (ValueError, RecursionError) as exc:
            return values, f"{name}:{lineno}: invalid JSON ({getattr(exc, 'msg', exc)})"
    return values, None


def read_all(path: Path) -> tuple[list[tuple[int, object]], str | None]:
    """As loads_each_line, by load_jsonl with a parse that keeps each record and its line number."""

    def parse(record: object, where: str) -> tuple[int, object]:
        return int(where.rpartition(":")[2]), record

    values = []
    try:
        for item in load_jsonl(path, "test file", FileError, parse):
            values.append(item)
    except FileError as exc:
        return values, str(exc)
    return values, None


@pytest.fixture(scope="module")
def records_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "records.jsonl"


@settings(max_examples=300, deadline=None)
@given(st.lists(any_lines, max_size=8), st.booleans())
@example(["{}", " 1", '"\u2028"', "2"], True)
@example(["\ufeff{}"], False)
@example([DEEP, "1"], True)
def test_reader_yields_json_loads_of_each_line(records_file, lines, final_newline):
    text = "\n".join(lines) + ("\n" if final_newline else "")
    records_file.write_text(text, encoding="utf-8", newline="")
    text = records_file.read_text(encoding="utf-8")  # as read_text reads it
    want_values, want_error = loads_each_line(text, records_file.name)
    got_values, got_error = read_all(records_file)
    # repr tells 1 from 1.0 and True, keeps key order and matches NaN to NaN
    assert repr(got_values) == repr(want_values)
    assert got_error == want_error


@pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\x0b"])
def test_line_reader_splits_at_newline_alone(tmp_path, separator):
    # read_text turns '\r\n' and '\r' into '\n'; no other separator splits
    path = tmp_path / "lines.txt"
    path.write_text(
        f"# note{separator}more\r\nsatu{separator}dua\rtiga\n\n  empat  \n", encoding="utf-8"
    )
    assert list(read_lines(path, "wordlist", WordlistError)) == [
        ("lines.txt:2", f"satu{separator}dua"), ("lines.txt:3", "tiga"), ("lines.txt:5", "empat")
    ]
    # a comment holding a separator is one line, so a bad row is named by its own line
    pos = tmp_path / "pos.tsv"
    pos.write_text(f"papar\tkk\n# note{separator}more\nalam\n", encoding="utf-8")
    with pytest.raises(WordlistError, match=r"pos\.tsv:3: expected word<TAB>pos"):
        load_pos_dictionary(pos)
    pos.write_text(f"papar\tkk\n# note{separator}more\nalam\tkk\n", encoding="utf-8")
    assert len(load_pos_dictionary(pos)) == 2


# each line-list loader, with its file of the seed tree
LINE_LISTS = {
    "config": (load_config, "kaburlint.conf"),
    "wordlist": (load_wordlist, "wordlists/abbreviations.txt"),
    "rule list": (lambda path: load_rule_lists({"T": path}), "rules/temporal.txt"),
    "POS dictionary": (lambda path: list(load_pos_dictionary(path).items()), "pos_dict.tsv"),
}


@pytest.mark.parametrize("first", ["comment", "data"])
@pytest.mark.parametrize("kind", sorted(LINE_LISTS))
def test_a_line_list_with_a_byte_order_mark_loads_as_without(seed_env, kind, first):
    # U+FEFF is no whitespace to str.strip: kept, it joined line 1's '#' or word
    load, name = LINE_LISTS[kind]
    text = (seed_env / name).read_text(encoding="utf-8")
    if first == "data":
        text = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    assert text.startswith("#") == (first == "comment")
    plain, marked = seed_env / f"plain-{Path(name).name}", seed_env / f"marked-{Path(name).name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert load(marked) == load(plain)


# record-like objects: the strings hold what a careless encoder escapes or splits at
special_text = st.text(st.sampled_from(["a", "é", "ß", "\u2028", "\u2029", "\x85", "\n", '"', "\\", "\x00", "😀"]))
field_values = st.recursive(
    st.booleans() | st.integers() | special_text | st.none() | st.floats(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(special_text, children, max_size=3),
    max_leaves=8,
)
jsonl_records = st.one_of(
    st.dictionaries(special_text, field_values, max_size=5),
    st.fixed_dictionaries({
        "phrase": st.lists(special_text, max_size=3),
        "occurrences": st.lists(
            st.fixed_dictionaries({"doc": special_text, "start": st.integers(0), "end": st.integers(0)}),
            max_size=3,
        ),
        "senses": st.integers(), "force": st.booleans(),
    }),
)


@pytest.mark.parametrize("encoder", ["c", "python"])
@settings(max_examples=200, deadline=None)
@given(records=st.lists(jsonl_records, max_size=4))
@example(records=[{"phrase": ["\u2028\u2029\x85é"], "senses": 2, "force": True}])
def test_dumps_jsonl_is_json_dumps_of_each_record(encoder, records):
    want = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    if encoder == "python":
        with mock.patch.object(json.encoder, "c_make_encoder", None):
            assert dumps_jsonl(records) == want
    else:
        assert json.encoder.c_make_encoder is not None
        assert dumps_jsonl(records) == want
