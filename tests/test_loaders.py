"""The JSON-lines loaders give what parsing record by record gives.

load_candidates checks every record in full. load_lexicon and load_audit
keep the tail of each line that starts '{"phrase": ' and is checked in
full, the text after the phrase array: a line that repeats such a tail has
only its phrase scanned and checked (lexicon.loaded_phrase), until
distinct tails outnumber repeated ones by fileio.TAIL_MISSES. So their
lines are written here in every form a file may hold: as kaburlint writes
them, ASCII-escaped, compact, with phrase not first, with a tail that
names phrase again, and with tokens that hold '"]' or '], "'. A file with a
byte order mark loads as without.

The oracle parses every line with json.loads and every record in full, as
one record_to_* call each, with the duplicate check of the lexicon and of
the queue, so a memo hit that lets a bad record through, or a message that
changes, shows as a difference.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kaburlint.curation import load_audit, load_candidates, record_to_candidate, record_to_decision
from kaburlint.errors import KaburlintError, LexiconError, ReviewError
from kaburlint.fileio import TAIL_MISSES
from kaburlint.lexicon import (
    ATTRIBUTES,
    SOURCES,
    STATUSES,
    SUB_ATTRIBUTES,
    Lexicon,
    load_lexicon,
    record_to_entry,
)
from kaburlint.records import CRITERIA


GOLDEN = Path(__file__).parent / "golden"


def each_record(path: Path):
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if line.strip():
            yield json.loads(line), f"{path.name}:{lineno}"


def lexicon_oracle(path: Path) -> list:
    lexicon = Lexicon()
    for record, where in each_record(path):
        entry = record_to_entry(record, where)
        if entry.phrase in lexicon:
            raise LexiconError(f"{where}: duplicate phrase {entry.phrase_text!r}")
        lexicon.add(entry)
    return lexicon.entries()


def queue_oracle(path: Path) -> list:
    candidates = {}
    for record, where in each_record(path):
        candidate = record_to_candidate(record, where)
        if candidate.phrase in candidates:
            raise ReviewError(f"{where}: duplicate phrase {candidate.phrase_text!r}")
        candidates[candidate.phrase] = candidate
    return list(candidates.values())


LOADERS = {
    "lexicon": (lambda path: load_lexicon(path).entries(), lexicon_oracle),
    "queue": (load_candidates, queue_oracle),
    "audit": (
        load_audit,
        lambda path: [record_to_decision(r, where) for r, where in each_record(path)],
    ),
}

TAGS = [*ATTRIBUTES, *(f"{a}.{s}" for a in ATTRIBUTES for s in sorted(SUB_ATTRIBUTES[a]))]
WORDS = ["segera", "papar", "data", "masa", "Papar", "é", "ß"]


def some(values, **sizes) -> st.SearchStrategy:
    return st.lists(st.sampled_from(values), unique=True, **sizes)


# the loaders with a tail memo
TAIL_MEMO = ["audit", "lexicon"]

# the fields every record of one shape shares, valid for the loader
SHAPES = {
    "lexicon": st.fixed_dictionaries(
        {"pos": some(["kn", "kk", "adj", "kt", "other"], max_size=2),
         "tags": some(TAGS, min_size=1, max_size=2),
         "status": st.sampled_from(STATUSES),
         "source": st.sampled_from(SOURCES)},
        optional={"senses": st.integers(0, 3), "note": st.sampled_from(["", "nota"])},
    ),
    "queue": st.fixed_dictionaries(
        {"tags": some(TAGS, max_size=2), "criteria": some(CRITERIA, max_size=2)},
        # written by queues before the lexicon alone held verdicts
        optional={"status": st.sampled_from(["pending", "accepted", "rejected"])},
    ),
    "audit": st.fixed_dictionaries(
        {"verdict": st.sampled_from(["accept", "reject"]), "tags": some(TAGS, min_size=1, max_size=2)},
        optional={"reviewer": st.sampled_from(["", "pakar"]), "note": st.just("nota"),
                  "force": st.booleans()},
    ),
}
PHRASES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3)
OCCURRENCES = st.lists(
    st.integers(0, 50).flatmap(
        lambda start: st.fixed_dictionaries(
            {"doc": st.sampled_from(["a.txt", "b.txt"]), "start": st.just(start),
             "end": st.integers(start + 1, start + 9)}
        )
    ),
    min_size=1,
    max_size=3,
)
TIMESTAMPS = st.sampled_from(["2026-01-01T00:00:00+00:00", "2026-01-01T00:01:00+00:00"])

# one bad change to a record whose shape an earlier record has: (field, value)
BAD = {
    "lexicon": [
        ("phrase", []), ("phrase", ["a b"]), ("phrase", [""]), ("phrase", ["x", 1]),
        ("phrase", "papar"), ("phrase", ["Papar", "a\tb"]), ("phrase", ["a\u2028b"]),
        ("phrase", None),
        ("tags", "IMP"), ("tags", []), ("status", ["verified"]), ("pos", [1]), ("pos", "kk"),
        ("senses", "2"), ("senses", True), ("senses", 1.0), ("senses", -1),
        ("stray", 1), ("source", None),
    ],
    "queue": [
        ("phrase", "papar"), ("phrase", [1]), ("phrase", {"a": 1}),
        ("occurrences", []), ("occurrences", [{"doc": "a", "start": True, "end": 2}]),
        ("occurrences", [{"doc": "a", "start": 0, "end": True}]),
        ("occurrences", [{"doc": "a", "start": 0}]), ("occurrences", [{"doc": 7, "start": 0, "end": 1}]),
        ("occurrences", [{"doc": "a", "start": 0, "end": 1, "x": 1}]),
        ("occurrences", [{"doc": "a", "start": 3, "end": 3}]), ("occurrences", [["a", 0, 1]]),
        ("occurrences", {"doc": "a", "start": 0, "end": 1}),
        ("tags", ["IMP", 1]), ("criteria", ["?"]), ("status", True), ("stray", 1),
        ("phrase", []), ("phrase", [""]), ("phrase", ["a", ""]), ("phrase", ["a b"]),
    ],
    "audit": [
        ("phrase", []), ("phrase", "papar"), ("phrase", [None]),
        ("timestamp", 5), ("timestamp", None), ("timestamp", ["x"]),
        ("force", 1), ("force", "true"), ("verdict", "maybe"), ("tags", ["ZZZ"]),
        ("reviewer", 0), ("stray", 1),
        ("phrase", [""]), ("phrase", ["a", ""]), ("phrase", ["a b"]),
    ],
}
DUPLICATE = ("phrase", "duplicate")


@st.composite
def jsonl_files(draw, kind: str) -> list:
    """Records of a few shapes, and at most one bad record after a repeated shape."""
    shapes = draw(st.lists(SHAPES[kind], min_size=1, max_size=3))
    records = []
    for _ in range(draw(st.integers(2, 8))):
        record = {"phrase": draw(PHRASES), **draw(st.sampled_from(shapes))}
        if kind == "queue":
            record["occurrences"] = draw(OCCURRENCES)
        if kind == "audit" and draw(st.booleans()):
            record["timestamp"] = draw(TIMESTAMPS)
        records.append(record)
    if draw(st.booleans()):
        # the bad record repeats the shape of a record before it
        k = draw(st.integers(1, len(records)))
        key, value = draw(st.sampled_from([*BAD[kind], DUPLICATE]))
        bad = dict(records[k - 1])
        if (key, value) == DUPLICATE:
            value = records[draw(st.integers(0, k - 1))]["phrase"]
        bad[key] = value
        records.insert(k, bad)
    return records


# tokens whose JSON ends like a phrase array, or like one and the next key
TRICKY_TOKENS = ['x"]', '], "']


def canonical(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False)


@st.composite
def lexicon_lines(draw, record: dict) -> str:
    """One line that json.loads decodes to record (to record with a tricky token, for that form)."""
    form = draw(st.sampled_from(
        ["canonical", "ascii", "compact", "phrase not first", "phrase again", "tricky token"]
    ))
    rest = {key: value for key, value in record.items() if key != "phrase"}
    if form == "ascii":
        return json.dumps(record)
    if form == "compact":
        return json.dumps(record, ensure_ascii=False, separators=(",", ":"))
    if form == "phrase not first":
        keys = draw(st.permutations(list(rest)))
        at = draw(st.integers(1, len(keys)))
        keys.insert(at, "phrase")
        return canonical({key: record[key] for key in keys})
    if form == "phrase again":
        # a decoy phrase first; the last "phrase" is the one that counts
        line = canonical({"phrase": draw(PHRASES), **rest})
        return f'{line[:-1]}, "phrase": {canonical(record["phrase"])}}}'
    if form == "tricky token" and isinstance(record["phrase"], list):
        return canonical({"phrase": [*record["phrase"], draw(st.sampled_from(TRICKY_TOKENS))], **rest})
    return canonical(record)


def outcome(load, path: Path):
    try:
        return "loaded", load(path)
    except KaburlintError as exc:
        return "refused", str(exc)


@pytest.fixture(scope="module")
def jsonl_path():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "records.jsonl"


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_loader_equals_the_record_by_record_oracle(jsonl_path, kind, data):
    records = data.draw(jsonl_files(kind))
    lines = [data.draw(lexicon_lines(r)) if kind in TAIL_MEMO else canonical(r) for r in records]
    jsonl_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    load, oracle = LOADERS[kind]
    assert outcome(load, jsonl_path) == outcome(oracle, jsonl_path)


# two records of one shape and a bad copy of the second; where the loader has a
# tail memo, the second line repeats the first's tail, and so does a bad phrase
MEMO_HITS = {
    "lexicon": {"pos": [], "senses": 1, "tags": ["T"], "status": "verified", "source": "user"},
    "queue": {"tags": ["T"], "occurrences": [{"doc": "a", "start": 0, "end": 2}]},
    "audit": {"verdict": "reject", "force": True, "timestamp": "t"},
}


def write_memo_hits(path: Path, kind: str, bad: tuple[str, object]) -> None:
    records = [{"phrase": ["segera"], **MEMO_HITS[kind]}, {"phrase": ["papar"], **MEMO_HITS[kind]}]
    key, value = bad
    if bad == DUPLICATE:
        value = ["segera"]
    records.append({**records[1], "phrase": ["data"], key: value})
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@pytest.mark.parametrize(
    "kind, bad",
    [(kind, bad) for kind in sorted(BAD) for bad in [*BAD[kind], DUPLICATE]],
    ids=[f"{kind}-{i}" for kind in sorted(BAD) for i in range(len(BAD[kind]) + 1)],
)
def test_every_bad_record_after_a_memo_hit(jsonl_path, kind, bad):
    write_memo_hits(jsonl_path, kind, bad)
    load, oracle = LOADERS[kind]
    assert outcome(load, jsonl_path) == outcome(oracle, jsonl_path)


@pytest.mark.parametrize("kind, bad, message", [
    ("lexicon", ("senses", True), "records.jsonl:3: 'senses' must be an integer"),
    ("lexicon", ("phrase", ["a b"]), "records.jsonl:3: phrase token 'a b' contains whitespace"),
    ("lexicon", DUPLICATE, "records.jsonl:3: duplicate phrase 'segera'"),
    ("lexicon", ("stray", 1), "records.jsonl:3: unknown field(s) ['stray']"),
    ("queue", ("occurrences", [{"doc": "a", "start": True, "end": 2}]),
     "records.jsonl:3: 'start' must be an integer"),
    ("queue", ("occurrences", []), "records.jsonl:3: candidate must have at least one occurrence"),
    ("queue", DUPLICATE, "records.jsonl:3: duplicate phrase 'segera'"),
    ("audit", ("force", 1), "records.jsonl:3: 'force' must be true or false"),
    ("audit", ("timestamp", 5), "records.jsonl:3: 'timestamp' must be a string"),
    ("queue", ("phrase", []), "records.jsonl:3: candidate phrase must have at least one token"),
    ("queue", ("phrase", ["a", ""]), "records.jsonl:3: candidate phrase contains an empty token"),
    ("queue", ("phrase", ["a b"]), "records.jsonl:3: phrase token 'a b' contains whitespace"),
    ("audit", ("phrase", [""]), "records.jsonl:3: decision phrase contains an empty token"),
    ("audit", ("phrase", ["a\u2028b"]),
     "records.jsonl:3: phrase token 'a\\u2028b' contains whitespace"),
])
def test_a_bad_record_after_a_memo_hit_is_named(jsonl_path, kind, bad, message):
    write_memo_hits(jsonl_path, kind, bad)
    assert outcome(LOADERS[kind][0], jsonl_path) == ("refused", message)


# the holder each tail-memo loader's phrase refusal names
HOLDER = {"lexicon": "entry", "audit": "decision"}


def refusal(message: str | dict | None, kind: str, **fields) -> str | None:
    """message, or its value for kind, with {holder} and fields filled in; None where kind loads."""
    if isinstance(message, dict):
        message = message[kind]
    return None if message is None else message.format(holder=HOLDER[kind], **fields)


@pytest.mark.parametrize("kind", TAIL_MEMO)
@pytest.mark.parametrize("phrase, message", [
    ([7], "records.jsonl:3: 'phrase' must be an array of strings"),
    (["data", 1.5], "records.jsonl:3: 'phrase' must be an array of strings"),
    ([["data"]], "records.jsonl:3: 'phrase' must be an array of strings"),
    # a decision batch may repeat a phrase
    (["Segera"], {"lexicon": "records.jsonl:3: duplicate phrase 'segera'", "audit": None}),
    (["data", ""], "records.jsonl:3: {holder} phrase contains an empty token"),
    (['], "'], "records.jsonl:3: phrase token '], \"' contains whitespace"),
])
def test_a_bad_phrase_on_a_tail_memo_hit_is_named(jsonl_path, kind, phrase, message):
    # line 3 repeats the tail of line 2 byte for byte: only its phrase is scanned
    write_memo_hits(jsonl_path, kind, ("phrase", phrase))
    lines = jsonl_path.read_text(encoding="utf-8").splitlines()
    assert lines[2].startswith('{"phrase": ') and lines[2].endswith(lines[1][len('{"phrase": ["papar"]'):])
    load, oracle = LOADERS[kind]
    got = outcome(load, jsonl_path)
    assert got == outcome(oracle, jsonl_path)
    message = refusal(message, kind)
    assert got[0] == "loaded" if message is None else got == ("refused", message)


@pytest.mark.parametrize("kind", TAIL_MEMO)
def test_a_tail_memo_hit_with_an_upper_case_token_loads_it_case_folded(jsonl_path, kind):
    # loaded_phrase leaves the phrase to the full check, which folds it
    write_memo_hits(jsonl_path, kind, ("phrase", ["Data", 'x"]']))
    load, oracle = LOADERS[kind]
    got = outcome(load, jsonl_path)
    assert sorted(item.phrase for item in got[1]) == [("data", 'x"]'), ("papar",), ("segera",)]
    assert got == outcome(oracle, jsonl_path)


# fields of a valid record but phrase, shared by the lines of a tail-memo test
TAIL_FIELDS = {
    "lexicon": {"tags": ["T"], "status": "verified"},
    "audit": {"verdict": "reject"},
}


@pytest.mark.parametrize("kind", TAIL_MEMO)
@pytest.mark.parametrize("key", ['"phrase"', '"\\u0070hrase"'])
def test_a_tail_that_names_phrase_again_is_decoded_in_full(jsonl_path, kind, key):
    # both lines end with one tail, whose "phrase" (spelled plainly or escaped) wins
    tail = canonical(TAIL_FIELDS[kind])[1:-1]
    tail = f', {tail}, {key}: ["papar"]}}'
    jsonl_path.write_text(f'{{"phrase": ["segera"]{tail}\n{{"phrase": ["data"]{tail}\n', encoding="utf-8")
    load, oracle = LOADERS[kind]
    got = outcome(load, jsonl_path)
    assert got == outcome(oracle, jsonl_path)
    if kind == "lexicon":
        assert got == ("refused", "records.jsonl:2: duplicate phrase 'papar'")
    else:
        assert [decision.phrase for decision in got[1]] == [("papar",), ("papar",)]


@pytest.mark.parametrize("kind", TAIL_MEMO)
@pytest.mark.parametrize("last, message", [
    (["ulang"], None),
    ([7], "records.jsonl:{n}: 'phrase' must be an array of strings"),
    (["Ulang0"], {"lexicon": "records.jsonl:{n}: duplicate phrase 'ulang0'", "audit": None}),
    (["ulang", ""], "records.jsonl:{n}: {holder} phrase contains an empty token"),
])
def test_past_the_tail_memo_lines_load_as_record_by_record(jsonl_path, kind, last, message):
    # distinct notes make the memo give up; the lines after it repeat one tail
    tail = TAIL_FIELDS[kind]
    records = [{"phrase": [f"kata{i}"], **tail, "note": f"catatan {i}"} for i in range(TAIL_MISSES + 10)]
    records += [{"phrase": [f"ulang{i}"], **tail} for i in range(20)] + [{"phrase": last, **tail}]
    jsonl_path.write_text("".join(canonical(r) + "\n" for r in records), encoding="utf-8")
    load, oracle = LOADERS[kind]
    got = outcome(load, jsonl_path)
    assert got == outcome(oracle, jsonl_path)
    message = refusal(message, kind, n=len(records))
    assert got[0] == "loaded" if message is None else got == ("refused", message)


@pytest.mark.parametrize("kind, name", [
    ("lexicon", "review.lexicon.jsonl"),
    ("queue", "extract.queue.jsonl"),
    ("audit", "review.audit.jsonl"),
])
def test_a_file_with_a_byte_order_mark_loads_as_without(tmp_path, kind, name):
    # json.loads refuses U+FEFF: kept, it failed the first record
    text = (GOLDEN / name).read_text(encoding="utf-8")
    plain, marked = tmp_path / f"plain-{name}", tmp_path / f"marked-{name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    load = LOADERS[kind][0]
    assert outcome(load, marked) == outcome(load, plain)
    assert outcome(load, plain)[0] == "loaded"
