"""The JSON-lines loaders give what parsing record by record gives.

load_lexicon, load_candidates and load_audit check the fields of each
distinct shape once and only the varying fields of the records that repeat
it. The oracle here parses every record in full, as one record_to_* call
each, with the duplicate check of the lexicon and of the queue, so a memo
hit that lets a bad record through, or a message that changes, shows as a
difference.
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
        {"tags": some(TAGS, max_size=2), "criteria": some(CRITERIA, max_size=2),
         "status": st.sampled_from(["pending", "accepted", "rejected"])},
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
    jsonl_path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    load, oracle = LOADERS[kind]
    assert outcome(load, jsonl_path) == outcome(oracle, jsonl_path)


# two records of one shape: the second, and a bad copy of it, are memo hits
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
