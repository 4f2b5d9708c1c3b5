"""One instance of every Record class, with the repr its dataclass gave.

Each case is (value, repr, kind). kind is "frozen" (refuses assignment,
hashes its fields), "hashable" (hashes its fields, assignable) or
"mutable" (unhashable). The repr strings were recorded from the
dataclasses these classes were before they moved onto textcore.Record,
so they pin the field names, their order and the repr format; Document's
has lost its source_path field since, and Finding's has gained line and col.

The checks use the standard library only, so that interpreters without
pytest can run them too::

    PYTHONPATH=src python3.10 tests/record_cases.py

tests/test_record.py runs every check under pytest.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter

from kaburlint.analyzer import Finding, LintReport
from kaburlint.config import Config, Resources
from kaburlint.curation import CandidateWord, Occurrence, ReviewDecision
from kaburlint.extraction import ExtractionResult
from kaburlint.filters import FilterConfig, FilterCounts
from kaburlint.lexicon import AttributeTag, LexiconEntry
from kaburlint.records import Record, Span
from kaburlint.stats import AttributeCounts, CorpusStats
from kaburlint.textcore import Document
from record_replace import replace

_SPAN = Span(7, 12)
_TAG = AttributeTag("CON", "verb")
_TAG_REPR = "AttributeTag(attribute='CON', sub='verb')"
_OCCURRENCE = Occurrence("d1.txt", _SPAN)
_CANDIDATE = CandidateWord(
    ("papar",), (_OCCURRENCE,), frozenset({_TAG}), frozenset({"multi_pos"})
)
_CANDIDATE_REPR = (
    "CandidateWord(phrase=('papar',), occurrences=(Occurrence(doc_id='d1.txt', "
    f"span=Span(start=7, end=12)),), suggested_tags=frozenset({{{_TAG_REPR}}}), "
    "criterion_hits=frozenset({'multi_pos'}))"
)
_COUNTS = FilterCounts(3, {"symbol": Counter({",": 2})})
_COUNTS_REPR = "FilterCounts(kept=3, excluded={'symbol': Counter({',': 2})})"
_FINDING = Finding(
    "d1.txt", 1, 8, 0, _SPAN, "papar", "papar", frozenset({_TAG}), "attribute_member", "warning"
)
_FINDING_REPR = (
    "Finding(doc_id='d1.txt', line=1, col=8, sentence_index=0, span=Span(start=7, end=12), "
    f"matched='papar', phrase='papar', tags=frozenset({{{_TAG_REPR}}}), "
    "criterion='attribute_member', severity='warning')"
)
_ATTRIBUTE_COUNTS = AttributeCounts({"CON": 1}, 1)
_ONE_ABBREVIATION = FilterConfig(abbreviations=frozenset({"dll."}))

CASES = [
    (_SPAN, "Span(start=7, end=12)", "hashable"),
    (
        Document("d1.txt", "Sistem papar."),
        "Document(id='d1.txt', text='Sistem papar.')",
        "mutable",
    ),
    (_TAG, _TAG_REPR, "frozen"),
    (
        LexiconEntry(
            ("papar",), frozenset({"kk"}), 2, frozenset({_TAG}), "verified", "nota", "extracted"
        ),
        "LexiconEntry(phrase=('papar',), pos_classes=frozenset({'kk'}), sense_count=2, "
        f"tags=frozenset({{{_TAG_REPR}}}), status='verified', note='nota', source='extracted')",
        "mutable",
    ),
    (
        FilterConfig(frozenset({"email"}), frozenset({"sistem"}), frozenset({"dll."})),
        "FilterConfig(english_words=frozenset({'email'}), malay_words=frozenset({'sistem'}), "
        "abbreviations=frozenset({'dll.'}))",
        "frozen",
    ),
    (_COUNTS, _COUNTS_REPR, "mutable"),
    (_FINDING, _FINDING_REPR, "hashable"),
    (LintReport([_FINDING]), f"LintReport(findings=[{_FINDING_REPR}])", "mutable"),
    (_OCCURRENCE, "Occurrence(doc_id='d1.txt', span=Span(start=7, end=12))", "frozen"),
    (_CANDIDATE, _CANDIDATE_REPR, "frozen"),
    (
        ExtractionResult([_CANDIDATE], _COUNTS, 5, 1),
        f"ExtractionResult(candidates=[{_CANDIDATE_REPR}], filter_counts={_COUNTS_REPR}, "
        "tokens_read=5, documents=1)",
        "mutable",
    ),
    (
        ReviewDecision(
            ("papar",), "accept", frozenset({_TAG}), "pakar", "2026-01-01T00:00:00+00:00",
            "nota", True,
        ),
        f"ReviewDecision(phrase=('papar',), verdict='accept', final_tags=frozenset({{{_TAG_REPR}}}), "
        "reviewer='pakar', timestamp='2026-01-01T00:00:00+00:00', note='nota', force=True)",
        "frozen",
    ),
    (
        Config(jobs=2, format="csv"),
        "Config(lexicon=None, pos_dict=None, english_wordlist=None, malay_wordlist=None, "
        "abbreviations=None, audit_log=None, rules_implicit=None, rules_connectives=None, "
        "rules_temporal=None, rules_referential=None, rules_variable=None, "
        "rules_weakness=None, sense_threshold=2, jobs=2, format='csv', scope='verified', "
        "flag_anaphoric_clitics=False)",
        "mutable",
    ),
    (
        Resources(None, None, {("segera",): frozenset({"IMP"})}, _ONE_ABBREVIATION),
        "Resources(lexicon=None, posdict=None, rules={('segera',): frozenset({'IMP'})}, "
        "filter_config=FilterConfig(english_words=frozenset(), malay_words=None, "
        "abbreviations=frozenset({'dll.'})))",
        "mutable",
    ),
    (_ATTRIBUTE_COUNTS, "AttributeCounts(counts={'CON': 1}, total_words=1)", "frozen"),
    (
        CorpusStats(_ATTRIBUTE_COUNTS, {"CON": "100.0"}),
        "CorpusStats(counts=AttributeCounts(counts={'CON': 1}, total_words=1), "
        "percentages={'CON': '100.0'})",
        "frozen",
    ),
]


def field_values(value: Record) -> tuple:
    return tuple(getattr(value, name) for name in type(value)._fields)


def check_equality(value: Record) -> None:
    """Equal to a copy; unequal to a record of another class with equal fields."""
    for other in (copy.copy(value), replace(value)):
        assert other is not value and other == value and not other != value
    twin_class = type("Twin", (Record,), {"__slots__": type(value)._fields})
    twin = twin_class(*field_values(value))
    assert field_values(twin) == field_values(value)
    assert value != twin and twin != value and not value == twin


def check_hash(value: Record, kind: str) -> None:
    """The hash of the field tuple, or TypeError where there is none."""
    if kind == "mutable":
        assert type(value).__hash__ is None
        expected = None
    else:
        try:
            expected = hash(field_values(value))
        except TypeError:  # a field holds a dict
            expected = None
    if expected is None:
        try:
            hash(value)
        except TypeError:
            return
        raise AssertionError(f"{type(value).__name__} is hashable")
    assert hash(value) == expected


def check_frozen(value: Record, kind: str) -> None:
    """A frozen record refuses to set or delete any field; others allow it."""
    name = type(value)._fields[0]
    held = getattr(value, name)
    if kind != "frozen":
        setattr(value, name, held)
        return
    for attempt in (lambda: setattr(value, name, held), lambda: delattr(value, name)):
        try:
            attempt()
        except AttributeError:
            continue
        raise AssertionError(f"{type(value).__name__}.{name} is assignable")
    assert getattr(value, name) is held


def check_pickle(value: Record) -> None:
    """A round trip at every protocol gives an equal record of the same class."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value, protocol
        assert repr(back) == repr(value), protocol


def check_caches() -> None:
    """Caches stay out of equality, repr and pickling, and start empty in a copy."""
    doc = Document("d1.txt", "Sistem papar.")
    cached = Document("d1.txt", "Sistem papar.")
    cached.offsets()
    assert cached == doc and repr(cached) == repr(doc)
    for other in (pickle.loads(pickle.dumps(cached)), replace(cached)):
        assert other._offsets is None
    cfg = FilterConfig()
    table = cfg.surface_table()
    assert cfg.surface_table() is table and cfg == FilterConfig()
    assert replace(cfg).surface_table() is not table


def check_all(value: Record, expected_repr: str, kind: str) -> None:
    assert repr(value) == expected_repr
    check_equality(value)
    check_hash(value, kind)
    check_frozen(value, kind)
    check_pickle(value)


if __name__ == "__main__":
    import sys

    for case in CASES:
        check_all(*case)
    check_caches()
    print(f"{len(CASES)} record classes pass on Python {sys.version.split()[0]}")
