"""records.Record keeps the semantics of the dataclasses it replaced."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kaburlint.extraction import ExtractionResult
from kaburlint.filters import FilterCounts
from kaburlint.records import Record, Span
from record_cases import CASES, check_caches, check_equality, check_frozen, check_hash, check_pickle
from record_replace import replace

SRC = Path(__file__).resolve().parents[1] / "src"

IDS = [type(value).__name__ for value, _, _ in CASES]


def test_every_record_class_has_a_case():
    classes = {
        cls for cls in Record.__subclasses__() if cls.__module__.startswith("kaburlint.")
    }
    assert classes == {type(value) for value, _, _ in CASES}
    assert len(classes) == len(CASES) == 16
    assert [kind for _, _, kind in CASES].count("mutable") == 7


@pytest.mark.parametrize("value, expected", [(v, r) for v, r, _ in CASES], ids=IDS)
def test_repr_is_the_dataclass_repr(value, expected):
    assert repr(value) == expected


@pytest.mark.parametrize("value", [v for v, _, _ in CASES], ids=IDS)
def test_equal_to_a_copy_and_only_to_its_own_class(value):
    check_equality(value)


@pytest.mark.parametrize("value, kind", [(v, k) for v, _, k in CASES], ids=IDS)
def test_hash_is_the_hash_of_the_fields(value, kind):
    check_hash(value, kind)


@pytest.mark.parametrize("value, kind", [(v, k) for v, _, k in CASES], ids=IDS)
def test_frozen_refuses_assignment(value, kind):
    check_frozen(value, kind)


@pytest.mark.parametrize("value", [v for v, _, _ in CASES], ids=IDS)
def test_pickle_round_trip_at_every_protocol(value):
    check_pickle(value)


def test_caches_are_not_fields():
    check_caches()


def test_replace_and_init_refuse_unknown_or_missing_fields():
    span = Span(1, 4)
    assert replace(span, end=9) == Span(1, 9) and span == Span(1, 4)
    with pytest.raises(TypeError, match="no field"):
        replace(span, stop=9)
    with pytest.raises(ValueError):  # rebuilt through __init__, which checks
        replace(span, end=0)
    # ExtractionResult takes the generic __init__, with two defaults
    counts = FilterCounts()
    assert ExtractionResult([], counts, documents=3) == ExtractionResult([], counts, 0, 3)
    with pytest.raises(TypeError, match="missing"):
        ExtractionResult([])
    with pytest.raises(TypeError, match="takes the fields"):
        ExtractionResult([], counts, 0, 1, documents=1)
    with pytest.raises(TypeError, match="takes the fields"):
        ExtractionResult([], counts, 0, 1, 2)


def test_public_names_load_lazily():
    # a fresh interpreter: the package alone loads none of its modules, and
    # each public name loads the module that defines it
    code = (
        "import sys, kaburlint\n"
        "assert not [m for m in sys.modules if m.startswith('kaburlint.')]\n"
        "from kaburlint import Span, record_decision\n"
        "from kaburlint.records import Span as S\n"
        "from kaburlint.curation import record_decision as r\n"
        "assert Span is S and record_decision is r\n"
        "assert 'kaburlint.stats' not in sys.modules\n"
        "assert 'kaburlint.textcore' not in sys.modules\n"
        "ns = {}\n"
        "exec('from kaburlint import *', ns)\n"
        "assert set(kaburlint.__all__) <= set(ns) and set(kaburlint.__all__) <= set(dir(kaburlint))\n"
        "# each name is exported from the module that defines it\n"
        "for name, module in kaburlint._MODULES.items():\n"
        "    assert ns[name].__module__ == f'kaburlint.{module}', name\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), check=True
    )
    import kaburlint

    with pytest.raises(AttributeError):
        kaburlint.no_such_name
