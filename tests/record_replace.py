"""replace(): a copy of a Record with some fields changed, for tests.

It rebuilds the record through its class's __init__, as pickling does, so
the copy's caches start empty and __init__'s checks run on the new values.
The checks in record_cases.py use it to compare a rebuilt record with the
original; other tests use it to vary one field of a record.
"""

from __future__ import annotations

from kaburlint.records import Record


def replace(record: Record, **changes) -> Record:
    """A copy of record with the named fields changed, built through __init__."""
    fields = zip(record._fields, record._values(record))
    values = [changes.pop(name, value) for name, value in fields]
    if changes:
        raise TypeError(f"{type(record).__name__} has no field(s) {', '.join(changes)}")
    return type(record)(*values)
