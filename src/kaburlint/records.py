"""The package's record base, byte spans and the constants its modules share.

Every value and container class of the package is a Record: a slots
class whose fields are compared, hashed, shown and pickled as one tuple,
with no generated code. Span is hashable but not frozen, so its __init__
assigns plainly, with no check beyond 0 <= start < end.

The constants are the ones that config, filters, lexicon, stats and
curation share with textcore and analyzer, which review and stats never load.
"""

from __future__ import annotations

from operator import attrgetter

# Default sentence-internal abbreviations; configurable via the
# abbreviations wordlist. Entries carry their trailing dot and, like every
# abbreviation set textcore is given, are already case-folded (load_wordlist
# folds them), since the text is folded before each lookup.
DEFAULT_ABBREVIATIONS = frozenset({"dll.", "dsb.", "spt."})

# the criteria of findings and candidates, in report order
MULTI_POS = "multi_pos"
MULTI_SENSE = "multi_sense"
VAGUE_POS = "vague_pos"
ATTRIBUTE_MEMBER = "attribute_member"
DANGLING_ELSE = "dangling_else"
REFERENTIAL_SENTENCE = "referential_sentence"

CRITERIA = (
    MULTI_POS,
    MULTI_SENSE,
    VAGUE_POS,
    ATTRIBUTE_MEMBER,
    DANGLING_ELSE,
    REFERENTIAL_SENTENCE,
)

# a word with at least this many recorded senses is a multi-sense finding
SENSE_THRESHOLD = 2

# lint's report formats; stats renders text and csv
FORMAT_TEXT = "text"
FORMAT_CSV = "csv"
FORMAT_RECORDS = "records"
REPORT_FORMATS = (FORMAT_TEXT, FORMAT_CSV, FORMAT_RECORDS)


def _refuse_assignment(record, name: str, *value) -> None:
    raise AttributeError(f"{type(record).__name__} is frozen: cannot set or delete {name!r}")


def _hash_fields(record) -> int:
    return hash(record._values(record))


class Record:
    """Base of the package's value and container classes.

    A subclass lists its fields in __slots__, in constructor order; a slot
    whose name starts with '_' is a cache, not a field, and stays out of
    equality, repr and pickling. Records are equal when they are of the
    same class and their field tuples, read by one operator.attrgetter per
    class, are equal. Made with frozen=True, a class refuses assignment
    (AttributeError); frozen=True or hashable=True hashes the field tuple,
    and any other class is unhashable. repr lists the fields as a
    dataclass's does. Pickling (protocols 0-5) rebuilds a record through
    __init__, so its caches start empty.

    The __init__ here takes the fields by position or keyword, with the
    defaults in the class's _defaults. Classes built on hot paths write
    their own, which a frozen class assigns with object.__setattr__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, *, frozen: bool = False, hashable: bool = False, **kw) -> None:
        super().__init_subclass__(**kw)
        cls._fields = fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        get = attrgetter(*fields)
        # the field tuple, also of a one-field class
        cls._values = get if len(fields) > 1 else staticmethod(lambda record: (get(record),))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_assignment
        if frozen or hashable:
            cls.__hash__ = _hash_fields

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing field(s) {', '.join(missing)}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class Span(Record, hashable=True):
    """Half-open byte range [start, end) within a document's UTF-8 text.

    The text as read, where a "\r\n" or a lone "\r" is one "\n" byte and a BOM
    is 3 bytes: past a CR line end these are not offsets into the file. Only
    the csv and records reports and the queue's occurrences give spans; a
    finding's line:col is counted in characters, not from its span. Built
    for every finding and occurrence, so its only check is 0 <= start < end.
    """

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        if not 0 <= start < end:
            raise ValueError(f"invalid span [{start}, {end})")
        self.start = start
        self.end = end
