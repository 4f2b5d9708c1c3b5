"""kaburlint: find potentially ambiguous Malay words in requirement text.

A lexicon-driven linter plus the pipeline that builds the lexicon: filter
inappropriate tokens, mine candidate vague words, map them onto a
six-attribute ambiguity taxonomy, record expert review decisions, and
report per-attribute statistics.
"""

__version__ = "0.1.0"

from .analyzer import Finding, LintReport, lint_document, word_heuristics
from .errors import KaburlintError
from .extraction import (
    CandidateWord,
    ReviewDecision,
    extract_candidates,
    map_candidate_attributes,
    record_decision,
)
from .filters import FilterConfig, FilterReport, apply_filters
from .lexicon import (
    AttributeTag,
    Lexicon,
    LexiconEntry,
    PosDictionary,
    load_lexicon,
    match_entries,
    save_lexicon,
)
from .stats import CorpusStats, compute_attribute_stats, render_table
from .textcore import (
    Document,
    Sentence,
    Span,
    Token,
    detect_reduplication,
    segment_sentences,
    tokenize,
)

__all__ = [
    "__version__",
    "AttributeTag",
    "CandidateWord",
    "CorpusStats",
    "Document",
    "FilterConfig",
    "FilterReport",
    "Finding",
    "KaburlintError",
    "Lexicon",
    "LexiconEntry",
    "LintReport",
    "PosDictionary",
    "ReviewDecision",
    "Sentence",
    "Span",
    "Token",
    "apply_filters",
    "compute_attribute_stats",
    "detect_reduplication",
    "extract_candidates",
    "lint_document",
    "load_lexicon",
    "map_candidate_attributes",
    "match_entries",
    "record_decision",
    "render_table",
    "save_lexicon",
    "segment_sentences",
    "tokenize",
    "word_heuristics",
]
