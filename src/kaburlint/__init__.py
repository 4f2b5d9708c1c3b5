"""kaburlint: find potentially ambiguous Malay words in requirement text.

A lexicon-driven linter plus the pipeline that builds the lexicon: filter
inappropriate tokens, mine candidate vague words, map them onto a
six-attribute ambiguity taxonomy, record expert review decisions, and
report per-attribute statistics.

The names below load their module on first use (PEP 562), so a command
imports only the modules it runs: records holds the record base and the
shared constants, and curation the review workflow, so review and stats
load neither textcore nor analyzer (see cli).
"""

__version__ = "0.1.0"

# the public names of each module, loaded on first use by __getattr__
_EXPORTS = {
    "analyzer": "Finding LintReport lint_document",
    "curation": "CandidateWord ReviewDecision record_decision",
    "errors": "KaburlintError",
    "extraction": "extract_candidates map_candidate_attributes",
    "filters": "FilterConfig FilterReport apply_filters detect_reduplication",
    "lexicon": (
        "AttributeTag Lexicon LexiconEntry PosDictionary load_lexicon match_entries"
        " save_lexicon word_heuristics"
    ),
    "records": "Span",
    "stats": "CorpusStats compute_attribute_stats render_table",
    "textcore": "Document segment_sentences tokenize",
}
_MODULES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["__version__", *sorted(_MODULES)]


def __getattr__(name: str):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
