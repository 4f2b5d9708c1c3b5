"""Traced run of one kaburlint command through the program's own code.

Usage (from a workload directory, with kaburlint importable)::

    python3 replay.py time   SPANS RUN_ID COMMAND ARGS...
    python3 replay.py memory SPANS RUN_ID COMMAND ARGS...

Both call ``kaburlint.cli.main([COMMAND, *ARGS])``, so output and exit code
are the CLI's. First, for this process only, every name under which a
kaburlint module holds one of the functions in ``TRACED`` is rebound to a
wrapper that runs the call inside a span and records the span's counters
when it ends; nothing under ``src/`` is changed. ``time`` wraps every entry
of ``TRACED``. ``memory`` wraps only the construction of a document's offset
map, under tracemalloc, and records its peak as ``textcore.offsets_peak_mb``,
so that tracemalloc slows no timed span. Spans are written to SPANS when the
command ends.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

from kaburlint import analyzer, cli, config, extraction, filters, lexicon, stats, textcore

from spans import Tracer


def _filter_counts(report) -> dict:
    return {"filters.kept": len(report.kept), "filters.excluded": len(report.excluded)}


def _document_counts(doc) -> dict:
    return {
        "textcore.bytes": len(doc.text.encode("utf-8")),
        "textcore.docs": 1,
        "textcore.ascii_docs": int(doc.text.isascii()),
    }


def _merge_counts(result) -> dict:
    return {
        "extraction.candidates": len(result.candidates),
        "extraction.unmapped": sum(c.unmapped for c in result.candidates),
    }


# (module defining the function, its name, span name, counters of its result).
# The heuristics run once per token, too often for a span each; they are
# lint_document's self time.
TRACED = [
    (config, "load_config", "config.load", None),
    (config, "load_resources", "config.load",
     lambda res: {"config.lexicon_entries": len(res.lexicon)}),
    (lexicon, "load_lexicon", "lexicon.load",
     lambda lex: {"lexicon.max_phrase_len": lex.max_phrase_len}),
    (cli, "_read_document", "cli.read", _document_counts),
    (cli, "_load_batch_decisions", "cli.read", None),
    (textcore, "_OffsetMap", "textcore.offsets", None),
    (textcore, "segment_sentences", "textcore.segment",
     lambda sentences: {"textcore.sentences": len(sentences)}),
    (textcore, "tokenize", "textcore.tokenize", lambda tokens: {"textcore.tokens": len(tokens)}),
    (textcore, "line_col", "textcore.line_col", None),
    (filters, "apply_filters", "filters.apply", _filter_counts),
    (lexicon, "match_entries", "lexicon.match", lambda matches: {"lexicon.matches": len(matches)}),
    (lexicon, "save_lexicon", "lexicon.save", None),
    (analyzer, "lint_document", "analyzer.lint_document",
     lambda report: {"analyzer.findings": len(report.findings)}),
    (analyzer, "render_report", "analyzer.render", None),
    (extraction, "extract_candidates", "extraction.extract", None),
    (extraction, "merge_results", "extraction.merge", _merge_counts),
    (extraction, "load_candidates", "extraction.queue_io", None),
    (extraction, "save_candidates", "extraction.queue_io", None),
    (extraction, "record_decision", "extraction.record_decision", None),
    (extraction, "append_audit", "extraction.audit_append", None),
    (stats, "compute_attribute_stats", "stats.table", None),
    (stats, "render_table", "stats.table", None),
]


def _rebind(module, name: str, wrapper) -> None:
    """Point every kaburlint module's binding of module.name at wrapper."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "kaburlint" or mod_name.startswith("kaburlint."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _timed(tracer: Tracer, original, span_name: str, counts):
    def wrapper(*args, **kwargs):
        with tracer.span(span_name) as span:
            result = original(*args, **kwargs)
        if counts is not None:
            span.counts.update(counts(result))
        return result

    return wrapper


def _offsets_peak(tracer: Tracer, original):
    def wrapper(text):
        with tracer.span("textcore.offsets") as span:
            tracemalloc.start()
            result = original(text)
            span.counts["textcore.offsets_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        return result

    return wrapper


def main(argv: list[str]) -> int:
    mode, spans_path, run_id, *cli_argv = argv
    tracer = Tracer(run_id)
    if mode == "time":
        for module, name, span_name, counts in TRACED:
            _rebind(module, name, _timed(tracer, getattr(module, name), span_name, counts))
    elif mode == "memory":
        _rebind(textcore, "_OffsetMap", _offsets_peak(tracer, textcore._OffsetMap))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    try:
        with tracer.span(f"cli.{cli_argv[0]}"):
            return cli.main(cli_argv)
    finally:
        tracer.write(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
