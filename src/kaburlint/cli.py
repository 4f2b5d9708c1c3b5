"""Command-line interface: init, extract, map, review, lint, stats.

Exit codes follow linter convention: 0 clean, 1 findings present (lint
only), 2 on any error. Every subcommand is deterministic given identical
input files and configuration; --jobs N changes wall time, never output.
lint and extract run documents in a process pool of at most --jobs and
never more workers than documents; with one worker they run in-process.
Each worker receives the lexicon and other shared resources once, at
start-up, and then only documents.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import __version__
from .analyzer import (
    FORMAT_CSV,
    FORMAT_TEXT,
    REPORT_FORMATS,
    LintReport,
    lint_document,
    render_report,
)
from .config import (
    Config,
    Resources,
    SCOPE_NAMES,
    default_audit_path,
    load_config,
    load_resources,
    validate_config,
)
from .errors import ConfigError, KaburlintError, ReviewError
from .extraction import (
    PENDING,
    ACCEPTED,
    REJECTED,
    VERDICT_ACCEPT,
    VERDICT_REJECT,
    CandidateWord,
    ReviewDecision,
    append_audit,
    extract_candidates,
    load_audit,
    load_candidates,
    map_candidate_attributes,
    merge_results,
    record_decision,
    save_candidates,
)
from .fileio import read_text
from .filters import REASON_ORDER
from .lexicon import AttributeTag, save_lexicon
from .seeds import write_seed_tree
from .stats import compute_attribute_stats, render_table
from .textcore import Document


def _read_document(path: Path, doc_id: str | None = None) -> Document:
    text = read_text(path, "document", ConfigError)
    return Document(id=doc_id or str(path), text=text, source_path=str(path))


# the shared-resource partial a pool worker applies to each item; set once
# per worker process by _init_worker
_worker_task = None


def _init_worker(task) -> None:
    global _worker_task
    _worker_task = task


def _run_task(item):
    return _worker_task(item)


def _pool_map(task, items: list, workers: int) -> list:
    """[task(item) for item in items] across `workers` processes.

    `task` (a partial over the shared resources) is sent to each worker
    once, not with every item.
    """
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(task,)
    ) as pool:
        return list(pool.map(_run_task, items))


def _load_cfg(args: argparse.Namespace) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    overrides = {}
    lexicon = getattr(args, "lexicon", None)
    if lexicon:
        lexicon = Path(lexicon).resolve()
        if not lexicon.exists():
            raise ConfigError(f"lexicon file {lexicon} does not exist")
        overrides["lexicon"] = lexicon
    for key in ("format", "jobs", "scope"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return validate_config(replace(cfg, **overrides))


# --- init ---


def cmd_init(args: argparse.Namespace) -> int:
    written = write_seed_tree(Path(args.directory))
    for path in written:
        print(f"wrote {path}")
    print(f"\nseeded {args.directory}; try: kaburlint lint --config "
          f"{Path(args.directory) / 'kaburlint.conf'} {Path(args.directory) / 'sample'}/*.txt")
    return 0


# --- extract ---


def _corpus_documents(corpus_dir: Path) -> list[Document]:
    if not corpus_dir.is_dir():
        raise ConfigError(f"corpus directory {corpus_dir} does not exist")
    paths = sorted(corpus_dir.glob("*.txt"))
    if not paths:
        raise ConfigError(f"no input documents (*.txt) in {corpus_dir}")
    return [_read_document(p, doc_id=p.name) for p in paths]


def _extraction_summary(result) -> str:
    counts = result.filter_counts
    token_counts = counts.token_counts
    type_counts = counts.type_counts
    lines = [
        f"documents: {result.documents}",
        f"tokens read: {result.tokens_read}",
        f"kept: {counts.kept}",
        f"eliminated: {sum(token_counts.values())} tokens "
        f"({counts.excluded_types} distinct words)",
    ]
    width = max(len(r) for r in REASON_ORDER)
    for reason in REASON_ORDER:
        lines.append(
            f"  {reason.ljust(width)}  {token_counts[reason]} tokens, "
            f"{type_counts[reason]} types"
        )
    lines.append(f"candidates: {len(result.candidates)}")
    return "\n".join(lines) + "\n"


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    res = load_resources(cfg, require_lexicon=False)
    docs = _corpus_documents(Path(args.corpus))
    extract = partial(
        extract_candidates,
        lex_hints=res.lexicon,
        posdict=res.posdict,
        rules=res.rules,
        filter_cfg=res.filter_config,
        sense_threshold=cfg.sense_threshold,
    )
    workers = min(cfg.jobs, len(docs))
    if workers > 1:
        partials = _pool_map(extract, [[doc] for doc in docs], workers)
        result = merge_results(partials, res.lexicon, res.posdict, res.rules)
    else:
        result = extract(docs)
    save_candidates(result.candidates, args.output)
    summary = _extraction_summary(result)
    if args.summary:
        Path(args.summary).write_text(summary, encoding="utf-8", newline="\n")
    print(summary, end="")
    print(f"queue written to {args.output}")
    return 0


# --- map ---


def cmd_map(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    res = load_resources(cfg, require_lexicon=False)
    candidates = load_candidates(args.queue)
    remapped = [
        replace(
            c,
            suggested_tags=map_candidate_attributes(
                c, res.lexicon, res.posdict, res.rules
            ),
        )
        for c in candidates
    ]
    out = args.output or args.queue
    save_candidates(remapped, out)
    unmapped = sum(1 for c in remapped if c.unmapped)
    print(f"mapped {len(remapped)} candidates ({unmapped} unmapped) to {out}")
    return 0


# --- review ---


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _resolve_decision(
    decision: ReviewDecision,
    queue: dict[tuple[str, ...], CandidateWord],
    default_reviewer: str,
    force_flag: bool,
) -> ReviewDecision:
    candidate = queue.get(decision.phrase)
    if candidate is None:
        raise ReviewError(f"no candidate in queue for phrase {' '.join(decision.phrase)!r}")
    tags = decision.final_tags
    if decision.verdict == VERDICT_REJECT and not tags:
        tags = candidate.suggested_tags
    return replace(
        decision,
        final_tags=tags,
        reviewer=decision.reviewer or default_reviewer,
        timestamp=decision.timestamp or _now_iso(),
        force=decision.force or force_flag,
    )


def _load_batch_decisions(path: Path) -> list[ReviewDecision]:
    return load_audit(path, "decisions file")


def _apply_decisions(
    res: Resources,
    queue: list[CandidateWord],
    decisions: list[ReviewDecision],
    queue_path: Path,
    audit_path: Path,
) -> tuple[int, int]:
    """Apply all decisions in memory, then persist repo, queue and audit."""
    by_phrase = {c.phrase: c for c in queue}
    accepted = rejected = 0
    applied: list[ReviewDecision] = []
    for decision in decisions:
        record_decision(res.lexicon, decision)
        candidate = by_phrase[decision.phrase]
        status = ACCEPTED if decision.verdict == VERDICT_ACCEPT else REJECTED
        by_phrase[decision.phrase] = replace(candidate, status=status)
        if decision.verdict == VERDICT_ACCEPT:
            accepted += 1
        else:
            rejected += 1
        applied.append(decision)
    save_lexicon(res.lexicon, res.config.lexicon)
    save_candidates([by_phrase[c.phrase] for c in queue], queue_path)
    for decision in applied:
        append_audit(audit_path, decision)
    return accepted, rejected


def _prompt_decision(candidate: CandidateWord, position: int, total: int) -> str:
    print(f"[{position}/{total}] {candidate.phrase_text}")
    tags = " ".join(str(t) for t in sorted(candidate.suggested_tags, key=str))
    print(f"  suggested tags: {tags or '(unmapped)'}")
    print(f"  criteria: {' '.join(sorted(candidate.criterion_hits)) or '-'}")
    spots = ", ".join(
        f"{o.doc_id}:{o.span.start}-{o.span.end}" for o in candidate.occurrences[:3]
    )
    extra = len(candidate.occurrences) - 3
    print(f"  occurrences: {len(candidate.occurrences)} ({spots}"
          + (f", +{extra} more)" if extra > 0 else ")"))
    return input("  [a]ccept [tags...], [r]eject, [s]kip, [q]uit> ").strip()


def _interactive_decisions(
    queue: list[CandidateWord], reviewer: str, force: bool
):
    pending = [c for c in queue if c.status == PENDING]
    for position, candidate in enumerate(pending, start=1):
        while True:
            try:
                answer = _prompt_decision(candidate, position, len(pending))
            except EOFError:
                return
            if not answer or answer[0] == "s":
                break
            if answer[0] == "q":
                return
            if answer[0] in ("a", "r"):
                verdict = VERDICT_ACCEPT if answer[0] == "a" else VERDICT_REJECT
                raw_tags = answer.split()[1:]
                try:
                    tags = frozenset(AttributeTag.parse(t) for t in raw_tags)
                    if verdict == VERDICT_ACCEPT and not tags:
                        tags = candidate.suggested_tags
                    decision = ReviewDecision(
                        phrase=candidate.phrase,
                        verdict=verdict,
                        final_tags=tags,
                        reviewer=reviewer,
                        timestamp=_now_iso(),
                        force=force,
                    )
                    decision.validate()
                except KaburlintError as exc:
                    print(f"  ! {exc}")
                    continue
                yield decision
                break
            print("  ! answer a, r, s or q")


def cmd_review(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    if cfg.lexicon is None:
        raise ConfigError("review needs a lexicon path (config key or --lexicon)")
    res = load_resources(cfg)
    queue_path = Path(args.queue)
    queue = load_candidates(queue_path)
    by_phrase = {c.phrase: c for c in queue}
    audit_path = Path(args.audit) if args.audit else default_audit_path(cfg)
    reviewer = args.reviewer or "anonymous"

    if args.decisions:
        raw = _load_batch_decisions(Path(args.decisions))
        decisions = [
            _resolve_decision(d, by_phrase, reviewer, args.force) for d in raw
        ]
    else:
        decisions = [
            _resolve_decision(d, by_phrase, reviewer, args.force)
            for d in _interactive_decisions(queue, reviewer, args.force)
        ]
    if not decisions:
        print("no decisions recorded; lexicon unchanged")
        return 0
    accepted, rejected = _apply_decisions(res, queue, decisions, queue_path, audit_path)
    print(
        f"accepted {accepted}, rejected {rejected}; "
        f"lexicon saved to {cfg.lexicon}, audit appended to {audit_path}"
    )
    return 0


# --- lint ---


def cmd_lint(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    res = load_resources(cfg)
    docs = [_read_document(Path(p)) for p in args.paths]
    lint = partial(
        lint_document, lexicon=res.lexicon, posdict=res.posdict, cfg=res.lint_config
    )
    workers = min(cfg.jobs, len(docs))
    if workers > 1:
        reports = _pool_map(lint, docs, workers)
    else:
        reports = [lint(doc) for doc in docs]
    merged = LintReport()
    for report in reports:
        merged.extend(report)
    doc_map = {doc.id: doc for doc in docs}
    print(render_report(merged, cfg.format, doc_map), end="")
    return 1 if merged.findings else 0


# --- stats ---


def cmd_stats(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    res = load_resources(cfg)
    if cfg.format not in (FORMAT_TEXT, FORMAT_CSV):
        raise ConfigError("stats supports --format text or csv")
    stats = compute_attribute_stats(res.lexicon.entries(), SCOPE_NAMES[cfg.scope])
    print(render_table(stats, cfg.format), end="")
    return 0


# --- parser ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaburlint",
        description=(
            "Find potentially ambiguous Malay words in requirement documents, "
            "curate the lexicon behind the findings, and report attribute "
            "statistics."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("init", help="materialize seed data and a config file")
    p.add_argument("directory", help="target directory for seed data")
    p.set_defaults(func=cmd_init)

    def common(p: argparse.ArgumentParser, jobs: bool = False) -> None:
        p.add_argument("--config", help="path to a kaburlint.conf file")
        p.add_argument("--lexicon", help="lexicon file (overrides config)")
        if jobs:
            p.add_argument("--jobs", type=int, help="parallel workers (default 1)")

    p = sub.add_parser("extract", help="mine candidate ambiguous words from a corpus")
    common(p, jobs=True)
    p.add_argument("corpus", help="directory of UTF-8 .txt documents")
    p.add_argument(
        "-o", "--output", default="candidates.jsonl", help="candidate queue file"
    )
    p.add_argument("--summary", help="also write the filter summary to this file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("map", help="recompute suggested tags for a candidate queue")
    common(p)
    p.add_argument("queue", help="candidate queue file")
    p.add_argument("-o", "--output", help="output file (default: rewrite queue)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("review", help="verify candidates into the lexicon")
    common(p)
    p.add_argument("queue", help="candidate queue file")
    p.add_argument("--decisions", help="batch decisions file (JSON lines)")
    p.add_argument("--reviewer", help="reviewer name recorded in the audit log")
    p.add_argument("--audit", help="audit log path (default from config)")
    p.add_argument(
        "--force", action="store_true", help="allow re-reviewing decided entries"
    )
    p.set_defaults(func=cmd_review)

    p = sub.add_parser("lint", help="lint documents against the verified lexicon")
    common(p, jobs=True)
    p.add_argument("paths", nargs="+", help="document files to lint")
    p.add_argument("--format", choices=REPORT_FORMATS, help="report format")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("stats", help="attribute counts and percentages")
    common(p)
    p.add_argument(
        "--scope",
        choices=sorted(SCOPE_NAMES),
        help="which entries to count (default verified)",
    )
    p.add_argument("--format", choices=[FORMAT_TEXT, FORMAT_CSV], help="table format")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KaburlintError as exc:
        print(f"kaburlint: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"kaburlint: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
