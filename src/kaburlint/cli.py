"""Command-line interface: init, extract, map, review, lint, stats.

Exit codes follow linter convention: 0 clean, 1 findings present (lint
only), 2 on any error. Every subcommand is deterministic given identical
input files and configuration; --jobs N changes wall time, never output.
Importing cli loads config and the lexicon, filters and records it reads;
lexicon holds the dictionary heuristics that lint and extract both run. A
command loads the rest at call time: lint analyzer and textcore, extract
and map extraction (with textcore and curation, never analyzer), review
curation, stats stats. analyzer and extraction are thus loaded in the
parent, before _pool_map forks a worker.

lint and extract take one code path at any --jobs: _pool_map, which runs
at most --jobs workers and never more than items, the parent being the
first. Every other worker is a child forked with os.fork: it inherits the
task (lint's lexicon, heuristics table and filter settings, or extract's
candidate table) and its shard of items, so neither is pickled, and it
writes its results back pickled over a pipe. No command imports
multiprocessing. Where os.fork does not exist the parent works every item
itself, which gives the same output. lint's items are paths: each worker
reads, lints and renders its own documents, and the parent writes the
rendered parts in input order, after the csv header or before the text
totals. extract's items are documents, and the parent merges their scans.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from collections.abc import Callable
from functools import partial
from itertools import pairwise
from pathlib import Path
from typing import BinaryIO

from . import __version__
from .config import (
    Config,
    SCOPE_NAMES,
    configured_lexicon,
    default_audit_path,
    load_config,
    load_resources,
    validate_config,
)
from .errors import ConfigError, KaburlintError
from .fileio import read_text
from .filters import REASON_ORDER
from .lexicon import AttributeTag, Lexicon, load_lexicon, save_lexicon, tag_texts, word_heuristics
from .records import CRITERIA, FORMAT_CSV, FORMAT_TEXT, REPORT_FORMATS, replace


def _read_document(path: Path, doc_id: str | None = None) -> Document:
    from .textcore import Document

    text = read_text(path, "document", ConfigError)
    return Document(id=doc_id or str(path), text=text)


def _send_results(task, shard: list, out: BinaryIO, pickle) -> None:
    """A child's work: task over its shard, pickled to out for the parent.

    The results are pickled straight into out, so the child never holds a
    second, pickled copy of them. What the shard raises is sent in their
    place, so that the parent can raise the error of the earliest failing
    item; an exception that pickle cannot carry, such as one holding an
    open file, is replaced by a KaburlintError that says so. Results that
    pickle cannot carry raise, and the child exits with code 1.
    """
    try:
        results = [task(item) for item in shard]
    except Exception as exc:
        try:
            data = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        except Exception as failure:
            message = f"a --jobs worker could not send its error: {failure}"
            data = pickle.dumps(KaburlintError(message))
        out.write(data)
    else:
        pickle.dump(results, out, pickle.HIGHEST_PROTOCOL)


def _fork_shard(task, shard: list, pickle, signal) -> tuple[int, BinaryIO]:
    """Fork a child that works shard; its pid and the read end of its pipe.

    The child inherits task and shard, ignores SIGINT (Ctrl-C reaches the
    parent too, which stops every child, so a child's own KeyboardInterrupt
    would only print a traceback), sends its results (_send_results) and
    leaves with os._exit: it never flushes the stdio buffers it inherited
    or runs the parent's exit handlers. Those buffers are flushed before
    the fork, so nothing written before it is written twice.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(reader)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            with open(writer, "wb") as out:
                _send_results(task, shard, out, pickle)
            code = 0
        finally:
            os._exit(code)
    os.close(writer)
    return pid, open(reader, "rb")


def _child_results(data: bytes, status: int, pickle) -> list:
    """A reaped child's results from the bytes it sent; raises what it sent."""
    if not data:
        code = os.waitstatus_to_exitcode(status)
        raise KaburlintError(f"a --jobs worker exited with code {code} before sending its results")
    try:
        value = pickle.loads(data)
    except Exception as exc:  # cut short, or an exception that cannot be rebuilt
        raise KaburlintError(f"a --jobs worker sent results that cannot be read: {exc}") from None
    if isinstance(value, Exception):
        raise value
    return value


def _pool_map(task, items: list, jobs: int) -> list:
    """[task(item) for item in items] on at most `jobs` processes.

    The items are cut into one contiguous shard per worker, never more
    shards than items, with sizes that differ by at most one. The parent
    works the first shard, so one shard starts no process. Each other shard
    forks a child (_fork_shard), which inherits the task and its shard, so
    neither is pickled; only its results, or the exception it raised, come
    back pickled over a one-way pipe. Without os.fork (Windows) the parent
    works every item, which gives the same output, as any --jobs does.
    Children are read in shard order, each to EOF before it is reaped: a
    child blocked on a full pipe cannot exit. On any error or interrupt
    every child is sent SIGTERM and reaped before the error is raised, so
    the error is the earliest failing item's and no child outlives the call.
    """
    workers = min(jobs, len(items)) if hasattr(os, "fork") else 1
    if workers <= 1:
        return [task(item) for item in items]
    import pickle
    import signal

    size, extra = divmod(len(items), workers)
    bounds = [k * size + min(k, extra) for k in range(workers + 1)]
    first, *rest = [items[a:b] for a, b in pairwise(bounds)]
    children: list[tuple[int, BinaryIO]] = []  # forked, not yet reaped, in shard order
    try:
        for shard in rest:
            children.append(_fork_shard(task, shard, pickle, signal))
        results = [task(item) for item in first]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            results.extend(_child_results(data, status, pickle))
        return results
    except BaseException:
        for pid, pipe in children:
            pipe.close()
            try:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped just before an interrupt
                pass
        raise


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
    from .seeds import write_seed_tree

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
    from .extraction import extract_candidates, save_candidates

    cfg = _load_cfg(args)
    res = load_resources(cfg, require_lexicon=False)
    result = extract_candidates(
        _corpus_documents(Path(args.corpus)),
        res.lexicon, res.posdict, res.rules, res.filter_config,
        sense_threshold=cfg.sense_threshold,
        map_documents=partial(_pool_map, jobs=cfg.jobs),
    )
    save_candidates(result.candidates, args.output)
    summary = _extraction_summary(result)
    if args.summary:
        Path(args.summary).write_text(summary, encoding="utf-8", newline="\n")
    print(summary, end="")
    print(f"queue written to {args.output}")
    return 0


# --- map ---


def cmd_map(args: argparse.Namespace) -> int:
    from .curation import load_candidates, queue_status, save_candidates
    from .extraction import map_candidate_attributes

    cfg = _load_cfg(args)
    res = load_resources(cfg, require_lexicon=False)
    candidates = load_candidates(args.queue)
    remapped = [
        replace(
            c,
            suggested_tags=map_candidate_attributes(
                c.phrase, res.lexicon, res.posdict, res.rules
            ),
            status=queue_status(c.phrase, c.status, res.lexicon),
        )
        for c in candidates
    ]
    out = args.output or args.queue
    save_candidates(remapped, out)
    unmapped = sum(1 for c in remapped if c.unmapped)
    print(f"mapped {len(remapped)} candidates ({unmapped} unmapped) to {out}")
    return 0


# --- review ---
# CandidateWord and ReviewDecision in the annotations below are curation's;
# annotations are not evaluated (PEP 563), so importing cli does not load it.


def _load_batch_decisions(path: Path) -> list[ReviewDecision]:
    from .curation import load_audit

    return load_audit(path, "decisions file")


def _commit_decisions(
    lexicon: Lexicon,
    lexicon_path: Path,
    queue: list[CandidateWord],
    decisions: list[ReviewDecision],
    queue_path: Path,
    audit_path: Path,
) -> tuple[int, int]:
    """Write decisions the lexicon already holds: the audit log, then the saves.

    The decisions were applied in memory, each checked before anything was
    written, so a refused one leaves every file as it was. The lexicon and
    queue are saved only after the batch is on disk in the audit log, and
    each decided phrase's queue status is the lexicon's (queue_status). A
    torn last line of the log, which no save followed, is dropped before the
    append (append_audit), and said so on stderr.
    """
    from .curation import VERDICT_ACCEPT, CandidateWord, append_audit, queue_status
    from .curation import save_candidates

    by_phrase = {c.phrase: c for c in queue}
    for phrase in {d.phrase for d in decisions}:
        c = by_phrase[phrase]
        by_phrase[phrase] = CandidateWord(
            phrase, c.occurrences, c.suggested_tags, c.criterion_hits,
            queue_status(phrase, c.status, lexicon),
        )
    torn = append_audit(audit_path, decisions)
    if torn:
        print(
            f"kaburlint: warning: {audit_path}: dropped a torn last line ({torn} bytes)"
            " that no save followed",
            file=sys.stderr,
        )
    save_lexicon(lexicon, lexicon_path)
    save_candidates([by_phrase[c.phrase] for c in queue], queue_path)
    accepted = sum(d.verdict == VERDICT_ACCEPT for d in decisions)
    return accepted, len(decisions) - accepted


def _prompt_decision(candidate: CandidateWord, position: int, total: int) -> str:
    print(f"[{position}/{total}] {candidate.phrase_text}")
    # tags and criteria in the order the queue file lists them
    tags = " ".join(tag_texts(candidate.suggested_tags))
    criteria = " ".join(sorted(candidate.criterion_hits, key=CRITERIA.index))
    print(f"  suggested tags: {tags or '(unmapped)'}")
    print(f"  criteria: {criteria or '-'}")
    spots = ", ".join(
        f"{o.doc_id}:{o.span.start}-{o.span.end}" for o in candidate.occurrences[:3]
    )
    extra = len(candidate.occurrences) - 3
    print(f"  occurrences: {len(candidate.occurrences)} ({spots}"
          + (f", +{extra} more)" if extra > 0 else ")"))
    return input("  [a]ccept [tags...], [r]eject, [s]kip, [q]uit> ").strip()


def _interactive_decisions(queue: list[CandidateWord], lexicon: Lexicon, resolve: Callable):
    """The prompt's answers, each resolved as a batch decision is and applied to lexicon.

    Only phrases still pending are offered: each status is the lexicon's
    (queue_status), so a queue written before its phrases were decided
    offers none of them. An answer record_decision refuses (such as an
    accept with no tag) changes nothing; it is reported and asked again,
    like a bad tag, so it never throws the session's other decisions away.
    """
    from .curation import PENDING, VERDICT_ACCEPT, VERDICT_REJECT, ReviewDecision
    from .curation import queue_status, record_decision

    pending = [c for c in queue if queue_status(c.phrase, c.status, lexicon) == PENDING]
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
                    decision = resolve(ReviewDecision(candidate.phrase, verdict, tags))
                    record_decision(lexicon, decision)
                except KaburlintError as exc:
                    print(f"  ! {exc}")
                    continue
                yield decision
                break
            print("  ! answer a, r, s or q")


def cmd_review(args: argparse.Namespace) -> int:
    from .curation import load_candidates, replay_audit, resolve_decision

    cfg = _load_cfg(args)
    if cfg.lexicon is None:
        raise ConfigError("review needs a lexicon path (config key or --lexicon)")
    lexicon = load_lexicon(cfg.lexicon)
    queue_path = Path(args.queue)
    queue = load_candidates(queue_path)
    by_phrase = {c.phrase: c for c in queue}
    audit_path = Path(args.audit) if args.audit else default_audit_path(cfg)
    reviewer = args.reviewer or "anonymous"

    resolve = partial(
        resolve_decision, queue=by_phrase, default_reviewer=reviewer, force_flag=args.force
    )
    if args.decisions:
        decisions = list(map(resolve, _load_batch_decisions(Path(args.decisions))))
        replay_audit(lexicon, decisions)
    else:
        decisions = list(_interactive_decisions(queue, lexicon, resolve))
    if not decisions:
        print("no decisions recorded; lexicon unchanged")
        return 0
    accepted, rejected = _commit_decisions(
        lexicon, cfg.lexicon, queue, decisions, queue_path, audit_path
    )
    print(
        f"accepted {accepted}, rejected {rejected}; "
        f"lexicon saved to {cfg.lexicon}, audit appended to {audit_path}"
    )
    return 0


# --- lint ---


def _lint_path(path: str, fmt: str, **lint_args) -> tuple[str, int, dict, dict]:
    """Read, lint and render one document.

    Returns the document's report lines in fmt (no csv header, no text
    totals) and its warning, attribute and criterion counts.
    """
    from .analyzer import lint_document, render_report  # cmd_lint loaded it

    doc = _read_document(Path(path))
    report = lint_document(doc, **lint_args)
    body = render_report(report, fmt, {doc.id: doc})
    return body, report.warnings, report.attribute_counts, report.criterion_counts


def cmd_lint(args: argparse.Namespace) -> int:
    # loaded before _pool_map forks a worker, so every worker inherits it
    from .analyzer import report_head, report_tail

    cfg = _load_cfg(args)
    res = load_resources(cfg)
    task = partial(
        _lint_path,
        fmt=cfg.format,
        lexicon=res.lexicon,
        heuristics=word_heuristics(res.posdict, cfg.sense_threshold),
        filter_cfg=res.filter_config,
        flag_anaphoric_clitics=cfg.flag_anaphoric_clitics,
    )
    parts = _pool_map(task, args.paths, cfg.jobs)
    warnings = 0
    attributes: Counter[str] = Counter()
    criteria: Counter[str] = Counter()
    for _, doc_warnings, doc_attributes, doc_criteria in parts:
        warnings += doc_warnings
        attributes.update(doc_attributes)
        criteria.update(doc_criteria)
    out = sys.stdout
    out.write(report_head(cfg.format))
    out.writelines(body for body, *_ in parts)
    out.write(report_tail(cfg.format, warnings, attributes, criteria))
    return 1 if criteria.total() else 0


# --- stats ---


def cmd_stats(args: argparse.Namespace) -> int:
    from .stats import compute_attribute_stats, render_table

    cfg = _load_cfg(args)
    lexicon = load_lexicon(configured_lexicon(cfg))
    if cfg.format not in (FORMAT_TEXT, FORMAT_CSV):
        raise ConfigError("stats supports --format text or csv")
    stats = compute_attribute_stats(lexicon.entries(), SCOPE_NAMES[cfg.scope])
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

    p = sub.add_parser("map", help="recompute suggested tags and statuses for a candidate queue")
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
    except (KaburlintError, OSError) as exc:
        print(f"kaburlint: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
