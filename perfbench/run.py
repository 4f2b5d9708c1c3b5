"""kaburlint benchmark: lint, extract and review end to end, plus a traced run.

Usage, from the repository root::

    python3 perfbench/run.py --workload many_small --seed 1 --seconds 40 --trace 0

Inputs are generated from ``--seed`` (see ``workloads.py``) under
``perfbench/_work/<workload>``; kaburlint sees only those files. Every
command runs in a fresh interpreter through ``kaburlint.cli.main`` with its
output captured, one process at a time. A round restores the lexicon, queue
and audit log, then runs ``extract``, ``review --decisions``, ``stats``,
``lint --jobs 1`` and ``lint --jobs 2``; rounds repeat until ``--seconds``
is used up. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit and sample count. Exit code 0 means every correctness
check passed, 1 that one failed, 2 that kaburlint is not in the checkout.

End-to-end metrics (``--trace 0``), per run:

    setup_s      load_config + load_resources on the workload's config, each
                 in a fresh interpreter (3 per round)
    lint_s       lint --jobs 1 (text format)
    lint_j2_s    lint --jobs 2
    extract_s    extract
    review_s     review --decisions, accepting every inserted hint phrase
    peak_rss_mb  largest peak resident set of one command's process tree: the
                 CLI process's own peak plus --jobs times its largest pool
                 worker's peak

Each timing is the lower quartile (``statistics.quantiles(..., n=4,
method="inclusive")[0]``) of the run's samples, corrected for the host's
speed. On the shared two-core host where the bounds were set, the same call
ran in a fast or a ~1.6x slower state, each lasting seconds to tens of
minutes: two ten-seed sets of raw lower quartiles taken 30 minutes apart
differed by 14-30% on every timing. So before and after every child process
the benchmark times a fixed pure-Python loop of its own (``calibrate``;
no kaburlint code runs in it), and scales the run's timings by
``CAL_REFERENCE_S`` / (lower quartile of those loop times). A timing thus
reads as seconds on that host (2-vCPU Intel Xeon, CPython 3.11.7) in its
fast state, where the loop takes ``CAL_REFERENCE_S``; a change to
kaburlint moves it in full. The report
lines print the raw lower quartile, the factor and the raw median.

``failed_ratio`` (failed / attempted; an operation is one CLI call or one
correctness check) is printed with them; the JSON carries it as ``failed``
and ``attempted``. Correctness checks: exit codes (lint 1, others 0); the
``N warning`` count of lint equals the generator's insertions; ``--jobs 2``
stdout is byte-identical to ``--jobs 1``; each command's stdout digest is
the same in every round; ``stats`` reports ``n =`` verified entries before
review plus accepted decisions; on ``big_doc`` the ``--format records``
warnings equal the same count.

Per-layer metrics (``--trace 1``) come from a separate run. Each pass runs
``extract``, ``review``, ``stats`` and ``lint`` (``--jobs 1``) untraced, then
again in fresh interpreters through ``kaburlint.cli.main`` with the layers'
functions rebound to span-recording wrappers (``replay.py``); traced output
and files must equal the untraced ones. Times are self times (but
``analyzer.lint_document_s``, which is inclusive) summed over the four
commands; counts come from the traced lint, except the extraction
counts and ``config.lexicon_entries`` (the hint lexicon as loaded by
``extract`` and by ``setup_s``). ``textcore.offsets_peak_mb`` is the largest
tracemalloc peak of building one document's offset map, from one more
traced lint in which only that construction is wrapped.

    layer       metric                               should move
    ----------  -----------------------------------  --------------------------------------
    config      config.load_s, config.lexicon_entries  setup_s on curate
    cli         cli.read_s, cli.self_s (untraced       lint_j2_s on many_small
                e2e - traced layer sum)
    textcore    offsets_s, segment_s, tokenize_s     lint_s, extract_s on many_small
                line_col_s                           lint_s on big_doc
                offsets_peak_mb (tracemalloc)        peak_rss_mb on big_doc
                bytes, sentences, tokens, ascii_doc_share
    filters     filters.apply_s, kept, excluded,     lint_s, extract_s on many_small
                kept_ratio
    lexicon     lexicon.match_s, matches,            lint_s on curate
                max_phrase_len
                lexicon.load_s                       setup_s on curate
                lexicon.save_s                       review_s on curate
    analyzer    analyzer.render_s                    lint_s on big_doc
                lint_document_s (inclusive),         lint_s on many_small
                heuristics_s (lint_document's self
                time: heuristics, finding assembly),
                findings, findings_per_ktoken
    extraction  extraction.extract_s, merge_s,       extract_s on curate and many_small
                queue_io_s, candidates, unmapped_ratio
                record_decision_s, audit_append_s    review_s on curate
    stats       stats.table_s                        (stats is not timed end to end)
    trace       trace.overhead_ratio (traced / untraced wall of the four
                commands - 1)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = SRC / "kaburlint" / "data"
WORK = HERE / "_work"

# argv[1] is the command's --jobs. The last stderr line is the peak resident
# set of the process tree: the process's own plus --jobs times its largest
# pool worker's (an upper bound: the workers run beside the parent).
CLI = """\
import resource, sys
from kaburlint.cli import main
rc = main(sys.argv[2:])
own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print("peak_rss_kb", own + int(sys.argv[1]) * worker, file=sys.stderr)
sys.exit(rc)
"""
SETUP_PROBE = """\
import sys, time
from kaburlint.config import load_config, load_resources
start = time.perf_counter()
load_resources(load_config(sys.argv[1]))
print(time.perf_counter() - start)
"""
PROBES_PER_ROUND = 3
CAL_REFERENCE_S = 0.00125
_CAL_WORDS = [f"kata{i}" for i in range(500)]
CALL_TIMEOUT_S = 150
CONF = "kaburlint.conf"

E2E_UNITS = {
    "lint_s": "s",
    "lint_j2_s": "s",
    "extract_s": "s",
    "review_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "config.load_s": "s",
    "config.lexicon_entries": "count",
    "cli.read_s": "s",
    "cli.self_s": "s",
    "textcore.offsets_s": "s",
    "textcore.offsets_peak_mb": "MB",
    "textcore.segment_s": "s",
    "textcore.tokenize_s": "s",
    "textcore.line_col_s": "s",
    "textcore.bytes": "bytes",
    "textcore.sentences": "count",
    "textcore.tokens": "count",
    "textcore.ascii_doc_share": "ratio",
    "filters.apply_s": "s",
    "filters.kept": "count",
    "filters.excluded": "count",
    "filters.kept_ratio": "ratio",
    "lexicon.match_s": "s",
    "lexicon.matches": "count",
    "lexicon.max_phrase_len": "tokens",
    "lexicon.load_s": "s",
    "lexicon.save_s": "s",
    "analyzer.lint_document_s": "s",
    "analyzer.heuristics_s": "s",
    "analyzer.render_s": "s",
    "analyzer.findings": "count",
    "analyzer.findings_per_ktoken": "1/ktoken",
    "extraction.extract_s": "s",
    "extraction.merge_s": "s",
    "extraction.queue_io_s": "s",
    "extraction.record_decision_s": "s",
    "extraction.audit_append_s": "s",
    "extraction.candidates": "count",
    "extraction.unmapped_ratio": "ratio",
    "stats.table_s": "s",
    "trace.overhead_ratio": "ratio",
}
TRACED_COMMANDS = ("extract", "review", "stats", "lint")
_SUMMARY = re.compile(r"^total: (\d+) \((\d+) warning, (\d+) info\)$", re.M)
_STATS_N = re.compile(r"^n = (\d+)$", re.M)


class Workload:
    """One generated workload directory plus the gate's bookkeeping."""

    def __init__(self, name: str, seed: int, workdir: Path, scale: float) -> None:
        self.shape = workloads.SHAPES[name]
        self.dir = workdir / name
        self.ref = workloads.generate(name, seed, self.dir, DATA, scale)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.dir))
        self.attempted = 0
        self.failures: list[str] = []
        self.calibrations: list[float] = []
        self.peak_rss_kb = 0
        self.argv = {
            "extract": ["extract", "--config", CONF, "docs", "-o", "queue.jsonl"],
            "review": ["review", "--config", CONF, "queue.jsonl", "--decisions", "decisions.jsonl"],
            "stats": ["stats", "--config", CONF],
            "lint": ["lint", "--config", CONF, *self.ref.docs],
            "lint_j2": ["lint", "--config", CONF, "--jobs", "2", *self.ref.docs],
            "records": ["lint", "--config", CONF, "--format", "records", *self.ref.docs],
        }
        self.expected_rc = {"lint": 1, "lint_j2": 1, "records": 1}

    def restore(self) -> None:
        shutil.copyfile(self.dir / "lexicon.base.jsonl", self.dir / "lexicon.jsonl")
        for name in ("queue.jsonl", "audit.jsonl"):
            (self.dir / name).unlink(missing_ok=True)

    def speed_factor(self) -> float:
        """Multiply a timing of this run by this to correct for host speed."""
        return CAL_REFERENCE_S / _lower_quartile(self.calibrations)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def _spawn(self, argv: list[str]) -> tuple[float, int, bytes, bytes]:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=self.dir,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
        return time.perf_counter() - start, proc.returncode, out, err

    def run(self, argv: list[str], expected_rc: int, what: str) -> tuple[float, bytes]:
        """Run one child process; a wrong exit code is a failed operation."""
        self.calibrations.append(calibrate())
        wall, rc, out, err = self._spawn(argv)
        self.calibrations.append(calibrate())
        lines = err.decode("utf-8", "replace").strip().splitlines()
        if lines and lines[-1].startswith("peak_rss_kb "):
            self.peak_rss_kb = max(self.peak_rss_kb, int(lines.pop().split()[1]))
        self.check(rc == expected_rc, f"{what}: exit {rc}, expected {expected_rc} {lines[-1:]}")
        return wall, out

    def cli(self, command: str) -> tuple[float, bytes]:
        rc = self.expected_rc.get(command, 0)
        jobs = "2" if command == "lint_j2" else "1"
        return self.run([sys.executable, "-c", CLI, jobs, *self.argv[command]], rc, command)

    def setup_probe(self) -> float:
        out = self.run([sys.executable, "-c", SETUP_PROBE, CONF], 0, "setup probe")[1]
        try:
            return float(out)
        except ValueError:
            self.check(False, f"setup probe printed {out[:80]!r}")
            return float("nan")

    def check_lint(self, out: bytes, what: str) -> None:
        found = _SUMMARY.search(out.decode("utf-8", "replace"))
        warnings = int(found.group(2)) if found else None
        self.check(
            warnings == self.ref.warnings,
            f"{what}: {warnings} warnings, generator inserted {self.ref.warnings}",
        )

    def check_stats(self, out: bytes) -> None:
        found = _STATS_N.search(out.decode("utf-8", "replace"))
        n = int(found.group(1)) if found else None
        expected = self.ref.verified_before + self.ref.accepted
        self.check(n == expected, f"stats: n = {n}, expected {expected}")

    def check_records(self, out: bytes) -> None:
        lines = out.decode("utf-8").splitlines()
        warnings = sum(json.loads(line)["severity"] == "warning" for line in lines)
        self.check(
            warnings == self.ref.warnings,
            f"records: {warnings} warnings, generator inserted {self.ref.warnings}",
        )


def calibrate() -> float:
    """Median of seven timings of a fixed loop of dict and str work."""
    times = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(12):
            counts: dict[str, int] = {}
            for word in _CAL_WORDS:
                key = word.upper().casefold()
                counts[key] = counts.get(key, 0) + len(key)
            "".join(sorted(counts)).count("a")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _keep_going(started: float, rounds: int, seconds: float) -> bool:
    """Start another round only if one more fits in the time budget."""
    if rounds == 0:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / rounds <= seconds


def _lower_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def measure_e2e(w: Workload, seconds: float) -> tuple[dict[str, float], list[str]]:
    """Metrics plus a report line per metric."""
    samples: dict[str, list[float]] = defaultdict(list)
    digests: dict[str, str] = {}
    w.restore()
    w.cli("stats")  # warm-up: byte-compiles kaburlint; not measured
    started = time.perf_counter()
    rounds = 0
    while _keep_going(started, rounds, seconds):
        w.restore()
        samples["setup_s"] += [w.setup_probe() for _ in range(PROBES_PER_ROUND)]
        outputs = {}
        for command in ("extract", "review", "stats", "lint", "lint_j2"):
            wall, outputs[command] = w.cli(command)
            if command != "stats":
                samples[f"{command}_s"].append(wall)
        w.check_stats(outputs["stats"])
        w.check_lint(outputs["lint"], "lint")
        w.check(outputs["lint_j2"] == outputs["lint"], "lint --jobs 2 stdout differs from --jobs 1")
        for command, out in outputs.items():
            digest = digests.setdefault(command, _digest(out))
            w.check(digest == _digest(out), f"{command}: stdout differs between rounds")
        if w.shape.records_check and rounds == 0:
            w.check_records(w.cli("records")[1])
        rounds += 1
    factor = w.speed_factor()
    metrics = {name: _lower_quartile(values) * factor for name, values in samples.items()}
    metrics["peak_rss_mb"] = w.peak_rss_kb / 1024
    lines = [
        f"  {name} = {metrics[name]:.6g} s (raw lower quartile {_lower_quartile(values):.6g} s "
        f"of {len(values)} x speed factor {factor:.4g}; raw median {statistics.median(values):.6g} s)"
        for name, values in samples.items()
    ]
    lines.append(f"  peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (largest process tree)")
    return metrics, lines


def _layer_metrics(
    per_command: dict[str, tuple[dict, dict, dict, dict]], untraced_s: float, traced_s: float
) -> dict[str, float]:
    self_s: dict[str, float] = defaultdict(float)
    lint_document_s = 0.0
    for selfs, totals, _, _ in per_command.values():
        lint_document_s += totals.get("analyzer.lint_document", 0.0)
        for name, value in selfs.items():
            self_s[name] += value
    lint_sums, lint_max = per_command["lint"][2:]
    extract_sums, extract_max = per_command["extract"][2:]
    roots = {f"cli.{c}" for c in TRACED_COMMANDS}
    layer_sum = sum(v for name, v in self_s.items() if name not in roots)
    kept, excluded = lint_sums.get("filters.kept", 0), lint_sums.get("filters.excluded", 0)
    tokens = lint_sums.get("textcore.tokens", 0)
    candidates = extract_sums.get("extraction.candidates", 0)
    metrics = {
        name: self_s.get(name[: -len("_s")], 0.0)
        for name in LAYER_UNITS
        if name.endswith("_s")
    }
    metrics.update(
        {
            "cli.self_s": untraced_s - layer_sum,
            "analyzer.lint_document_s": lint_document_s,
            "analyzer.heuristics_s": self_s.get("analyzer.lint_document", 0.0),
            "config.lexicon_entries": extract_max.get("config.lexicon_entries", 0),
            "textcore.bytes": lint_sums.get("textcore.bytes", 0),
            "textcore.sentences": lint_sums.get("textcore.sentences", 0),
            "textcore.tokens": tokens,
            "textcore.ascii_doc_share": (
                lint_sums.get("textcore.ascii_docs", 0) / max(lint_sums.get("textcore.docs", 0), 1)
            ),
            "filters.kept": kept,
            "filters.excluded": excluded,
            "filters.kept_ratio": kept / max(kept + excluded, 1),
            "lexicon.matches": lint_sums.get("lexicon.matches", 0),
            "lexicon.max_phrase_len": lint_max.get("lexicon.max_phrase_len", 0),
            "analyzer.findings": lint_sums.get("analyzer.findings", 0),
            "analyzer.findings_per_ktoken": (
                1000 * lint_sums.get("analyzer.findings", 0) / max(tokens, 1)
            ),
            "extraction.candidates": candidates,
            "extraction.unmapped_ratio": (
                extract_sums.get("extraction.unmapped", 0) / max(candidates, 1)
            ),
            "trace.overhead_ratio": traced_s / untraced_s - 1,
        }
    )
    return metrics


def measure_trace(w: Workload, seconds: float, run_tag: str) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics (medians over passes) plus a report line per metric."""
    traces = w.dir / "trace"
    traces.mkdir(exist_ok=True)

    def traced(mode: str, command: str, run_id: str) -> tuple[float, bytes]:
        argv = [sys.executable, str(HERE / "replay.py"), mode, f"trace/{run_id}.jsonl", run_id]
        return w.run(argv + w.argv[command], w.expected_rc.get(command, 0), f"traced {command}")

    def summary(run_id: str) -> tuple[dict, dict, dict, dict]:
        return spans.summarize(spans.read_spans(traces / f"{run_id}.jsonl"))

    samples: dict[str, list[float]] = defaultdict(list)
    w.restore()
    w.cli("stats")  # warm-up, as in the end-to-end run
    started = time.perf_counter()
    passes = 0
    while _keep_going(started, passes, seconds):
        results = {}
        for is_traced in (False, True):
            w.restore()
            walls, outputs = {}, {}
            for command in TRACED_COMMANDS:
                if is_traced:
                    run_id = f"{run_tag}-p{passes}-{command}"
                    walls[command], outputs[command] = traced("time", command, run_id)
                else:
                    walls[command], outputs[command] = w.cli(command)
                for name in ("queue.jsonl", "lexicon.jsonl", "audit.jsonl"):
                    path = w.dir / name
                    outputs[f"{command}:{name}"] = path.read_bytes() if path.exists() else b""
            results[is_traced] = walls, outputs
        (plain_walls, plain_out), (traced_walls, traced_out) = results[False], results[True]
        w.check_lint(plain_out["lint"], "lint")
        w.check_stats(plain_out["stats"])
        for key, value in plain_out.items():
            w.check(traced_out[key] == value, f"traced run differs from the CLI: {key}")
        per_command = {
            command: summary(f"{run_tag}-p{passes}-{command}") for command in TRACED_COMMANDS
        }
        metrics = _layer_metrics(per_command, sum(plain_walls.values()), sum(traced_walls.values()))
        for name, value in metrics.items():
            samples[name].append(value)
        passes += 1
    factor = w.speed_factor()
    metrics = {
        name: statistics.median(values) * (factor if LAYER_UNITS[name] == "s" else 1)
        for name, values in samples.items()
    }
    traced("memory", "lint", f"{run_tag}-memory")
    metrics["textcore.offsets_peak_mb"] = summary(f"{run_tag}-memory")[3].get(
        "textcore.offsets_peak_mb", 0.0
    )
    lines = [f"  {name} = {metrics[name]:.6g} {unit}" for name, unit in LAYER_UNITS.items()]
    lines.append(f"  medians of {passes} passes; times corrected by speed factor {factor:.4g}")
    return metrics, lines


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path = WORK,
        scale: float = 1.0) -> tuple[dict, list[str]]:
    """Generate, measure and check one workload; returns (result, report lines)."""
    w = Workload(workload, seed, workdir, scale)
    if trace:
        metrics, lines = measure_trace(w, seconds, f"{workload}-{seed}")
        units = LAYER_UNITS
    else:
        metrics, lines = measure_e2e(w, seconds)
        units = E2E_UNITS
    failed = len(w.failures)
    lines = [f"workload {workload}, seed {seed}, trace {int(trace)}", *lines]
    lines.append(f"  failed_ratio = {failed / w.attempted:.6g} ({failed}/{w.attempted})")
    lines += [f"  FAILED: {message}" for message in w.failures]
    result = {
        "correct": not w.failures,
        "attempted": w.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kaburlint" / "cli.py").is_file():
        print(f"perfbench: kaburlint sources not found under {SRC}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
