"""CLI contract: exit codes, config parsing, --jobs byte identity, round trip."""

from __future__ import annotations

import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kaburlint import cli
from kaburlint.cli import main
from kaburlint.config import Config, load_config, validate_config
from kaburlint.curation import (
    load_audit,
    load_candidates,
    record_to_candidate,
    record_to_decision,
    replay_audit,
)
from kaburlint.errors import ConfigError, KaburlintError
from kaburlint.extraction import scan_document
from kaburlint.lexicon import (
    ATTRIBUTES,
    SUB_ATTRIBUTES,
    dumps_lexicon,
    load_lexicon,
    record_to_entry,
)
from kaburlint.records import replace

EXTRA_DOC = "Sistem mesti papar laporan itu.\nJika data rosak, sistem papar amaran.\n"
ACCEPT_PAPAR = {
    "phrase": ["papar"],
    "verdict": "accept",
    "tags": ["CON.verb"],
    "reviewer": "tester",
    "timestamp": "2026-01-01T00:00:00+00:00",
}
BAD_UTF8 = b"\xff\xfe not utf-8\n"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return rc, out, err


def write_jsonl(path: Path, records: list) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@pytest.fixture
def ws(tmp_path: Path, capsys) -> Path:
    """Seed tree with one extra document and an extracted candidate queue."""
    root = tmp_path / "ws"
    assert run(capsys, "init", root)[0] == 0
    (root / "sample" / "extra.txt").write_text(EXTRA_DOC, encoding="utf-8")
    rc, _, _ = run(
        capsys, "extract", "--config", root / "kaburlint.conf", root / "sample",
        "-o", root / "queue.jsonl",
    )
    assert rc == 0
    return root


def conf(ws: Path) -> str:
    return str(ws / "kaburlint.conf")


def samples(ws: Path) -> list[str]:
    return sorted(str(p) for p in (ws / "sample").glob("*.txt"))


# --- exit codes ---


class TestExitCodes:
    def test_clean_document_exits_0(self, ws, capsys):
        clean = ws / "clean.txt"
        clean.write_text("Sistem simpan rekod pelajar.\n", encoding="utf-8")
        rc, out, _ = run(capsys, "lint", "--config", conf(ws), clean)
        assert rc == 0
        assert "total: 0 (0 warning, 0 info)" in out

    def test_findings_exit_1(self, ws, capsys):
        rc, out, _ = run(capsys, "lint", "--config", conf(ws), *samples(ws))
        assert rc == 1
        assert "'segera' [IMP] attribute_member" in out

    def test_other_commands_exit_0(self, ws, capsys):
        assert run(capsys, "stats", "--config", conf(ws))[0] == 0
        assert run(capsys, "map", "--config", conf(ws), ws / "queue.jsonl")[0] == 0


def _append_lexicon(ws: Path, record: dict) -> tuple[list[str], str]:
    path = ws / "lexicon.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + [json.dumps(record)]) + "\n", encoding="utf-8")
    return ["stats", "--config", conf(ws)], f"lexicon.jsonl:{len(lines) + 1}"


def _append_pos_row(ws: Path, row: str) -> tuple[list[str], str]:
    path = ws / "pos_dict.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + [row]) + "\n", encoding="utf-8")
    return _lint(ws), f"pos_dict.tsv:{len(lines) + 1}"


def _queue(ws: Path, text: str) -> tuple[list[str], str]:
    (ws / "queue.jsonl").write_text(text, encoding="utf-8")
    return ["map", "--config", conf(ws), str(ws / "queue.jsonl")], "queue.jsonl:1"


def _decisions(ws: Path, record) -> tuple[list[str], str]:
    write_jsonl(ws / "decisions.jsonl", [record])
    argv = ["review", "--config", conf(ws), str(ws / "queue.jsonl"),
            "--decisions", str(ws / "decisions.jsonl")]
    return argv, "decisions.jsonl:1"


def _bad_utf8(name: str, argv_for):
    def setup(ws: Path) -> tuple[list[str], str]:
        (ws / name).write_bytes(BAD_UTF8)
        return argv_for(ws), str(ws / name)

    return setup


def _stats(ws: Path) -> list[str]:
    return ["stats", "--config", conf(ws)]


# stats and review read only the lexicon; these commands read the rest
def _lint(ws: Path) -> list[str]:
    return ["lint", "--config", conf(ws), *samples(ws)]


def _extract(ws: Path) -> list[str]:
    return ["extract", "--config", conf(ws), str(ws / "sample"), "-o", str(ws / "q.jsonl")]


def _review(ws: Path) -> list[str]:
    return ["review", "--config", conf(ws), str(ws / "queue.jsonl"),
            "--decisions", str(ws / "decisions.jsonl")]


def _config_line(ws: Path, line: str) -> tuple[list[str], str]:
    """Set one config line, replacing the seed config's line for that key."""
    path = ws / "kaburlint.conf"
    key = line.partition("=")[0].strip()
    lines = [
        old for old in path.read_text(encoding="utf-8").splitlines()
        if old.partition("=")[0].strip() != key
    ]
    path.write_text("\n".join(lines + [line]) + "\n", encoding="utf-8")
    return _stats(ws), f"kaburlint.conf:{len(lines) + 1}"


def _removed_key(ws: Path, key: str, value: str = "false") -> tuple[list[str], str]:
    """A key the config no longer has is unknown; the error names line and key."""
    argv, spot = _config_line(ws, f"{key} = {value}")
    return argv, f"{spot}: unknown key {key!r}"


MALFORMED = {
    "lexicon pos is a number": lambda ws: _append_lexicon(
        ws, {"phrase": ["x"], "pos": 5, "tags": ["T"], "status": "verified"}
    ),
    "lexicon senses is a boolean": lambda ws: _append_lexicon(
        ws, {"phrase": ["x"], "senses": True, "tags": ["T"], "status": "verified"}
    ),
    "lexicon note is a number": lambda ws: _append_lexicon(
        ws, {"phrase": ["x"], "note": 7, "tags": ["T"], "status": "verified"}
    ),
    "lexicon tag is a number": lambda ws: _append_lexicon(
        ws, {"phrase": ["x"], "tags": [5], "status": "verified"}
    ),
    "POS dictionary word with whitespace": lambda ws: _append_pos_row(
        ws, "secepat mungkin\tadj,kk\t3"
    ),
    "queue line is a bare number": lambda ws: _queue(ws, "5\n"),
    "queue occurrence doc is a number": lambda ws: _queue(
        ws, '{"phrase": ["x"], "occurrences": [{"doc": 7, "start": 0, "end": 1}]}\n'
    ),
    "queue occurrence lacks end": lambda ws: _queue(
        ws, '{"phrase": ["x"], "occurrences": [{"doc": "a", "start": 0}]}\n'
    ),
    "queue line is invalid JSON": lambda ws: _queue(ws, "{oops\n"),
    "decision phrase is a number": lambda ws: _decisions(
        ws, {"phrase": 5, "verdict": "accept", "tags": ["T"]}
    ),
    "decision reviewer is a number": lambda ws: _decisions(ws, {**ACCEPT_PAPAR, "reviewer": 5}),
    "decision force is a string": lambda ws: _decisions(
        ws, {"phrase": ["segera"], "verdict": "reject", "force": "false"}
    ),
    "decision is an array": lambda ws: _decisions(ws, ["papar"]),
    "lexicon is not UTF-8": _bad_utf8("lexicon.jsonl", _stats),
    "POS dictionary is not UTF-8": _bad_utf8("pos_dict.tsv", _lint),
    "English wordlist is not UTF-8": _bad_utf8("wordlists/english.txt", _lint),
    "Malay wordlist is not UTF-8": _bad_utf8("wordlists/malay.txt", _lint),
    "abbreviations are not UTF-8": _bad_utf8("wordlists/abbreviations.txt", _lint),
    "rule list is not UTF-8": _bad_utf8("rules/temporal.txt", _extract),
    "config is not UTF-8": _bad_utf8("kaburlint.conf", _stats),
    "queue is not UTF-8": _bad_utf8(
        "queue.jsonl", lambda ws: ["map", "--config", conf(ws), str(ws / "queue.jsonl")]
    ),
    "decisions are not UTF-8": _bad_utf8("decisions.jsonl", _review),
    "document is not UTF-8": _bad_utf8("sample/extra.txt", _lint),
    "config jobs = 0": lambda ws: (_config_line(ws, "jobs = 0")[0], "jobs must be at least 1"),
    "config unknown key": lambda ws: _config_line(ws, "colour = blue"),
    "config bad boolean": lambda ws: _config_line(ws, "flag_anaphoric_clitics = maybe"),
    "config removed filter key": lambda ws: _removed_key(ws, "filter_numbers"),
    "config removed conditional markers": lambda ws: _removed_key(
        ws, "conditional_markers", "jika"
    ),
    "config removed alternative markers": lambda ws: _removed_key(
        ws, "alternative_markers", "x"
    ),
    "--jobs 0": lambda ws: (["lint", "--config", conf(ws), "--jobs", "0", *samples(ws)],
                            "jobs must be at least 1"),
    "--jobs -3": lambda ws: ([*_extract(ws), "--jobs", "-3"], "jobs must be at least 1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_and_names_the_spot(ws, capsys, case):
    argv, spot = MALFORMED[case](ws)
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("kaburlint: error: ")
    assert spot in err
    assert "Traceback" not in err


def test_stats_does_not_read_a_malformed_pos_dictionary(ws, capsys):
    before = run(capsys, *_stats(ws))
    argv, _ = _append_pos_row(ws, "secepat mungkin\tadj,kk\t3")
    assert run(capsys, *argv)[0] == 2
    assert before[0] == 0 and run(capsys, *_stats(ws)) == before


@pytest.mark.parametrize("command", ["map", "review"])
@pytest.mark.parametrize("line", [1, 2], ids=["first of its shape", "after its shape"])
def test_a_queued_empty_phrase_exits_2_and_names_its_line(ws, capsys, command, line):
    # the first record of a shape gets the full check, a later one the quick one
    empty = {"phrase": [], "tags": ["T"], "occurrences": [{"doc": "a.txt", "start": 0, "end": 2}]}
    write_jsonl(ws / "queue.jsonl", [{**empty, "phrase": ["segera"]}] * (line - 1) + [empty])
    before = {name: (ws / name).read_bytes() for name in ("queue.jsonl", "lexicon.jsonl")}
    write_jsonl(ws / "decisions.jsonl", [ACCEPT_PAPAR])
    argv = _review(ws) if command == "review" else ["map", "--config", conf(ws), ws / "queue.jsonl"]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == (
        f"kaburlint: error: queue.jsonl:{line}: candidate phrase must have at least one token\n"
    )
    assert {name: (ws / name).read_bytes() for name in before} == before
    assert not (ws / "audit.jsonl").exists()


# the phrase rule's message, for a candidate or a decision
REFUSED_PHRASES = {
    "empty token": ([""], "{} phrase contains an empty token"),
    "later empty token": (["a", ""], "{} phrase contains an empty token"),
    "token with a space": (["a b"], "phrase token 'a b' contains whitespace"),
}


@pytest.mark.parametrize("phrase", sorted(REFUSED_PHRASES))
@pytest.mark.parametrize("command", ["map", "review"])
@pytest.mark.parametrize("line", [1, 2], ids=["first of its shape", "after its shape"])
def test_a_queued_phrase_the_lexicon_would_refuse_exits_2_and_names_its_line(
    ws, capsys, command, line, phrase
):
    # the lexicon's phrase rule, on the full check and on the quick one
    tokens, message = REFUSED_PHRASES[phrase]
    message = message.format("candidate")
    bad = {"phrase": tokens, "tags": ["T"], "occurrences": [{"doc": "a.txt", "start": 0, "end": 2}]}
    write_jsonl(ws / "queue.jsonl", [{**bad, "phrase": ["segera"]}] * (line - 1) + [bad])
    write_jsonl(ws / "decisions.jsonl", [{**ACCEPT_PAPAR, "phrase": tokens}])
    before = {p.name: p.read_bytes() for p in ws.glob("*.jsonl")}
    argv = _review(ws) if command == "review" else ["map", "--config", conf(ws), ws / "queue.jsonl"]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"kaburlint: error: queue.jsonl:{line}: {message}\n")
    assert {p.name: p.read_bytes() for p in ws.glob("*.jsonl")} == before


@pytest.mark.parametrize("phrase", sorted(REFUSED_PHRASES))
@pytest.mark.parametrize("line", [1, 2], ids=["first of its shape", "after its shape"])
def test_a_decided_phrase_the_lexicon_would_refuse_exits_2_and_names_its_line(
    ws, capsys, line, phrase
):
    tokens, message = REFUSED_PHRASES[phrase]
    message = message.format("decision")
    write_jsonl(ws / "decisions.jsonl", [ACCEPT_PAPAR] * (line - 1) + [
        {**ACCEPT_PAPAR, "phrase": tokens}
    ])
    before = {p.name: p.read_bytes() for p in ws.glob("*.jsonl")}
    rc, out, err = run(capsys, *_review(ws))
    assert (rc, out, err) == (2, "", f"kaburlint: error: decisions.jsonl:{line}: {message}\n")
    assert {p.name: p.read_bytes() for p in ws.glob("*.jsonl")} == before


def test_string_force_cannot_redecide_a_verified_entry(ws, capsys):
    before = (ws / "lexicon.jsonl").read_bytes()
    argv, _ = _decisions(ws, {"phrase": ["segera"], "verdict": "reject", "force": "false"})
    assert run(capsys, *argv)[0] == 2
    assert (ws / "lexicon.jsonl").read_bytes() == before
    assert not (ws / "audit.jsonl").exists()


def test_forced_rereview_replays_to_the_same_bytes(ws, capsys):
    initial = load_lexicon(ws / "lexicon.jsonl")
    argv, _ = _decisions(ws, {"phrase": ["segera"], "verdict": "reject"})
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and "already verified" in err
    rc, out, _ = run(capsys, *argv, "--force")
    assert rc == 0 and out.startswith("accepted 0, rejected 1;")
    assert '"force": true' in (ws / "audit.jsonl").read_text(encoding="utf-8")
    replayed = replay_audit(initial, load_audit(ws / "audit.jsonl"))
    assert dumps_lexicon(replayed) == (ws / "lexicon.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
def test_a_document_name_with_a_line_break_other_than_newline_reaches_map(ws, capsys, char):
    (ws / "sample" / f"ekstra{char}dua.txt").write_text(EXTRA_DOC, encoding="utf-8")
    queue = ws / "queue.jsonl"
    assert run(capsys, "extract", "--config", conf(ws), ws / "sample", "-o", queue)[0] == 0
    docs = {o.doc_id for c in load_candidates(queue) for o in c.occurrences}
    assert f"ekstra{char}dua.txt" in docs
    rc, _, err = run(capsys, "map", "--config", conf(ws), queue, "-o", ws / "mapped.jsonl")
    assert (rc, err) == (0, "")
    assert (ws / "mapped.jsonl").read_bytes() == queue.read_bytes()


def test_rejected_phrase_is_not_queued_again(ws, capsys):
    # anggaran is a verified seed entry and a weakness rule-list phrase
    assert ("anggaran",) in [c.phrase for c in load_candidates(ws / "queue.jsonl")]
    argv, _ = _decisions(ws, {"phrase": ["anggaran"], "verdict": "reject", "force": True})
    assert run(capsys, *argv)[0] == 0
    assert load_lexicon(ws / "lexicon.jsonl").get(("anggaran",)).status == "rejected"
    rc, _, _ = run(
        capsys, "extract", "--config", conf(ws), ws / "sample", "-o", ws / "queue.jsonl"
    )
    assert rc == 0
    queued = [c.phrase for c in load_candidates(ws / "queue.jsonl")]
    assert ("anggaran",) not in queued and ("segera",) in queued


def _queue_records(ws: Path, status: str | None = None) -> list[dict]:
    """The queue's records; with status, every record is rewritten to it first."""
    lines = (ws / "queue.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    if status is not None:
        for record in records:
            record["status"] = status
        write_jsonl(ws / "queue.jsonl", records)
    return records


def _drop_from_lexicon(ws: Path, *phrases: list[str]) -> None:
    """Remove the phrases' entries from the lexicon: undecided, as if never reviewed."""
    path = ws / "lexicon.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(
        "".join(line for line in lines if json.loads(line)["phrase"] not in phrases),
        encoding="utf-8",
    )


def _offered(out: str) -> list[str]:
    """The phrases an interactive review prompted for, in order."""
    return [line.split("] ", 1)[1] for line in out.splitlines() if line.startswith("[")]


def test_extract_queues_verified_phrases_as_accepted(tmp_path, capsys, monkeypatch):
    # init + extract: every seed phrase found is verified, so review offers none
    root = tmp_path / "ws"
    assert run(capsys, "init", root)[0] == 0
    rc, _, _ = run(capsys, "extract", "--config", conf(root), root / "sample",
                   "-o", root / "queue.jsonl")
    assert rc == 0
    lexicon = load_lexicon(root / "lexicon.jsonl")
    queue = load_candidates(root / "queue.jsonl")
    assert queue and all(lexicon.get(c.phrase).status == "verified" for c in queue)
    assert {c.status for c in queue} == {"accepted"}
    before = {p.name: p.read_bytes() for p in root.glob("*.jsonl")}
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    rc, out, err = run(capsys, "review", "--config", conf(root), root / "queue.jsonl")
    assert (rc, err) == (0, "") and "no decisions recorded" in out and "[1/" not in out
    assert {p.name: p.read_bytes() for p in root.glob("*.jsonl")} == before


def test_map_sets_each_status_from_the_lexicon(ws, capsys, monkeypatch):
    # segera is rejected after the queue was written, and the queue lists
    # every phrase as pending, as one written before they were verified
    argv, _ = _decisions(ws, {"phrase": ["segera"], "verdict": "reject", "force": True})
    assert run(capsys, *argv)[0] == 0
    _queue_records(ws, "pending")
    queue = ws / "queue.jsonl"
    assert run(capsys, "map", "--config", conf(ws), queue)[0] == 0
    lexicon = load_lexicon(ws / "lexicon.jsonl")
    outcome = {"verified": "accepted", "rejected": "rejected"}
    statuses = {c.phrase: c.status for c in load_candidates(queue)}
    assert statuses[("segera",)] == "rejected" and statuses[("anggaran",)] == "accepted"
    for phrase, status in statuses.items():
        entry = lexicon.get(phrase)
        assert status == (outcome[entry.status] if entry else "pending"), phrase
    # interactive review offers only papar, the one phrase the lexicon has not decided
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    rc, out, _ = run(capsys, "review", "--config", conf(ws), queue)
    assert rc == 0 and _offered(out) == ["papar"]


def test_interactive_review_resolves_like_a_batch(ws, capsys, monkeypatch):
    # the first two candidates undecided in the lexicon and pending in the
    # queue; give the first tags and criteria that the queue file lists in
    # neither alphabetical order
    records = _queue_records(ws, "pending")
    _drop_from_lexicon(ws, records[0]["phrase"], records[1]["phrase"])
    records[0]["tags"] = ["IMP", "CON.verb", "T", "WN"]
    records[0]["criteria"] = ["multi_pos", "vague_pos", "attribute_member"]
    write_jsonl(ws / "queue.jsonl", records)
    queue = load_candidates(ws / "queue.jsonl")
    first, second = queue[0], queue[1]
    # a bad tag re-prompts; then accept with the suggested tags, reject, quit
    answers = iter(["a NOPE", "a", "r", "q"])
    monkeypatch.setattr("builtins.input", lambda _prompt: next(answers))
    initial = load_lexicon(ws / "lexicon.jsonl")
    rc, out, _ = run(capsys, "review", "--config", conf(ws), ws / "queue.jsonl",
                     "--reviewer", "tester", "--force")
    assert rc == 0 and "! unknown attribute 'NOPE'" in out
    assert "accepted 1, rejected 1;" in out
    # the prompt lists tags and criteria in the queue file's order
    for record in records[:2]:
        assert f"  suggested tags: {' '.join(record['tags'])}\n" in out
        assert f"  criteria: {' '.join(record['criteria'])}\n" in out
    decisions = load_audit(ws / "audit.jsonl")
    assert [(d.phrase, d.verdict) for d in decisions] == [
        (first.phrase, "accept"), (second.phrase, "reject")
    ]
    assert decisions[0].final_tags == first.suggested_tags
    assert decisions[1].final_tags == second.suggested_tags
    assert all(d.reviewer == "tester" and d.force and d.timestamp for d in decisions)
    replayed = replay_audit(initial, decisions)
    assert dumps_lexicon(replayed) == (ws / "lexicon.jsonl").read_text(encoding="utf-8")


def test_interactive_review_asks_again_after_a_refused_answer(ws, capsys, monkeypatch):
    # papar, unmapped here, has no suggested tags: accepting it without a
    # tag is refused. segera, dropped from the lexicon, is pending too.
    records = _queue_records(ws)
    for record in records:
        if record["phrase"] == ["papar"]:
            record["tags"] = []
        if record["phrase"] == ["segera"]:
            record["status"] = "pending"
    write_jsonl(ws / "queue.jsonl", records)
    _drop_from_lexicon(ws, ["segera"])
    assert [c.phrase for c in load_candidates(ws / "queue.jsonl") if c.unmapped] == [("papar",)]
    # a refused answer, then quit: nothing to write, and no error
    answers = iter(["a", "q"])
    monkeypatch.setattr("builtins.input", lambda _prompt: next(answers))
    before = {p.name: p.read_bytes() for p in ws.glob("*.jsonl")}
    rc, out, err = run(capsys, "review", "--config", conf(ws), ws / "queue.jsonl")
    assert (rc, err) == (0, "") and "no decisions recorded" in out
    assert "  ! accepting 'papar' requires at least one tag\n" in out
    assert {p.name: p.read_bytes() for p in ws.glob("*.jsonl")} == before
    # refused, asked again and accepted with a tag; the next phrase is kept too
    answers = iter(["a", "a CON.verb", "r"])
    initial = load_lexicon(ws / "lexicon.jsonl")
    rc, out, err = run(capsys, "review", "--config", conf(ws), ws / "queue.jsonl")
    assert (rc, err) == (0, "")
    assert "  ! accepting 'papar' requires at least one tag\n" in out
    assert _offered(out) == ["papar", "papar", "segera"]
    assert "accepted 1, rejected 1;" in out
    decisions = load_audit(ws / "audit.jsonl")
    assert [(d.phrase, d.verdict, d.force) for d in decisions] == [
        (("papar",), "accept", False), (("segera",), "reject", False)
    ]
    lexicon = load_lexicon(ws / "lexicon.jsonl")
    assert lexicon.get(("papar",)).status == "verified"
    assert lexicon.get(("segera",)).status == "rejected"
    replayed = replay_audit(initial, decisions)
    assert dumps_lexicon(replayed) == (ws / "lexicon.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("again", [
    {},  # the same listing again: a record of a shape already parsed
    {"phrase": ["Papar"], "status": "accepted"},  # a new shape, the same phrase once case-folded
], ids=["same-shape", "new-shape"])
def test_review_and_map_refuse_a_queue_that_lists_a_phrase_twice(ws, capsys, monkeypatch, again):
    # review keys the queue by phrase: a second listing of papar would be
    # saved as a copy of the last, so the queue is refused before any prompt
    # and nothing is written
    records = _queue_records(ws)
    (papar,) = [r for r in records if r["phrase"] == ["papar"]]
    write_jsonl(ws / "queue.jsonl", [*records, {**papar, **again}])
    where = f"queue.jsonl:{len(records) + 1}: duplicate phrase 'papar'"

    def no_prompt(_prompt):
        raise AssertionError("review prompted on a refused queue")

    monkeypatch.setattr("builtins.input", no_prompt)
    write_jsonl(ws / "decisions.jsonl", [ACCEPT_PAPAR])
    before = {p.name: p.read_bytes() for p in ws.iterdir() if p.is_file()}
    for argv in (
        ["review", "--config", conf(ws), ws / "queue.jsonl"],
        _review(ws),
        ["map", "--config", conf(ws), ws / "queue.jsonl"],
        ["map", "--config", conf(ws), ws / "queue.jsonl", "-o", ws / "mapped.jsonl"],
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "") and where in err, argv
    assert {p.name: p.read_bytes() for p in ws.iterdir() if p.is_file()} == before


def test_interactive_review_of_a_stale_queue_offers_only_pending_phrases(
    ws, capsys, monkeypatch
):
    # segera is rejected after the queue was written, and the queue is then
    # rewritten with every phrase pending, as one written before any was decided
    argv, _ = _decisions(ws, {"phrase": ["segera"], "verdict": "reject", "force": True})
    assert run(capsys, *argv)[0] == 0
    records = _queue_records(ws, "pending")
    lexicon = load_lexicon(ws / "lexicon.jsonl")
    statuses = {lexicon.get(tuple(r["phrase"])).status for r in records if r["phrase"] != ["papar"]}
    assert statuses == {"verified", "rejected"}
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    before = {p.name: p.read_bytes() for p in ws.glob("*.jsonl")}
    rc, out, err = run(capsys, "review", "--config", conf(ws), ws / "queue.jsonl")
    assert (rc, err) == (0, "") and _offered(out) == ["papar"]
    assert {p.name: p.read_bytes() for p in ws.glob("*.jsonl")} == before


def test_review_whose_audit_log_cannot_be_written_changes_nothing(ws, capsys):
    # the config may name an audit log in a directory that does not exist
    _config_line(ws, "audit_log = logs/audit.jsonl")
    before = {name: (ws / name).read_bytes() for name in ("lexicon.jsonl", "queue.jsonl")}
    argv, _ = _decisions(ws, {"phrase": ["segera"], "verdict": "reject", "force": True})
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and "audit.jsonl" in err
    assert {name: (ws / name).read_bytes() for name in before} == before
    assert not (ws / "logs").exists()


def test_review_rerun_after_a_crash_between_audit_and_lexicon_save_replays(
    ws, capsys, monkeypatch
):
    initial = load_lexicon(ws / "lexicon.jsonl")
    before = (ws / "lexicon.jsonl").read_bytes()
    # one new phrase and one forced change of a verified seed entry
    write_jsonl(ws / "decisions.jsonl", [
        ACCEPT_PAPAR, {"phrase": ["segera"], "verdict": "reject", "force": True}
    ])

    def crash(lexicon, path):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_lexicon", crash)
    rc, _, err = run(capsys, *_review(ws))
    assert rc == 2 and "disk full" in err
    assert (ws / "lexicon.jsonl").read_bytes() == before
    assert len(load_audit(ws / "audit.jsonl")) == 2
    monkeypatch.undo()
    # the same batch again: the audit log now holds it twice
    rc, out, _ = run(capsys, *_review(ws))
    assert rc == 0 and out.startswith("accepted 1, rejected 1;")
    assert len(load_audit(ws / "audit.jsonl")) == 4
    replayed = replay_audit(initial, load_audit(ws / "audit.jsonl"))
    assert dumps_lexicon(replayed).encode("utf-8") == (ws / "lexicon.jsonl").read_bytes()


def test_review_after_a_torn_audit_write_drops_the_torn_line(tmp_path, capsys):
    # a crash or a full disk cut the log's last line short: the next review
    # drops it, says so, and appends its batch on lines of its own
    root = tmp_path / "ws"
    assert run(capsys, "init", root)[0] == 0
    argv = ["review", "--config", conf(root), str(root / "queue.jsonl"),
            "--decisions", str(GOLDEN / "input.decisions.jsonl"), "--reviewer", "penyemak"]
    assert run(capsys, "extract", "--config", conf(root), root / "sample",
               "-o", root / "queue.jsonl")[0] == 0
    initial = load_lexicon(root / "lexicon.jsonl")
    assert run(capsys, *argv)[0] == 0
    audit = root / "audit.jsonl"
    logged = audit.read_bytes()
    assert logged.count(b"\n") == 3
    with open(audit, "ab") as handle:
        handle.write(b'{"phrase": ["x"')
    rc, _, err = run(capsys, *argv)
    assert rc == 0
    assert f"{audit}: dropped a torn last line (15 bytes)" in err
    assert audit.read_bytes() == logged * 2
    replayed = replay_audit(initial, load_audit(audit))
    assert dumps_lexicon(replayed).encode("utf-8") == (root / "lexicon.jsonl").read_bytes()


# --- config parsing ---


def write_config(directory: Path, *lines: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "kaburlint.conf"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestConfig:
    def test_defaults_without_keys(self, tmp_path):
        path = write_config(tmp_path, "# only a comment", "")
        assert load_config(path) == Config()

    def test_relative_paths_resolve_against_the_config_directory(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "lex.jsonl").write_text("", encoding="utf-8")
        path = write_config(tmp_path / "conf", "lexicon = ../data/lex.jsonl")
        assert load_config(path).lexicon == (tmp_path / "data" / "lex.jsonl").resolve()

    def test_missing_input_path_is_an_error_with_line(self, tmp_path):
        path = write_config(tmp_path, "# header", "pos_dict = absent.tsv")
        with pytest.raises(ConfigError, match=r"kaburlint\.conf:2: pos_dict file .*absent"):
            load_config(path)

    def test_missing_audit_log_is_fine(self, tmp_path):
        path = write_config(tmp_path, "audit_log = logs/audit.jsonl")
        assert load_config(path).audit_log == (tmp_path / "logs" / "audit.jsonl").resolve()

    def test_int_keys(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "sense_threshold = 3", "jobs = 2"))
        assert (cfg.sense_threshold, cfg.jobs) == (3, 2)
        with pytest.raises(ConfigError, match=r"kaburlint\.conf:1: jobs must be an integer"):
            load_config(write_config(tmp_path, "jobs = two"))

    @pytest.mark.parametrize(
        "spelling, value",
        [("true", True), ("yes", True), ("1", True), ("on", True), ("TRUE", True),
         ("false", False), ("no", False), ("0", False), ("off", False), ("Off", False)],
    )
    def test_every_bool_spelling(self, tmp_path, spelling, value):
        path = write_config(tmp_path, f"flag_anaphoric_clitics = {spelling}")
        assert load_config(path).flag_anaphoric_clitics is value

    def test_bad_bool_is_an_error_with_line(self, tmp_path):
        with pytest.raises(
            ConfigError, match=r"kaburlint\.conf:1: flag_anaphoric_clitics must be a boolean"
        ):
            load_config(write_config(tmp_path, "flag_anaphoric_clitics = maybe"))

    def test_string_keys_are_checked_after_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "format = xml", "scope = everything"))
        assert cfg.format == "xml"
        with pytest.raises(ConfigError, match="unknown format"):
            validate_config(cfg)
        with pytest.raises(ConfigError, match="unknown scope"):
            validate_config(replace(cfg, format="csv"))
        assert validate_config(replace(cfg, format="csv", scope="candidates")).scope == "candidates"

    @pytest.mark.parametrize(
        "field, value", [("jobs", 0), ("jobs", -3), ("sense_threshold", -1)]
    )
    def test_range_checks(self, field, value):
        with pytest.raises(ConfigError):
            validate_config(replace(Config(), **{field: value}))

    def test_unknown_key_with_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r"kaburlint\.conf:2: unknown key 'colour'"):
            load_config(write_config(tmp_path, "jobs = 1", "colour = blue"))

    def test_duplicate_key_with_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r"kaburlint\.conf:3: duplicate key 'jobs'"):
            load_config(write_config(tmp_path, "jobs = 1", "", "jobs = 2"))

    def test_line_without_equals(self, tmp_path):
        with pytest.raises(ConfigError, match=r"kaburlint\.conf:1: expected 'key = value'"):
            load_config(write_config(tmp_path, "jobs 2"))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.conf")


@pytest.mark.parametrize("listed, tokens", [("DLL.", 3), ("dsb.", 4)])
def test_abbreviations_file_is_case_folded(ws, capsys, listed, tokens):
    # "dll." stays one token only when the file lists it, in any case
    (ws / "wordlists" / "abbreviations.txt").write_text(listed + "\n", encoding="utf-8")
    corpus = ws / "abbrev"
    corpus.mkdir()
    (corpus / "doc.txt").write_text("kafe dll. tiga\n", encoding="utf-8")
    rc, out, _ = run(capsys, "extract", "--config", conf(ws), corpus, "-o", ws / "q.jsonl")
    assert rc == 0
    assert f"tokens read: {tokens}\n" in out


# --- --jobs byte identity ---


def test_lint_and_extract_are_byte_identical_at_jobs_1_and_2(ws, capsys):
    for i in range(3):
        shutil.copyfile(ws / "sample" / "sistem_klinik.txt", ws / "sample" / f"copy{i}.txt")
    docs = samples(ws)
    for fmt in ("text", "csv", "records"):
        lint = [run(capsys, "lint", "--config", conf(ws), "--format", fmt, "--jobs", jobs, *docs)
                for jobs in ("1", "2")]
        assert lint[0] == lint[1]
        assert lint[0][0] == 1
    outputs = []
    for jobs in ("1", "2"):
        queue = ws / f"queue{jobs}.jsonl"
        rc, out, _ = run(capsys, "extract", "--config", conf(ws), "--jobs", jobs,
                         ws / "sample", "-o", queue)
        assert rc == 0
        outputs.append((out.replace(str(queue), "QUEUE"), queue.read_bytes()))
    assert outputs[0] == outputs[1]
    assert b'"papar"' in outputs[0][1]


@pytest.fixture
def fake_pool(monkeypatch) -> list[SimpleNamespace]:
    """cli._fork_shard with the child's work done in the parent; each child's task and shard.

    The work is the child's own (_send_results), so its results still go
    through pickle, and the parent reads them as it reads a pipe. The pid
    is that of a real child that exits at once, so the parent reaps it as
    it reaps a worker.
    """
    created = []

    def fork_shard(task, shard, pickle, signal):
        created.append(SimpleNamespace(task=task, shard=shard))
        sent = io.BytesIO()
        cli._send_results(task, shard, sent, pickle)
        sent.seek(0)
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        return pid, sent

    monkeypatch.setattr(cli, "_fork_shard", fork_shard)
    return created


def lint_formats(capsys, ws: Path, jobs: str, *paths) -> list[tuple[int, str, str]]:
    return [run(capsys, "lint", "--config", conf(ws), "--format", fmt, "--jobs", jobs, *paths)
            for fmt in ("text", "csv", "records")]


class TestPool:
    def test_lint_workers_capped_at_document_count(self, ws, fake_pool, capsys):
        docs = samples(ws)
        serial = run(capsys, "lint", "--config", conf(ws), "--jobs", "1", *docs)
        assert fake_pool == []
        assert run(capsys, "lint", "--config", conf(ws), "--jobs", "64", *docs) == serial
        # three workers, one document each: the parent works the first
        assert len(docs) == 3
        assert [child.shard for child in fake_pool] == [[docs[1]], [docs[2]]]
        # the lexicon and the heuristics table travel with the task, once
        # per child; items are paths, read by the worker
        for child in fake_pool:
            assert child.task.func is cli._lint_path
            assert len(child.task.keywords["lexicon"]) > 0
            assert len(child.task.keywords["heuristics"]) > 0
            assert "posdict" not in child.task.keywords

    def test_lint_shards_are_contiguous_and_uneven_at_most_by_one(self, ws, fake_pool, capsys):
        paths = samples(ws) * 2
        serial = lint_formats(capsys, ws, "1", *paths)
        for jobs, shards in (("2", [paths[3:]]), ("4", [paths[2:4], paths[4:5], paths[5:]])):
            fake_pool.clear()
            assert lint_formats(capsys, ws, jobs, *paths) == serial
            # one child, and one task, per shard after the parent's; for
            # each of text, csv and records
            assert [child.shard for child in fake_pool] == shards * 3

    def test_shards_without_findings(self, ws, fake_pool, capsys):
        clean = []
        for name in ("clean1.txt", "clean2.txt"):
            clean.append(ws / name)
            clean[-1].write_text("Sistem simpan rekod pelajar.\n", encoding="utf-8")
        finding = samples(ws)[0]
        # a child whose document has no finding gives an empty part
        mixed = [finding, clean[0], clean[1]]
        assert lint_formats(capsys, ws, "3", *mixed) == lint_formats(capsys, ws, "1", *mixed)
        assert len(fake_pool) == 6
        fake_pool.clear()
        text, csv, records = lint_formats(capsys, ws, "2", *clean)
        assert len(fake_pool) == 3
        assert text == (0, (
            "\ntotal: 0 (0 warning, 0 info)\n"
            "by attribute: IMP=0 CON=0 T=0 REF=0 VAR=0 WN=0\n"
            "by criterion: \n"
        ), "")
        assert csv == (0, "document,line,col,start,end,sentence,matched,phrase,tags,"
                          "criterion,severity\n", "")
        assert records == (0, "", "")

    def test_extract_workers_capped_at_document_count(self, ws, fake_pool, capsys):
        outputs = []
        for jobs in ("1", "64"):
            queue = ws / f"queue{jobs}.jsonl"
            rc, out, _ = run(capsys, "extract", "--config", conf(ws), "--jobs", jobs,
                             ws / "sample", "-o", queue)
            assert rc == 0
            outputs.append((out.replace(str(queue), "QUEUE"), queue.read_bytes()))
        assert outputs[0] == outputs[1]
        # the candidate table travels once per child; workers scan
        # documents and the parent merges and maps once
        names = [p.name for p in sorted((ws / "sample").glob("*.txt"))]
        assert len(names) == 3
        assert [[doc.id for doc in child.shard] for child in fake_pool] == [names[1:2], names[2:]]
        for child in fake_pool:
            assert child.task.func is scan_document
            assert len(child.task.keywords["criteria"]) > 0

    def test_single_document_runs_in_process(self, ws, fake_pool, capsys):
        one = ws / "one"
        one.mkdir()
        shutil.copyfile(samples(ws)[0], one / "doc.txt")
        assert run(capsys, "lint", "--config", conf(ws), "--jobs", "8", one / "doc.txt")[0] == 1
        rc, out, _ = run(capsys, "extract", "--config", conf(ws), "--jobs", "8", one,
                         "-o", ws / "q.jsonl")
        assert rc == 0 and out.startswith("documents: 1\n")
        assert fake_pool == []

    def test_without_fork_the_parent_works_every_item(self, ws, fake_pool, capsys, monkeypatch):
        paths = samples(ws) * 2

        def extract(jobs: str) -> tuple[str, bytes]:
            queue = ws / f"queue{jobs}.jsonl"
            rc, out, _ = run(capsys, "extract", "--config", conf(ws), "--jobs", jobs,
                             ws / "sample", "-o", queue)
            assert rc == 0
            return out.replace(str(queue), "QUEUE"), queue.read_bytes()

        serial = lint_formats(capsys, ws, "1", *paths), extract("1")
        monkeypatch.delattr(os, "fork")
        assert (lint_formats(capsys, ws, "4", *paths), extract("4")) == serial
        assert fake_pool == []


# --- no child outlives the command (real processes) ---


@pytest.fixture
def forked(monkeypatch) -> list[int]:
    """The pids of the children os.fork starts in this test."""
    pids = []
    fork = os.fork

    def recording_fork() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids: list[int]) -> None:
    """Every pid was forked by this process and has been reaped: none runs or is a zombie."""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("jobs, order", [
    ("2", ["missing", 0, 1, "bad"]),  # in the parent's shard, and a later child fails too
    ("2", [0, 1, "missing", "bad"]),  # in the child's shard
    ("4", [0, "bad", 1, "missing"]),  # in the first of two failing children
])
def test_the_earliest_unreadable_path_fails_at_any_jobs(ws, capsys, forked, jobs, order):
    docs = samples(ws)
    (ws / "bad.txt").write_bytes(BAD_UTF8)
    named = {"missing": str(ws / "missing.txt"), "bad": str(ws / "bad.txt")}
    paths = [named[p] if isinstance(p, str) else docs[p] for p in order]
    serial = run(capsys, "lint", "--config", conf(ws), "--jobs", "1", *paths)
    assert serial[:2] == (2, "")
    assert named[next(p for p in order if isinstance(p, str))] in serial[2]
    assert forked == []
    assert run(capsys, "lint", "--config", conf(ws), "--jobs", jobs, *paths) == serial
    assert len(forked) == int(jobs) - 1
    assert_reaped(forked)


class Unbuildable(Exception):
    """Pickles, but cannot be rebuilt: unpickling calls __init__ with args alone."""

    def __init__(self, item: str, why: str) -> None:
        super().__init__(item)


def _fail_or_wait(item: str) -> str:
    if item == "interrupt":
        raise KeyboardInterrupt
    if item == "raise":
        raise ValueError(item)
    if item == "exit":
        os._exit(3)
    if item == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if item == "unpicklable":
        raise ValueError(lambda: item)
    if item == "unbuildable":
        raise Unbuildable(item, "no default")
    if item == "unpicklable result":
        return lambda: item
    if item == "wait":
        time.sleep(60)
    if item == "sigint":
        os.kill(os.getpid(), signal.SIGINT)
    return item


@pytest.mark.parametrize("items, error, match", [
    (["interrupt", "wait", "wait"], KeyboardInterrupt, None),  # the parent's shard
    (["ok", "raise", "wait"], ValueError, "raise"),  # a child, while a later one still runs
    # a child that dies without sending
    (["ok", "exit", "wait"], KaburlintError, "exited with code 3 before sending its results"),
    (["ok", "kill", "wait"], KaburlintError,
     f"exited with code -{int(signal.SIGKILL)} before sending its results"),
    # a child whose exception pickle cannot carry or rebuild, or whose result it cannot carry
    (["ok", "unpicklable", "wait"], KaburlintError, "could not send its error"),
    (["ok", "unbuildable", "wait"], KaburlintError, "sent results that cannot be read"),
    (["ok", "unpicklable result", "wait"], KaburlintError,
     "exited with code 1 before sending its results"),
], ids=["parent", "raise", "exit", "kill", "unpicklable", "unbuildable", "unpicklable-result"])
def test_pool_map_stops_every_child_before_raising(forked, items, error, match):
    start = time.monotonic()
    with pytest.raises(error, match=match):
        cli._pool_map(_fail_or_wait, items, 3)
    assert len(forked) == 2
    assert_reaped(forked)
    assert time.monotonic() - start < 30


def test_pool_map_returns_results_in_item_order(capfd, forked):
    # Ctrl-C reaches every child too, but the parent alone stops them: the
    # last child, sent SIGINT, neither raises nor prints a traceback
    items = [*(str(n) for n in range(6)), "sigint"]
    assert cli._pool_map(_fail_or_wait, items, 3) == items
    assert len(forked) == 2
    assert_reaped(forked)
    assert capfd.readouterr().err == ""


def _print_lines(item: int) -> int:
    print("worker\n" * 10_000, end="")
    return item


def test_pool_map_flushes_stdio_before_each_fork(capfd, monkeypatch):
    # on a buffered stdout (PYTHONUNBUFFERED unset), what the parent wrote
    # before the pool is written once: a child whose own output overflows
    # the buffer it inherited writes no second copy of it
    with open(os.dup(1), "w", encoding="utf-8") as out, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", out)
        print("parent", end="")
        assert cli._pool_map(_print_lines, [1, 2, 3], 3) == [1, 2, 3]
    assert capfd.readouterr().out.count("parent") == 1


# --- start-up imports ---

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs sys.argv[2:] through the CLI, if given, in a fresh interpreter, then
# writes the names in sys.modules to the file sys.argv[1].
MODULES_AFTER = """\
import sys
if sys.argv[2:]:
    from kaburlint.cli import main
    rc = main(sys.argv[2:])
    print("exit", rc, file=sys.stderr)
with open(sys.argv[1], "w", encoding="utf-8") as listing:
    listing.write("\\n".join(sys.modules))
"""

# modules that only --jobs > 1, review's timestamps and csv reports need
SINGLE_USE = frozenset({"pickle", "csv", "datetime"})
# the dataclass machinery and multiprocessing, which no command needs
NEVER = frozenset({"dataclasses", "inspect", "multiprocessing"})


def modules_after(ws: Path, *argv: str, rc: int | None = None) -> set[str]:
    listing = ws.parent / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_AFTER, str(listing), *argv],
        cwd=ws,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
    )
    if rc is not None:
        assert proc.stderr.splitlines()[-1:] == [f"exit {rc}"], proc.stderr
    return set(listing.read_text(encoding="utf-8").split())


def test_no_command_imports_multiprocessing_and_serial_ones_no_single_use_module(ws):
    bare = modules_after(ws)
    mapped = ["map", "--config", conf(ws), str(ws / "queue.jsonl"), "-o", str(ws / "m.jsonl")]
    loaded = {}
    for argv, rc in (
        ([*_lint(ws), "--jobs", "1"], 1),
        (_extract(ws), 0),
        (_stats(ws), 0),
        (mapped, 0),
        (_decisions(ws, ACCEPT_PAPAR)[0], 0),
    ):
        loaded[argv[0]] = modules_after(ws, *argv, rc=rc) - bare
        assert loaded[argv[0]] & (SINGLE_USE | NEVER) == set(), argv
    # lint runs neither extraction nor stats
    assert loaded["lint"] & {"kaburlint.extraction", "kaburlint.stats"} == set()
    # the pool forks its workers and pickles their results
    for argv, rc in (([*_lint(ws), "--jobs", "2"], 1), ([*_extract(ws), "--jobs", "2"], 0)):
        pooled = modules_after(ws, *argv, rc=rc)
        assert "pickle" in pooled and pooled & NEVER == set(), argv


# --- round trip on the seed tree ---


def test_init_extract_review_stats_lint_round_trip(ws, capsys):
    initial = load_lexicon(ws / "lexicon.jsonl")
    queue = {c.phrase: c for c in load_candidates(ws / "queue.jsonl")}
    assert queue[("papar",)].status == "pending"
    rc, out, _ = run(capsys, "stats", "--config", conf(ws))
    assert rc == 0
    verified_before = int(out.rsplit("n = ", 1)[1])

    write_jsonl(ws / "decisions.jsonl", [ACCEPT_PAPAR])
    rc, out, _ = run(capsys, *_review(ws))
    assert rc == 0
    assert out.startswith("accepted 1, rejected 0;")
    assert {c.phrase: c.status for c in load_candidates(ws / "queue.jsonl")}[("papar",)] == "accepted"

    final = (ws / "lexicon.jsonl").read_text(encoding="utf-8")
    replayed = replay_audit(initial, load_audit(ws / "audit.jsonl"))
    assert dumps_lexicon(replayed) == final

    for fmt, marker in (("text", f"n = {verified_before + 1}"), ("csv", "attribute,count,percentage")):
        rc, out, _ = run(capsys, "stats", "--config", conf(ws), "--format", fmt)
        assert rc == 0 and marker in out

    rc, out, _ = run(capsys, "lint", "--config", conf(ws), ws / "sample" / "extra.txt")
    assert rc == 1
    assert "'papar' [CON.verb] attribute_member" in out

    # the same decision again holds the lexicon's outcome: a no-op; another
    # outcome for a decided phrase still needs --force
    assert run(capsys, *_review(ws))[0] == 0
    assert (ws / "lexicon.jsonl").read_text(encoding="utf-8") == final
    write_jsonl(ws / "decisions.jsonl", [{"phrase": ["papar"], "verdict": "reject"}])
    rc, _, err = run(capsys, *_review(ws))
    assert rc == 2 and "already verified" in err


# --- record parsers accept any JSON value or fail cleanly ---

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
TAGS = [a for a in ATTRIBUTES] + [f"{a}.{s}" for a in ATTRIBUTES for s in SUB_ATTRIBUTES[a]]
WORDS = st.lists(st.sampled_from(["segera", "papar", "", "A b", "ß", "x"]), max_size=3)
PLAUSIBLE = {
    "phrase": WORDS,
    "pos": st.lists(st.sampled_from(["kn", "kk", "adj", "noun"]), max_size=3),
    "senses": st.integers(-2, 5) | st.booleans(),
    "tags": st.lists(st.sampled_from(TAGS + ["ZZZ", "IMP."]), max_size=3),
    "status": st.sampled_from(["candidate", "verified", "rejected", "pending", "accepted", "?"]),
    "note": st.text(max_size=5),
    "source": st.sampled_from(["paper_seed", "extracted", "user", "?"]),
    "criteria": st.lists(st.sampled_from(["multi_pos", "vague_pos", "?"]), max_size=2),
    "occurrences": st.lists(
        st.fixed_dictionaries({"doc": st.text(max_size=3), "start": st.integers(-1, 5),
                               "end": st.integers(-1, 5)}),
        max_size=2,
    ),
    "verdict": st.sampled_from(["accept", "reject", "maybe"]),
    "reviewer": st.text(max_size=5),
    "timestamp": st.text(max_size=5),
    "force": st.booleans(),
}
# each parser's required and optional fields
FIELDS = {
    record_to_entry: (("phrase",), ("pos", "senses", "tags", "status", "note", "source")),
    record_to_candidate: (("phrase", "occurrences"), ("tags", "criteria", "status")),
    record_to_decision: (
        ("phrase", "verdict"), ("tags", "reviewer", "timestamp", "note", "force")
    ),
}


def records(parse) -> st.SearchStrategy:
    """Any JSON value, or an object of mostly plausible fields for parse."""
    required, optional = FIELDS[parse]
    field = {key: PLAUSIBLE[key] | JSON_VALUES for key in PLAUSIBLE}
    return JSON_VALUES | st.fixed_dictionaries(
        {key: field[key] for key in required},
        optional={**{key: field[key] for key in optional}, "stray": JSON_VALUES},
    )


@pytest.mark.parametrize("parse", list(FIELDS), ids=lambda f: f.__name__)
@settings(max_examples=200, database=None, deadline=None)
@given(data=st.data())
def test_record_parsers_return_or_raise_kaburlint_error(parse, data):
    record = data.draw(records(parse))
    try:
        parse(record, "q.jsonl:1")
    except KaburlintError as exc:
        assert str(exc).startswith("q.jsonl:1: ")


@settings(max_examples=100, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.binary(max_size=60) | st.lists(st.sampled_from(list(FIELDS)).flatmap(records), max_size=3).map(
    lambda rs: "".join(json.dumps(r) + "\n" for r in rs).encode("utf-8")))
def test_jsonl_loaders_raise_only_kaburlint_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.jsonl"
        path.write_bytes(data)
        for load in (load_lexicon, load_candidates, load_audit):
            try:
                load(path)
            except KaburlintError:
                pass
