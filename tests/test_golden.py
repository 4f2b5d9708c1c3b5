"""Byte stability: reports on the `init` seed tree equal the committed goldens.

Each command runs through `kaburlint.cli.main` with the seed tree as the
working directory and relative paths, so no output names a temporary
directory. The stdout of `init` and of `review` names the target directory
and is not compared. `review` applies the committed batch file
`golden/input.decisions.jsonl` (fixed reviewers and timestamps, forced
decisions over the verified seed lexicon). It writes the audit log and the
lexicon, never the queue, which holds no verdict: after the review the
queue still has the bytes `extract` wrote. `map` then remaps that queue
against the reviewed lexicon.

The two seed samples are ASCII with LF line ends, so `lint` also reads
`golden/input.spec.txt`, copied into the tree as `spec.txt`: a BOM, CRLF line
ends, diacritics, typographic quotes, em-dashes and surfaces repeated within
a line, so that its reports pin byte offsets and line:col past multibyte
characters.

After an intended output change, rewrite the goldens with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from kaburlint.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
CONF = "kaburlint.conf"
DOCS = ("sample/daftar_pelajar.txt", "sample/sistem_klinik.txt")
DECISIONS = str(GOLDEN_DIR / "input.decisions.jsonl")
SPEC = "spec.txt"  # a copy of golden/input.spec.txt

# golden file -> (argv, expected exit code, file whose bytes are the output;
# None means stdout). Run in this order: extract writes the queue first, and
# review changes the lexicon after lint and stats have read it.
COMMANDS = {
    "extract.stdout.txt": (["extract", "--config", CONF, "sample", "-o", "queue.jsonl"], 0, None),
    "extract.queue.jsonl": (None, 0, "queue.jsonl"),
    "lint.txt": (["lint", "--config", CONF, *DOCS], 1, None),
    "lint.csv": (["lint", "--config", CONF, "--format", "csv", *DOCS], 1, None),
    "lint.records.jsonl": (["lint", "--config", CONF, "--format", "records", *DOCS], 1, None),
    "lint.spec.txt": (["lint", "--config", CONF, SPEC], 1, None),
    "lint.spec.csv": (["lint", "--config", CONF, "--format", "csv", SPEC], 1, None),
    "lint.spec.records.jsonl": (["lint", "--config", CONF, "--format", "records", SPEC], 1, None),
    "stats.txt": (["stats", "--config", CONF], 0, None),
    "stats.csv": (["stats", "--config", CONF, "--format", "csv"], 0, None),
    "review.lexicon.jsonl": (
        ["review", "--config", CONF, "queue.jsonl", "--decisions", DECISIONS,
         "--reviewer", "penyemak"],
        0,
        "lexicon.jsonl",
    ),
    "review.audit.jsonl": (None, 0, "audit.jsonl"),
    "map.queue.jsonl": (["map", "--config", CONF, "queue.jsonl", "-o", "mapped.jsonl"], 0, "mapped.jsonl"),
}


def run_commands(root: Path) -> dict[str, bytes]:
    """Seed root, run COMMANDS inside it and return each golden's bytes."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["init", str(root)]) == 0
    shutil.copyfile(GOLDEN_DIR / "input.spec.txt", root / SPEC)
    outputs = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, (argv, expected_rc, output_file) in COMMANDS.items():
            if argv is not None:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    rc = main(argv)
                assert rc == expected_rc, (name, rc)
            if output_file is None:
                outputs[name] = stdout.getvalue().encode("utf-8")
            else:
                outputs[name] = Path(output_file).read_bytes()
    finally:
        os.chdir(cwd)
    return outputs


def test_seed_tree_outputs_match_goldens(tmp_path):
    outputs = run_commands(tmp_path / "ws")
    differ = [n for n, data in outputs.items() if data != (GOLDEN_DIR / n).read_bytes()]
    assert differ == []
    # review left the queue as extract wrote it
    queue = (tmp_path / "ws" / "queue.jsonl").read_bytes()
    assert queue == (GOLDEN_DIR / "extract.queue.jsonl").read_bytes()


def test_map_of_the_queue_before_review_matches_the_mapped_golden(tmp_path):
    # the queue extract wrote, as a queue written before the lexicon alone
    # held verdicts lists it: each row with a stale "status", which map drops
    root = tmp_path / "ws"
    run_commands(root)
    stale = root / "stale.jsonl"
    lines = (GOLDEN_DIR / "extract.queue.jsonl").read_text(encoding="utf-8").splitlines()
    stale.write_text(
        "".join(line[:-1] + ', "status": "pending"}\n' for line in lines), encoding="utf-8"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["map", "--config", str(root / CONF), str(stale)]) == 0
    assert stale.read_bytes() == (GOLDEN_DIR / "map.queue.jsonl").read_bytes()


def test_csv_and_records_offsets_count_a_crlf_as_one_byte():
    # start/end are bytes of the text as read: the BOM is 3 bytes, and each
    # "\r\n" the one "\n" byte it is read as; so past the first line end they
    # are not offsets into the file, whose line ends are CRLF
    raw = (GOLDEN_DIR / "input.spec.txt").read_bytes()
    read = (GOLDEN_DIR / "input.spec.txt").read_text(encoding="utf-8").encode("utf-8")
    assert raw.startswith(b"\xef\xbb\xbf") and read == raw.replace(b"\r\n", b"\n")
    records = [
        json.loads(line)
        for line in (GOLDEN_DIR / "lint.spec.records.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    with open(GOLDEN_DIR / "lint.spec.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["start"], r["end"]) for r in records] == [
        (int(row["start"]), int(row["end"])) for row in rows
    ]
    for record in records:
        assert read[record["start"]:record["end"]].decode("utf-8") == record["matched"]
    semak = next(r for r in records if r["matched"] == "semak")
    assert (semak["start"], semak["end"]) == (105, 110)
    assert raw.find(b"semak") == 106 and raw[105:110] != b"semak"


def _rewrite_goldens() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_commands(Path(tmp) / "ws")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, data in outputs.items():
        (GOLDEN_DIR / name).write_bytes(data)
        print(f"wrote {GOLDEN_DIR / name} ({len(data)} bytes)")


if __name__ == "__main__":
    _rewrite_goldens()
