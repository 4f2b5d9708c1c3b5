"""A review that fails part way is recovered by running it once more.

review writes in a fixed order: it appends the batch to the audit log and
flushes it to disk, then saves the lexicon, flushed and renamed into place
(fileio.write_atomic). It never writes the queue, which holds no verdict.
So a review makes three os.fsync calls (the log, the lexicon and its
directory) and one os.replace call. Here each of them fails in turn, on
the golden batch over a fresh init + extract tree, and so does an audit
append that stores only a prefix of the batch (a torn write). The failed
run exits 2. One retry must then give the stdout and lexicon of a run
without a fault, and the audit log, which then holds the batch more than
once, must replay over the initial lexicon to the saved one. Neither the
failed run nor the retry changes a byte of the queue extract wrote.

The golden decisions are forced. The same batch without its force flags,
on a tree where its phrases are still candidates, shows that the recovery
rule (a decision whose outcome the lexicon already holds is a no-op), and
not --force, is what lets a retry pass once the lexicon was saved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from kaburlint.cli import main
from kaburlint.curation import load_audit, replay_audit
from kaburlint.lexicon import dumps_lexicon, load_lexicon, normalize_phrase, save_lexicon
from record_replace import replace

GOLDEN_BATCH = Path(__file__).parent / "golden" / "input.decisions.jsonl"
REVIEW = ["review", "--config", "kaburlint.conf", "queue.jsonl",
          "--decisions", "decisions.jsonl", "--reviewer", "penyemak"]
FILES = ("lexicon.jsonl",)

# (os function, which call fails); the lexicon is saved by the replace,
# which comes before the third fsync (its directory's), so only a failure
# of that fsync leaves it saved
FAULTS = [("replace", 1), *(("fsync", k) for k in range(1, 4))]
LEXICON_SAVED = {("fsync", 3)}
# where a torn append cuts the batch: one byte; inside, and just after, the
# first record; all but the last newline
TORN_CUTS = {
    "one byte": lambda batch: 1,
    "inside the first record": lambda batch: batch.index(b"\n") // 2,
    "after the first record": lambda batch: batch.index(b"\n") + 1,
    "all but the last newline": lambda batch: len(batch) - 1,
}


def make_tree(root: Path, batch: str) -> None:
    """The init tree with the golden batch as decisions.jsonl, and the queue extract writes.

    An "unforced" batch drops the force flags, and the lexicon holds its
    phrases as candidates, undecided.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["init", str(root)]) == 0
    lines = GOLDEN_BATCH.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    if batch == "unforced":
        lexicon = load_lexicon(root / "lexicon.jsonl")
        for record in records:
            del record["force"]
            entry = lexicon.get(normalize_phrase(record["phrase"]))
            lexicon.replace(replace(entry, status="candidate"))
        save_lexicon(lexicon, root / "lexicon.jsonl")
    (root / "decisions.jsonl").write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        argv = ["extract", "--config", str(root / "kaburlint.conf"), str(root / "sample"),
                "-o", str(root / "queue.jsonl")]
        assert main(argv) == 0


def tree(tmp_path: Path, monkeypatch, batch: str) -> tuple[Path, Path]:
    """A fresh tree as the working directory, and a copy of its lexicon before review.

    Beside that copy, extracted.jsonl is a copy of the queue extract wrote.
    """
    root = tmp_path / "ws"
    make_tree(root, batch)
    monkeypatch.chdir(root)
    initial = tmp_path / "initial.jsonl"
    initial.write_bytes((root / "lexicon.jsonl").read_bytes())
    initial.with_name("extracted.jsonl").write_bytes((root / "queue.jsonl").read_bytes())
    return root, initial


def assert_queue_as_extracted(root: Path, initial: Path) -> None:
    assert (root / "queue.jsonl").read_bytes() == initial.with_name("extracted.jsonl").read_bytes()


def review(capsys, root: Path) -> tuple[int, str, str]:
    rc = main(REVIEW)
    out, err = capsys.readouterr()
    return rc, out.replace(str(root), "<root>"), err


def fail_at(monkeypatch, name: str, k: int, before=None) -> None:
    """Make the k-th call of os.<name> raise OSError("injected"), after before(*args)."""
    original = getattr(os, name)
    calls = 0

    def call(*args):
        nonlocal calls
        calls += 1
        if calls == k:
            if before is not None:
                before(*args)
            raise OSError("injected")
        return original(*args)

    monkeypatch.setattr(os, name, call)


class Clean(NamedTuple):
    """A batch kind and what its review gives without a fault."""

    kind: str
    out: str
    files: dict[str, bytes]
    audit: bytes  # the batch as one review appends it to a new log


@pytest.fixture(scope="module", params=["forced", "unforced"])
def batch(request, tmp_path_factory) -> Clean:
    root = tmp_path_factory.mktemp(request.param) / "ws"
    make_tree(root, request.param)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(REVIEW) == 0
    finally:
        os.chdir(cwd)
    clean = {name: (root / name).read_bytes() for name in FILES}
    audit = (root / "audit.jsonl").read_bytes()
    return Clean(request.param, out.getvalue().replace(str(root), "<root>"), clean, audit)


def assert_one_retry_recovers(capsys, root: Path, batch: Clean, initial: Path, torn=0) -> None:
    """One more review gives the clean run's stdout and files; the log replays to them."""
    rc, out, err = review(capsys, root)
    assert (rc, out) == (0, batch.out)
    if torn:
        assert f"dropped a torn last line ({torn} bytes)" in err
    else:
        assert err == ""
    assert {name: (root / name).read_bytes() for name in FILES} == batch.files
    assert_queue_as_extracted(root, initial)
    replayed = replay_audit(load_lexicon(initial), load_audit(root / "audit.jsonl"))
    assert dumps_lexicon(replayed).encode("utf-8") == batch.files["lexicon.jsonl"]


def test_a_review_makes_the_calls_the_faults_cover(tmp_path, capsys, monkeypatch, batch):
    root, initial = tree(tmp_path, monkeypatch, batch.kind)
    calls = Counter()

    def counting(name):
        original = getattr(os, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    for name in ("fsync", "replace"):
        monkeypatch.setattr(os, name, counting(name))
    assert review(capsys, root)[:2] == (0, batch.out)
    assert calls == Counter(name for name, _k in FAULTS) == {"fsync": 3, "replace": 1}
    assert_queue_as_extracted(root, initial)


@pytest.mark.parametrize("fault", FAULTS, ids=[f"{name}-{k}" for name, k in FAULTS])
def test_one_retry_recovers_a_review_whose_write_failed(
    tmp_path, capsys, monkeypatch, batch, fault
):
    root, initial = tree(tmp_path, monkeypatch, batch.kind)
    with monkeypatch.context() as patch:
        fail_at(patch, *fault)
        assert review(capsys, root) == (2, "", "kaburlint: error: injected\n")
    lexicon = (root / "lexicon.jsonl").read_bytes()
    if fault in LEXICON_SAVED:
        assert lexicon == batch.files["lexicon.jsonl"]
    else:
        assert lexicon == initial.read_bytes()
    assert_queue_as_extracted(root, initial)
    assert_one_retry_recovers(capsys, root, batch, initial)


@pytest.mark.parametrize("cut", sorted(TORN_CUTS))
def test_one_retry_recovers_a_review_whose_audit_append_was_torn(
    tmp_path, capsys, monkeypatch, batch, cut
):
    root, initial = tree(tmp_path, monkeypatch, batch.kind)
    logged = batch.audit
    size = TORN_CUTS[cut](logged)
    # the first fsync is the append's: only the first size bytes reached the disk
    with monkeypatch.context() as patch:
        fail_at(patch, "fsync", 1, before=lambda fd: os.ftruncate(fd, size))
        assert review(capsys, root) == (2, "", "kaburlint: error: injected\n")
    assert (root / "audit.jsonl").read_bytes() == logged[:size]
    assert (root / "lexicon.jsonl").read_bytes() == initial.read_bytes()
    assert_queue_as_extracted(root, initial)
    torn = size - (logged.rfind(b"\n", 0, size) + 1)
    assert_one_retry_recovers(capsys, root, batch, initial, torn)
