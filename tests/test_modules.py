"""What each command loads, and the module names the benchmark reads.

review and stats run without the text and analysis layers, lint without
curation, and extract and map without the linter (the dictionary heuristics
they share with lint are lexicon's); each command is checked in a fresh
interpreter. The benchmark's
setup probe times load_config + load_resources just after importing
kaburlint.config, so neither may import a module at call time. Its traced
run rebinds the functions that perfbench/replay.py's TRACED list names, on
the module the list names.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kaburlint import curation, extraction, records, textcore
from kaburlint.cli import main
from kaburlint.config import Config

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DECISIONS = ROOT / "tests" / "golden" / "input.decisions.jsonl"

# argv[1] is a file for the names of the kaburlint modules loaded, the rest
# the command
COMMAND_PROBE = """\
import sys
from kaburlint.cli import main
rc = main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    out.write(" ".join(sorted(m for m in sys.modules if m.startswith("kaburlint."))))
sys.exit(rc)
"""
SETUP_PROBE = """\
import sys
from kaburlint.config import load_config, load_resources
before = set(sys.modules)
load_resources(load_config(sys.argv[1]))
print(sorted(before ^ set(sys.modules)))
"""


def fresh_python(code: str, *args, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], cwd=cwd, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


@pytest.fixture
def tree(tmp_path: Path, capsys) -> Path:
    """The init tree with the queue extract writes from its samples."""
    root = tmp_path / "seed"
    assert main(["init", str(root)]) == 0
    assert main(["extract", "--config", str(root / "kaburlint.conf"), str(root / "sample"),
                 "-o", str(root / "queue.jsonl")]) == 0
    capsys.readouterr()
    return root


@pytest.mark.parametrize("command, rc, loads, never", [
    (["review", "--config", "kaburlint.conf", "queue.jsonl", "--decisions", str(DECISIONS)],
     0, "curation", ("textcore", "analyzer", "extraction")),
    (["stats", "--config", "kaburlint.conf"], 0, "stats", ("textcore", "analyzer", "extraction")),
    (["lint", "--config", "kaburlint.conf", "sample/daftar_pelajar.txt"],
     1, "analyzer", ("extraction", "curation", "stats")),
    (["extract", "--config", "kaburlint.conf", "sample", "-o", "extracted.jsonl"],
     0, "extraction", ("analyzer", "stats")),
    (["map", "--config", "kaburlint.conf", "queue.jsonl", "-o", "mapped.jsonl"],
     0, "extraction", ("analyzer", "stats")),
], ids=["review", "stats", "lint", "extract", "map"])
def test_a_command_loads_only_the_modules_it_runs(tree, command, rc, loads, never):
    done = fresh_python(COMMAND_PROBE, tree / "modules.txt", *command, cwd=tree)
    assert done.returncode == rc, done.stderr
    loaded = set((tree / "modules.txt").read_text().split())
    assert f"kaburlint.{loads}" in loaded
    assert loaded.isdisjoint(f"kaburlint.{name}" for name in never)


def test_setup_imports_nothing_at_call_time(tree):
    # the init config sets every path key; a config of the lexicon alone
    # leaves each optional file to its default
    conf = tree / "kaburlint.conf"
    keys = {line.partition("=")[0].strip() for line in conf.read_text().splitlines()}
    assert {key for key, default in Config._defaults.items() if default is None} <= keys
    (tree / "lexicon_only.conf").write_text("lexicon = lexicon.jsonl\n", encoding="utf-8")
    for name in ("kaburlint.conf", "lexicon_only.conf"):
        done = fresh_python(SETUP_PROBE, name, cwd=tree)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_names_the_traced_run_reads_are_the_defining_objects(monkeypatch):
    for name in ("load_candidates", "save_candidates", "record_decision", "append_audit"):
        assert getattr(extraction, name) is getattr(curation, name)
    for name in ("Span", "Record"):
        assert getattr(textcore, name) is getattr(records, name)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    replay = importlib.import_module("replay")
    for module, name, _span, _counts in replay.TRACED:
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"
