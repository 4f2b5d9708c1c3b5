"""Self-tests of the benchmark: generator determinism, metric coverage, gate."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.05


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    trees = []
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.generate(name, seed, tmp_path / label, run.DATA, TINY)
        trees.append(_tree(tmp_path / label))
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


def test_benchmark_json_lists_the_runner_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.SHAPES)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.LAYER_UNITS)


@pytest.fixture(scope="module")
def tiny_results(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("work")
    return {
        (name, trace): run.run(name, 1, 0, trace, workdir, TINY)[0]
        for name in workloads.SHAPES
        for trace in (False, True)
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_tiny_run_emits_every_metric_and_passes_the_gate(tiny_results, name, trace):
    result = tiny_results[(name, trace)]
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def test_traced_counts_show_the_workload_shapes(tiny_results):
    layer = {name: tiny_results[(name, True)]["metrics"] for name in workloads.SHAPES}
    assert layer["many_small"]["textcore.ascii_doc_share"]["value"] == 1.0
    assert layer["big_doc"]["textcore.ascii_doc_share"]["value"] == 0.0
    assert (
        layer["curate"]["lexicon.max_phrase_len"]["value"]
        > layer["many_small"]["lexicon.max_phrase_len"]["value"]
    )


@pytest.mark.parametrize(
    "field, change, message",
    [
        ("inserted", lambda ref: {**ref.inserted, "segera": ref.inserted.get("segera", 0) + 1}, "warnings"),
        ("accepted", lambda ref: ref.accepted + 1, "stats: n ="),
    ],
)
def test_wrong_reference_count_fails_the_gate(tmp_path, field, change, message):
    w = run.Workload("many_small", 1, tmp_path, TINY)
    w.ref = dataclasses.replace(w.ref, **{field: change(w.ref)})
    run.measure_e2e(w, 0)
    assert any(message in failure for failure in w.failures)


def test_exits_without_result_when_kaburlint_is_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
