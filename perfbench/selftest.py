"""The benchmark's own tests, at tiny sizes so they finish in seconds.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps them out of the repository's default test run: they
test the benchmark, not arithex.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracer

SMALL = {"engine_max_n": 10, "verify_max_n": 3, "puzzles": 2, "builds": 1}
EXACT_SUFFIXES = (".calls", ".relabelings", ".forms", "partitions_visited", "term_products", "hits")


def exact_counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES)}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_exact_counts_repeat(workload):
    first = run.trace(workload, seed=3, size=SMALL)
    second = run.trace(workload, seed=3, size=SMALL)
    assert first["tally"].failed == second["tally"].failed == 0
    counts = exact_counts(first["metrics"])
    assert counts == exact_counts(second["metrics"])
    assert any(counts.values())
    assert set(first["metrics"]) == {n for n, _ in tracer.LAYER_METRICS + run.TRACE_METRICS}


def test_traced_layers_match_the_workload():
    engine = run.trace("engine", seed=1, size=SMALL)["metrics"]
    assert engine["partitions.partitions_visited"]["value"] > 0
    assert engine["counting.CategoryTable.cls.calls"]["value"] > 0
    assert engine["canon.combine.calls"]["value"] == 0  # predicted null
    solve = run.trace("solve5", seed=1, size=SMALL)["metrics"]
    assert solve["canon.eval_form.calls"]["value"] == 2 * 27142
    assert solve["canon.orbit_key.relabelings"]["value"] == 120 * solve["solver.hits"]["value"]
    assert solve["partitions.count_weighings.calls"]["value"] == 0  # predicted null


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end(workload):
    measured = run.measure(workload, seed=4, seconds=0.1, size=SMALL)
    assert measured["tally"].attempted >= 1
    assert measured["tally"].failed == 0
    metrics = run.end_to_end(measured)
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_checks_reject_wrong_outputs():
    ref = checks.load_reference()
    stdout = subprocess.run(
        [sys.executable, "-m", "arithex.cli", "count", "--max-n", "6"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=checks.SRC),
    ).stdout
    assert checks.check_engine(stdout, ref, 6) == []
    assert checks.check_engine(stdout.replace("totals: 1 4", "totals: 1 5"), ref, 6)
    lines = stdout.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("n=6")) + 1
    cell = lines[row].split()[1]  # the first-type "+" cell of level 6
    lines[row] = lines[row].replace(cell, str(int(cell) + 1), 1)
    assert checks.check_engine("\n".join(lines), ref, 6)
    assert checks.check_verify(0, "[ok] n=3 made-up\n", ref, 3)
    good = {"bad_witnesses": 0, "classes": 2, "solutions": 2, "keys": "abc"}
    assert checks.check_puzzle(good, "abc") == []
    assert checks.check_puzzle(dict(good, keys="abd"), "abc")
    assert checks.check_puzzle(dict(good, classes=1), "abc")
    assert checks.check_puzzle(dict(good, bad_witnesses=1), "abc")


def test_puzzle_stream_is_seeded_blocks():
    stream = run.puzzle_stream(7)
    assert stream == run.puzzle_stream(7) != run.puzzle_stream(8)
    assert all(p[1] == "inf" for p in stream[:: run.BLOCK])
    assert sum(p[1] == "inf" for p in stream) * run.BLOCK == len(stream)
    assert len({json.dumps(p[:2]) for p in stream}) == len(stream)
    puzzles = run.solve_run_puzzles(7)
    assert puzzles[:2] == stream[:: run.BLOCK][:2]
    assert not any(run.is_projective(p) for p in puzzles[2:])


def test_mix_mean_weighs_one_projective_in_a_block():
    assert run.mix_mean([1.0, 3.0, 10.0, 20.0], [False, False, True, True]) == (7 * 2.0 + 15.0) / 8
    assert run.mix_mean([1.0, 3.0], [False, False]) == 2.0


def test_partition_number():
    assert [tracer.partition_number(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert tracer.partition_number(30) == 5604


def test_benchmark_json_names_every_metric():
    with open(os.path.join(checks.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracer.LAYER_METRICS + run.TRACE_METRICS


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(checks.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(checks.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
