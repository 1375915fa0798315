"""Tests of the benchmark itself: its output check catches a wrong line,
every workload runs error-free at a tiny size, the per-layer counts repeat
exactly for the same seed, and the command keeps the BENCHMARK.json contract.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import reference
import run
import workloads

TINY = 0.05
SEED = 5
COUNTS = (
    "syntax.tokens", "evaluator.calls", "promises.created",
    "promises.evaluations", "trace.events", "maclang.scan_calls",
    "maclang.refs_resolved", "maclang.stores", "lab.jsonl_bytes",
)


def tiny_cases(workload: str) -> list[workloads.Case]:
    cases = workloads.build(workload, SEED, TINY)
    workloads.attach_expected(cases)
    return cases


def test_reference_evaluates_defaults_and_named_arguments():
    source = ("g0 <- 4\n"
              "f <- function(p0 = g0 * 2, p1 = p0 + 1, p2 = 3) {\n"
              "  print(c(p0, p1, p2))\n"
              "  p0 - p1 * p2\n"
              "}\n"
              "r <- f(5, p2 = (g0 + 1) * 2)\n"
              "print(r)\n")
    assert reference.print_lines(source) == ["5 6 10", "-55"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_error_free_and_check_catches_a_corrupted_line(workload):
    runs = run.runs_of(tiny_cases(workload))
    assert run.self_check(runs)
    _, _, attempted, failed = run.measure(runs, 0)
    assert attempted == 2 * len(runs)
    assert failed == 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_per_layer_counts_repeat_for_the_same_seed(workload):
    first, _, failed = run.per_layer(workload, SEED, 0, tiny_cases(workload))
    second, _, _ = run.per_layer(workload, SEED, 0, tiny_cases(workload))
    assert failed == 0
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_need_hits_its_cache_on_call_chain():
    metrics, _, _ = run.per_layer("call_chain", SEED, 0, tiny_cases("call_chain"))
    assert metrics["promises.cache_hit_ratio"] > 0


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "macro_store",
         "--seed", "2", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in run.spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
