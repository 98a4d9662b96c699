"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_printed(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert result["correct"] is True
    assert result["attempted"] >= 1


def test_a_wrong_expectation_is_counted():
    ops = workloads.mutant_ops(workloads.mutants_setup(random.Random(5), tiny=True))
    honest = run.Tally()
    run.run_pass(workloads, ops, honest)
    # label one in-carrier mutant valid: its report fails, so the gate must fire
    i = next(k for k, op in enumerate(ops) if "/product#" in op.name)
    lied = ops[:i] + [replace(ops[i], check=workloads.expect_report(True))] + ops[i + 1:]
    tally = run.Tally()
    run.run_pass(workloads, lied, tally)
    assert honest.correct
    assert tally.failed == honest.failed + 1
    assert tally.incorrect == honest.incorrect + 1
    assert tally.failed / tally.attempted > honest.failed / honest.attempted
    assert tally.problems[ops[i].name] == "verdict FAIL, expected PASS"


def _gate(op) -> run.Tally:
    tally = run.Tally()
    tally.add(workloads.run_op(op, {}, run.time.perf_counter))
    return tally


def _raise(exc):
    def call(ctx):
        raise exc

    return call


@pytest.mark.parametrize("exc", [workloads.G.GroupoidError("boom"), ValueError("boom"),
                                 KeyError("boom")])
def test_a_raise_on_valid_input_makes_the_run_incorrect(exc):
    ops = workloads.dense_ops(workloads.dense_setup(random.Random(5), tiny=True))
    op = next(op for op in ops if op.kind == "check_group_groupoid")
    tally = _gate(replace(op, call=_raise(exc)))
    assert (tally.failed, tally.incorrect, tally.correct) == (1, 1, False)


@pytest.mark.parametrize("result", [workloads.CliResult(2, b"", b"error: boom\n"),
                                    workloads.CliResult(1, b"", b"Traceback ...\nKeyError\n")])
def test_a_cli_error_exit_makes_the_run_incorrect(result):
    ops = workloads.ladder_ops(lambda args: result, HERE, random.Random(5), tiny=True)
    op = next(op for op in ops if op.kind == "check")
    tally = _gate(op)
    assert (tally.failed, tally.incorrect, tally.correct) == (1, 1, False)


def test_only_the_known_crash_is_tolerated():
    ops = workloads.mutant_ops(workloads.mutants_setup(random.Random(5), tiny=True))
    tally = run.Tally()
    run.run_pass(workloads, ops, tally)
    outside = [op for op in ops if op.kind == workloads.KNOWN_DEFECT_KIND]
    # at seed every outside-carrier operation raises; all others pass their gate
    assert tally.correct
    assert tally.failed == len(outside) > 0
    assert set(tally.problems) == {op.name for op in outside}
    # the same raise on another kind of mutant, or another exception on this
    # kind, is a wrong answer
    assert not _gate(replace(outside[0], kind="product")).correct
    assert not _gate(replace(outside[0], call=_raise(ZeroDivisionError("boom")))).correct


def test_refuses_to_run_without_the_package():
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _bench("--workload", "mutants", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
