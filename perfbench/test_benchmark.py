"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``
(a few minutes: the exact-count tests make two traced runs each of
``cold_quick`` and ``served_cold``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import served  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr[-2000:]
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_reported_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == report.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == report.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == [
        "cold_quick", "warm_quick", "served_warm", "served_cold"]


@pytest.mark.parametrize("mix", [served.SERVED_WARM, served.SERVED_COLD])
def test_schedule_is_a_function_of_the_seed(mix):
    def key(jobs):
        return [(job.kind, job.cell, job.due) for job in jobs]

    first = served.schedule(7, mix, 15.0)
    assert key(first) == key(served.schedule(7, mix, 15.0))
    assert key(first) != key(served.schedule(8, mix, 15.0))
    cold = [job.cell for job in first if job.kind == "cold"]
    rounds = len(cold) // len(served.COLD_WORKLOADS)
    assert len(cold) == rounds * len(served.COLD_WORKLOADS)
    assert abs(len(cold) - mix.cold_per_s * 15.0) <= len(served.COLD_WORKLOADS) / 2
    assert {workload: rounds for workload in served.COLD_WORKLOADS} == {
        workload: sum(cell[0] == workload for cell in cold)
        for workload in served.COLD_WORKLOADS}
    assert len(set(cold)) == len(cold)
    assert not set(cold) & set(served.WARM_SET)
    assert all(0.0 <= job.due < 15.0 for job in first)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = _bench("--workload", "cold_quick", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout


#: Counts a change that only makes the simulator faster must leave
#: unchanged; two traced runs of one commit and seed must agree on them.
EXACT = (
    ["sim.ooo.calls", "sim.ooo.insts", "sim.ooo.cycles",
     "experiments.parallel.cells", "service.dispatcher.cells_executed"]
    + [f"experiments.cache.lookup.misses.{kind}" for kind in
       ("functional", "timed", "fig12_scheduler", "service")]
    + [f"experiments.cache.store.calls.{kind}" for kind in
       ("functional", "timed", "fig12_scheduler", "service")]
)
#: Counts of work on a cell's shared dependencies (binaries, traces).
SHARED = (
    ["sim.functional.calls", "sim.functional.insts",
     "workloads.build.calls", "rewrite.edvi.calls"]
    + [f"experiments.cache.lookup.misses.{kind}" for kind in
       ("binary", "trace")]
    + [f"experiments.cache.store.calls.{kind}" for kind in
       ("binary", "trace")]
)


def _traced_counts(workload: str, names) -> list:
    runs = [_result(_bench("--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    return [{name: run["metrics"][name]["value"] for name in names}
            for run in runs]


@pytest.mark.parametrize("workload", ["cold_quick", "served_cold"])
def test_exact_counts_repeat(workload):
    first, second = _traced_counts(workload, EXACT)
    assert first == second
    assert first["sim.ooo.insts"] > 0


def test_shared_dependency_counts_repeat_when_served():
    first, second = _traced_counts("served_cold", SHARED)
    assert first == second
    assert first["sim.functional.insts"] > 0


@pytest.mark.xfail(strict=False, reason=(
    "run-all --jobs 2 can build one binary or trace in both pool workers "
    "when both miss it on disk before either stores it, so these counts "
    "vary between runs of the same commit"))
def test_shared_dependency_counts_repeat_in_cold_run_all():
    first, second = _traced_counts("cold_quick", SHARED)
    assert first == second
