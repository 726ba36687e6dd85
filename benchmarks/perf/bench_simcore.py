#!/usr/bin/env python
"""Simulation-core performance harness.

Measures the throughput of the two simulation hot paths and the
end-to-end experiment pipeline, and writes the numbers to a JSON file
(``BENCH_simcore.json`` at the repo root by convention) so the perf
trajectory of the simulator is tracked in-tree, PR over PR:

* **functional** — simulated instructions per second of the functional
  emulator, with and without trace collection;
* **timing** — simulated instructions per second of the out-of-order
  core replaying a trace on the Figure 2 machine, for the first run on
  a fresh trace (which pays for the per-trace pre-passes) and for the
  best of the runs after it, under the C cycle loop (``timing``) and
  the Python loop (``timing_python``);
* **cells** (``--cells PROFILE``) — the cycle loop alone over every
  timing cell of a profile's experiments, pre-pass memos warm, under
  each loop;
* **superblocks** — the compiled shape of the hot workload (blocks,
  mean block length) and fused-dispatch vs per-pc-dispatch throughput;
* **run-all** — wall-clock seconds of ``python -m repro run-all`` on a
  chosen profile, cold (fresh cache directory; everything simulated and
  stored) and warm (second invocation; everything replayed from the
  artifact cache).

Usage::

    python benchmarks/perf/bench_simcore.py                  # quick profile
    python benchmarks/perf/bench_simcore.py --profile tiny   # CI-sized
    python benchmarks/perf/bench_simcore.py --skip-run-all   # hot loops only
    python benchmarks/perf/bench_simcore.py --cells quick    # + every quick cell
    python benchmarks/perf/bench_simcore.py --baseline old.json

``--baseline`` merges a previous output (e.g. one produced by running
this same script on the pre-optimization tree) into the report and
computes speedups; the committed ``BENCH_simcore.json`` records the
before/after of the C cycle loop, both sides measured on the same
machine.

The harness is intentionally import-light and API-stable (it only uses
``run_program``, ``simulate``, and the CLI) so the identical file can be
dropped onto older revisions of this repo to produce comparable
baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from datetime import date
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.dvi.config import DVIConfig  # noqa: E402
from repro.sim.config import MachineConfig  # noqa: E402
from repro.sim.functional import run_program  # noqa: E402
from repro.sim.ooo.core import simulate  # noqa: E402
from repro.workloads.suite import get_program  # noqa: E402

try:  # superblocks landed after the specialization rewrite; keep this
    # harness droppable onto older trees (the dimension is just skipped).
    from repro.sim.compile import compile_program  # noqa: E402
except ImportError:  # pragma: no cover - baseline revisions only
    compile_program = None

try:  # likewise the C cycle loop: older trees have only the Python loop.
    from repro.sim.ooo import native  # noqa: E402
except ImportError:  # pragma: no cover - baseline revisions only
    native = None

#: Workload used for the hot-loop measurements (procedure-heavy, mixed
#: ALU/memory/control — representative of the suite).
HOT_WORKLOAD = "li_like"
#: Repetitions for the hot-loop measurements; the best time is reported
#: (standard practice: the minimum is the least noise-contaminated).
REPEATS = 3


def _best(measure, repeats: int = REPEATS) -> float:
    return min(measure() for _ in range(repeats))


def bench_functional(*, collect_trace: bool) -> dict:
    program = get_program(HOT_WORKLOAD, 1)
    insts = 0

    def measure() -> float:
        nonlocal insts
        started = time.perf_counter()
        result = run_program(
            program, DVIConfig.none(), collect_trace=collect_trace
        )
        elapsed = time.perf_counter() - started
        insts = result.stats.program_insts
        return elapsed

    elapsed = _best(measure)
    return {
        "instructions": insts,
        "seconds": round(elapsed, 4),
        "insts_per_sec": round(insts / elapsed),
    }


def _select_loop(loop: str) -> str:
    """Make ``simulate`` run the named cycle loop; returns the one it will.

    The C loop is built (or loaded) here, so no timed run pays for it.
    """
    if loop == "python":
        os.environ["REPRO_NATIVE"] = "0"
        return "python"
    os.environ.pop("REPRO_NATIVE", None)
    if native is not None and native.cycle_loop() is not None:
        return "native"
    return "python"


def bench_timing(loop: str) -> dict:
    """Timing-core throughput on one trace, memo-cold and warm.

    The core memoizes its per-trace pre-passes (fetch events, renamed
    dataflow) on the trace, so the first run on a fresh trace pays for
    them and later runs under the same frontend do not.  Both are
    reported: ``first_run_*`` is the first run, ``seconds`` and
    ``insts_per_sec`` the best of the ``REPEATS`` runs after it, and
    ``trial_seconds`` lists those runs so their spread is on record.
    On a tree without the memo every run is a first run.
    """
    ran = _select_loop(loop)
    program = get_program(HOT_WORKLOAD, 1)
    trace = run_program(program, DVIConfig.none(), collect_trace=True).trace
    config = MachineConfig.micro97()
    committed = 0

    def measure() -> float:
        nonlocal committed
        started = time.perf_counter()
        stats = simulate(config, trace)
        elapsed = time.perf_counter() - started
        committed = stats.committed
        return elapsed

    first = measure()
    trials = [measure() for _ in range(REPEATS)]
    elapsed = min(trials)
    return {
        "loop": ran,
        "instructions": committed,
        "first_run_seconds": round(first, 4),
        "first_run_insts_per_sec": round(committed / first),
        "seconds": round(elapsed, 4),
        "insts_per_sec": round(committed / elapsed),
        "trial_seconds": [round(trial, 4) for trial in trials],
    }


def bench_superblocks() -> dict:
    """Fused-block dispatch vs pure per-pc dispatch, same workload.

    Reports the static shape of the compiled program (blocks, mean
    block length, fraction of static instructions inside fused runs)
    and the dynamic throughput of both dispatch modes, trace on — the
    configuration every experiment cell actually runs.
    """
    program = get_program(HOT_WORKLOAD, 1)
    compiled = compile_program(program)

    def measure(superblocks: bool):
        insts = 0

        def once() -> float:
            nonlocal insts
            started = time.perf_counter()
            result = run_program(
                program, DVIConfig.none(),
                collect_trace=True, superblocks=superblocks,
            )
            elapsed = time.perf_counter() - started
            insts = result.stats.program_insts
            return elapsed

        elapsed = _best(once)
        return insts, elapsed

    insts, fused = measure(True)
    _, per_pc = measure(False)
    return {
        "blocks_compiled": compiled.n_blocks,
        "mean_block_len": round(compiled.mean_block_len, 2),
        # Distinct static pcs reachable through fused dispatch (a control
        # transfer appears both as a block tail and as its own entry
        # block, so summed block lengths would overcount).
        "fused_static_coverage": round(
            len({
                pc
                for start, length in compiled.blocks
                for pc in range(start, start + length)
            }) / max(1, compiled.n), 3
        ),
        "instructions": insts,
        "fused_insts_per_sec": round(insts / fused),
        "per_pc_insts_per_sec": round(insts / per_pc),
        "fused_over_per_pc": round(per_pc / fused, 2),
    }


def bench_cells(profile_name: str) -> dict:
    """The cycle loop alone over every timing cell of a profile.

    Builds the profile's traces, warms each trace's pre-pass memos with
    one run per cell, then times ``simulate`` over all the cells under
    the Python loop once and under the C loop ``REPEATS`` times.
    """
    from repro.experiments import EXPERIMENTS
    from repro.experiments.runner import ExperimentContext, ExperimentProfile

    profile = ExperimentProfile.by_name(profile_name)
    context = ExperimentContext(profile)
    cells = {}
    for module, _ in EXPERIMENTS.values():
        for job in module.jobs(profile):
            if job.kind == "timed":
                cells.setdefault(context.memo_key(job), job)
    runs = [
        (job.machine, context.trace(job.workload, job.dvi,
                                    edvi_binary=job.edvi_binary))
        for job in cells.values()
    ]
    for config, trace in runs:
        simulate(config, trace)

    def measure() -> float:
        started = time.process_time()
        for config, trace in runs:
            simulate(config, trace)
        return time.process_time() - started

    report = {
        "profile": profile_name,
        "cells": len(runs),
        "rows": sum(len(trace) for _, trace in runs),
    }
    for loop, repeats in (("python", 1), ("native", REPEATS)):
        if _select_loop(loop) != loop:
            continue
        trials = [measure() for _ in range(repeats)]
        report[f"{loop}_cpu_seconds"] = [round(trial, 3) for trial in trials]
    if "native_cpu_seconds" in report:
        report["native_speedup"] = round(
            report["python_cpu_seconds"][0]
            / min(report["native_cpu_seconds"]), 1)
    os.environ.pop("REPRO_NATIVE", None)
    return report


def bench_run_all(profile: str) -> dict:
    """Cold then warm ``run-all`` wall time against a fresh cache dir."""
    cache_dir = tempfile.mkdtemp(prefix="bench-simcore-cache-")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable, "-m", "repro", "run-all",
        "--profile", profile, "--cache-dir", cache_dir,
    ]
    try:
        timings = []
        for _ in range(2):  # first: cold, second: warm replay
            started = time.perf_counter()
            subprocess.run(
                command, env=env, check=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            timings.append(time.perf_counter() - started)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "profile": profile,
        "cold_seconds": round(timings[0], 2),
        "warm_seconds": round(timings[1], 2),
    }


def _speedups(current: dict, baseline: dict) -> dict:
    """Baseline-over-current ratios for the headline numbers."""
    out = {}
    try:
        out["functional_insts_per_sec"] = round(
            current["functional_trace"]["insts_per_sec"]
            / baseline["functional_trace"]["insts_per_sec"], 2,
        )
        out["timing_insts_per_sec"] = round(
            current["timing"]["insts_per_sec"]
            / baseline["timing"]["insts_per_sec"], 2,
        )
        out["timing_first_run_insts_per_sec"] = round(
            current["timing"]["first_run_insts_per_sec"]
            / baseline["timing"]["first_run_insts_per_sec"], 2,
        )
    except (KeyError, ZeroDivisionError):
        pass
    try:
        out["cells_cycle_loop"] = round(
            baseline["cells"]["python_cpu_seconds"][0]
            / min(current["cells"]["native_cpu_seconds"]), 2,
        )
    except (KeyError, ZeroDivisionError):
        pass
    try:
        out["run_all_cold"] = round(
            baseline["run_all"]["cold_seconds"]
            / current["run_all"]["cold_seconds"], 2,
        )
        out["run_all_warm"] = round(
            baseline["run_all"]["warm_seconds"]
            / current["run_all"]["warm_seconds"], 2,
        )
    except (KeyError, ZeroDivisionError):
        pass
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", default="quick", choices=("tiny", "quick", "full"),
        help="run-all profile to measure (default: quick)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_simcore.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--skip-run-all", action="store_true",
        help="measure only the hot loops (no end-to-end pipeline runs)",
    )
    parser.add_argument(
        "--cells", metavar="PROFILE", choices=("tiny", "quick", "full"),
        help="also time the cycle loop alone over every timing cell of "
             "PROFILE, under each loop",
    )
    parser.add_argument(
        "--baseline", metavar="JSON",
        help="previous bench_simcore output to embed and compute speedups "
             "against",
    )
    args = parser.parse_args(argv)

    metrics = {}
    print("benchmarking functional emulator (trace on)...", flush=True)
    metrics["functional_trace"] = bench_functional(collect_trace=True)
    print("benchmarking functional emulator (trace off)...", flush=True)
    metrics["functional_no_trace"] = bench_functional(collect_trace=False)
    print("benchmarking out-of-order timing core (C loop)...", flush=True)
    metrics["timing"] = bench_timing("native")
    print("benchmarking out-of-order timing core (Python loop)...", flush=True)
    metrics["timing_python"] = bench_timing("python")
    os.environ.pop("REPRO_NATIVE", None)
    if args.cells:
        print(f"benchmarking the cycle loop over every {args.cells} timing "
              "cell...", flush=True)
        metrics["cells"] = bench_cells(args.cells)
    if compile_program is not None:
        print("benchmarking superblock dispatch (fused vs per-pc)...",
              flush=True)
        metrics["superblocks"] = bench_superblocks()
    if not args.skip_run_all:
        print(f"benchmarking run-all ({args.profile}, cold+warm)...", flush=True)
        metrics["run_all"] = bench_run_all(args.profile)

    report = {
        "bench": "simcore",
        "date": date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hot_workload": HOT_WORKLOAD,
        "metrics": metrics,
    }
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        report["baseline"] = baseline.get("metrics", baseline)
        report["speedup"] = _speedups(metrics, report["baseline"])

    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    Path(args.output).write_text(payload, encoding="utf-8")
    print(payload)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
