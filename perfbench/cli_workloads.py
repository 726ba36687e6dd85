"""The two CLI workloads: a cold and a warm ``run-all --profile quick``.

``cold_quick`` runs the pipeline into an empty cache directory: almost
all of its time is simulation (functional engine, timing core), artifact
stores and the fork pool.  ``warm_quick`` replays the same command over
a cache primed during set-up, so nothing is simulated and the time goes
to interpreter start-up, artifact reads and figure assembly.  Every
invocation is a fresh process with ``--jobs 2``.  A run repeats whole
invocations while the next one is expected to end within ``--seconds``
(always at least one), and every ``--json`` manifest must match the
pinned digest in ``quick_manifest.sha256``.
"""

from __future__ import annotations

import hashlib
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from common import (
    BenchError,
    compile_sources,
    main_entry_time,
    program_env,
    reap,
    repro_command,
)
from layers import collect
from report import Run, span_metrics

PINNED_DIGEST = (
    (Path(__file__).resolve().parent / "quick_manifest.sha256")
    .read_text(encoding="ascii").split()[0]
)
RUN_ALL = ["run-all", "--profile", "quick", "--jobs", "2"]

#: Latency limits for ``slo_met_frac``: a cold run-all and a replay.
COLD_LIMIT_S = 60.0
WARM_LIMIT_S = 5.0

#: Set-up repetitions for ``cold_quick`` (its set-up is cheap).
SETUP_REPEATS = 5


@dataclass
class Invocation:
    wall_s: float
    ok: bool
    cpu_s: float
    peak_rss_mb: float
    import_s: Optional[float]


def run_all(work: Path, cache_dir: Path, name: str,
            trace_dir: Optional[Path] = None) -> Invocation:
    """One ``run-all`` process; checks its exit code and manifest."""
    manifest = work / f"{name}.json"
    log = work / f"{name}.log"
    command = repro_command(
        RUN_ALL + ["--cache-dir", str(cache_dir), "--json", str(manifest)],
        trace_dir,
    )
    with open(log, "wb") as stderr:
        spawned = time.monotonic()
        process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=stderr,
            env=program_env(),
        )
        ended = reap(process)
        wall_s = time.monotonic() - spawned
    ok = ended.code == 0 and manifest.is_file() and (
        hashlib.sha256(manifest.read_bytes()).hexdigest() == PINNED_DIGEST
    )
    import_s = None
    if trace_dir is not None:
        entered = main_entry_time(trace_dir)
        if entered is not None:
            import_s = entered - spawned
    return Invocation(wall_s, ok, ended.cpu_s, ended.peak_rss_mb, import_s)


def _repeat(seconds: float, once) -> List[Invocation]:
    """Call ``once(i)`` while the next call should end within ``seconds``."""
    runs: List[Invocation] = []
    started = time.monotonic()
    while True:
        runs.append(once(len(runs)))
        elapsed = time.monotonic() - started
        if elapsed + runs[-1].wall_s > seconds:
            return runs


def _result(setup_s: float, runs: List[Invocation], limit_s: float,
            trace_dirs: Optional[List[Path]]) -> Run:
    walls = [invocation.wall_s for invocation in runs]
    result = Run(
        attempted=len(runs),
        failed=sum(not invocation.ok for invocation in runs),
        setup_s=setup_s,
        latency_p50_ms=statistics.median(walls) * 1000.0,
        cpu_s=statistics.median(invocation.cpu_s for invocation in runs),
        peak_rss_mb=max(invocation.peak_rss_mb for invocation in runs),
        slo_met_frac=sum(invocation.ok and invocation.wall_s <= limit_s
                         for invocation in runs) / len(runs),
        samples=walls,
    )
    if trace_dirs is not None:
        imports = [invocation.import_s for invocation in runs
                   if invocation.import_s is not None]
        result.layers = span_metrics(collect(*trace_dirs), len(runs))
        result.layers["process.import_s"] = (
            statistics.median(imports) if imports else 0.0)
    return result


def cold_quick(work: Path, seed: int, seconds: float, trace: bool) -> Run:
    del seed  # the quick profile is fixed; there is nothing to draw
    setups = []
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        compile_sources()
        (work / f"cache-setup-{attempt}").mkdir()
        setups.append(time.perf_counter() - started)
    trace_dirs: Optional[List[Path]] = [] if trace else None

    def once(index: int) -> Invocation:
        cache_dir = work / f"cache-{index}"
        cache_dir.mkdir()
        trace_dir = None
        if trace_dirs is not None:
            trace_dir = work / f"trace-{index}"
            trace_dir.mkdir()
            trace_dirs.append(trace_dir)
        return run_all(work, cache_dir, f"cold-{index}", trace_dir)

    runs = _repeat(seconds, once)
    return _result(statistics.median(setups), runs, COLD_LIMIT_S, trace_dirs)


def warm_quick(work: Path, seed: int, seconds: float, trace: bool) -> Run:
    del seed  # the quick profile is fixed; there is nothing to draw
    started = time.perf_counter()
    compile_sources()
    cache_dir = work / "cache"
    cache_dir.mkdir()
    prime = run_all(work, cache_dir, "prime")
    if not prime.ok:
        raise BenchError(f"priming run-all failed; see {work / 'prime.log'}")
    setup_s = time.perf_counter() - started
    trace_dirs: Optional[List[Path]] = [] if trace else None

    def once(index: int) -> Invocation:
        trace_dir = None
        if trace_dirs is not None:
            trace_dir = work / f"trace-{index}"
            trace_dir.mkdir()
            trace_dirs.append(trace_dir)
        return run_all(work, cache_dir, f"warm-{index}", trace_dir)

    runs = _repeat(seconds, once)
    return _result(setup_s, runs, WARM_LIMIT_S, trace_dirs)
