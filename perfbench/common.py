"""Helpers shared by the CLI and served workloads."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The checkout the benchmark runs in (this file is ``perfbench/common.py``).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


def check_checkout() -> None:
    """Fail unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "__main__.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run the "
                         "benchmark from a full checkout")


def program_env() -> Dict[str, str]:
    """The environment every program process runs with."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def repro_command(args: Sequence[str], trace_dir: Optional[Path] = None) -> List[str]:
    """``python -m repro ARGS``, or the traced wrapper around it."""
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(TRACED), str(trace_dir), *args]


def compile_sources() -> None:
    """Byte-compile the program: its build, and a quick check once built."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True, stdout=subprocess.DEVNULL, env=program_env(),
    )


def make_work_dir(workload: str, seed: int) -> Path:
    """A private scratch directory inside the checkout for one run."""
    path = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    if count <= 10:
        return 0
    return max(0, math.floor(100.0 * (1.0 - 10.0 / count)))


def main_entry_time(trace_dir: Path) -> Optional[float]:
    """When the traced process in ``trace_dir`` entered ``repro`` main."""
    for path in trace_dir.glob("main-*.json"):
        return json.loads(path.read_text(encoding="utf-8"))["main_entry"]
    return None


@dataclass
class Exit:
    """How a process ended, from ``wait4``.

    ``cpu_s`` and ``peak_rss_mb`` cover the process and every descendant
    it waited for (a pool's workers, say): user plus system CPU time,
    and the largest resident set any of them reached.  Both are exact,
    where sampling the process tree would miss short peaks.
    """

    code: int
    cpu_s: float
    peak_rss_mb: float


def reap(process: subprocess.Popen, timeout: Optional[float] = None) -> Exit:
    """Wait for ``process`` to exit (``TimeoutExpired`` after ``timeout``)."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(
            process.pid, 0 if deadline is None else os.WNOHANG)
        if pid:
            break
        if time.monotonic() >= deadline:
            raise subprocess.TimeoutExpired(process.args, timeout)
        time.sleep(0.02)
    process.returncode = os.waitstatus_to_exitcode(status)
    return Exit(process.returncode, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss * 1024 / 1e6)


def stop_process(process: subprocess.Popen, grace: float) -> Exit:
    """SIGTERM, wait up to ``grace`` seconds, then SIGKILL; see :func:`reap`."""
    process.terminate()
    try:
        return reap(process, grace)
    except subprocess.TimeoutExpired:
        process.kill()
    return reap(process)
