"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry point of each layer the benchmark
reports on, in the modules where callers look the names up:

* ``repro.experiments.runner`` binds ``get_program``, ``insert_edvi``,
  ``run_program`` and ``simulate`` by name at import, so those four are
  replaced in ``runner``'s namespace, not in their home modules;
* ``repro.experiments.sweep`` and ``repro.service.dispatcher`` bind
  ``execute`` by name; ``execute`` looks ``_worker_run`` up in
  ``repro.experiments.parallel`` on every call;
* ``ArtifactCache.lookup`` and ``ArtifactCache.store`` are methods, so
  the class attribute is replaced (the tiered cache inherits both);
* each ``EXPERIMENTS`` module's ``run`` and the CLI's ``render_manifest``.

A span's *self* time is its duration minus the durations of the spans
nested inside it on the same thread.  Each thread keeps its own span
stack; whenever a thread's outermost span closes, the per-layer totals
gathered since the last flush are appended as one JSON line to
``spans-<pid>.jsonl`` in the trace directory.  Flushing per outermost
call matters in pool workers: ``multiprocessing.Pool.__exit__``
terminates them, so an ``atexit`` hook would never run.  Forked workers
inherit the wrappers; a fork handler gives the child empty buffers and
a fresh span stack so nothing the parent had open is counted twice.

:func:`collect` sums every file in some trace directories into one totals
dict: ``{layer: {"calls": n, "self_s": s, "total_s": s, counter: n}}``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional

__all__ = ["Recorder", "install", "collect"]


class Recorder:
    """Span stacks per thread and layer totals per process."""

    def __init__(self, trace_dir: os.PathLike) -> None:
        self.trace_dir = Path(trace_dir)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._local = threading.local()
        self._pending: Dict[str, Dict[str, float]] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, fn: Callable, count: Optional[Callable] = None):
        """Wrap ``fn`` so every call records one ``layer`` span.

        ``count(args, result, elapsed)``, if given, returns extra
        counters to add to the layer's totals; it runs after the span
        has closed, so its own cost is not charged to the layer.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
            extra = count(args, result, elapsed) if count is not None else None
            recorder._add(layer, elapsed, elapsed - frame[0], extra)
            if not stack:
                recorder.flush()
            return result

        return wrapper

    def _add(self, layer: str, total: float, own: float,
             extra: Optional[Dict[str, float]]) -> None:
        with self._lock:
            totals = self._pending.setdefault(layer, {})
            totals["calls"] = totals.get("calls", 0) + 1
            totals["total_s"] = totals.get("total_s", 0.0) + total
            totals["self_s"] = totals.get("self_s", 0.0) + own
            for key, value in (extra or {}).items():
                totals[key] = totals.get(key, 0) + value

    def flush(self) -> None:
        """Append the totals gathered since the last flush."""
        with self._lock:
            pending, self._pending = self._pending, {}
        if not pending:
            return
        path = self.trace_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(pending, sort_keys=True) + "\n")


def _cache_file_bytes(cache, kind: str, digest: str) -> int:
    try:
        return os.path.getsize(cache._path(kind, digest))
    except OSError:
        return 0


def install(recorder: Recorder, serving: bool) -> None:
    """Wrap every traced layer entry point (see the module docstring).

    The service modules are imported, and their ``execute`` wrapped, only
    when ``serving``: the CLI pipeline never loads them.
    """
    from repro import __main__ as cli
    from repro.experiments import EXPERIMENTS, parallel, runner, sweep
    from repro.experiments.cache import ArtifactCache

    def functional_counts(args, result, elapsed):
        insts = result.stats.program_insts + result.stats.kill_insts
        return {"insts": insts}

    def timing_counts(args, result, elapsed):
        return {"insts": result.committed, "cycles": result.cycles}

    runner.get_program = recorder.span("workloads.build", runner.get_program)
    runner.insert_edvi = recorder.span("rewrite.edvi", runner.insert_edvi)
    runner.run_program = recorder.span(
        "sim.functional", runner.run_program, functional_counts)
    runner.simulate = recorder.span("sim.ooo", runner.simulate, timing_counts)

    def lookup_counts(args, result, elapsed):
        cache, kind, key = args[0], args[1], args[2]
        outcome = "hits" if result[0] else "misses"
        counts = {outcome: 1, f"{outcome}.{kind}": 1}
        if result[0]:
            counts["bytes"] = _cache_file_bytes(
                cache, kind, cache.digest(kind, key))
        return counts

    def store_counts(args, result, elapsed):
        cache, kind = args[0], args[1]
        return {f"stores.{kind}": 1,
                "bytes": _cache_file_bytes(cache, kind, result)}

    ArtifactCache.lookup = recorder.span(
        "experiments.cache.lookup", ArtifactCache.lookup, lookup_counts)
    ArtifactCache.store = recorder.span(
        "experiments.cache.store", ArtifactCache.store, store_counts)

    def execute_counts(args, result, elapsed):
        # A batch of one cell, or a context with jobs=1, runs in-process:
        # the caller's own thread is the one worker and is busy throughout.
        workers = min(args[1].jobs, result)
        return {"cells": result, "worker_wall_s": workers * elapsed,
                "serial_busy_s": elapsed if workers == 1 else 0.0}

    traced_execute = recorder.span(
        "experiments.parallel", parallel.execute, execute_counts)
    sweep.execute = traced_execute
    if serving:
        from repro.service import dispatcher

        dispatcher.execute = traced_execute
    parallel._worker_run = recorder.span(
        "experiments.parallel.worker", parallel._worker_run)

    for module, _ in EXPERIMENTS.values():
        module.run = recorder.span("experiments.figure", module.run)
    cli.render_manifest = recorder.span(
        "experiments.export", cli.render_manifest)


def collect(*trace_dirs: os.PathLike) -> Dict[str, Dict[str, float]]:
    """Sum every flushed totals line under the trace directories."""
    merged: Dict[str, Dict[str, float]] = {}
    paths = [path for trace_dir in trace_dirs
             for path in sorted(Path(trace_dir).glob("spans-*.jsonl"))]
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                for layer, totals in json.loads(line).items():
                    into = merged.setdefault(layer, {})
                    for key, value in totals.items():
                        into[key] = into.get(key, 0) + value
    return merged
