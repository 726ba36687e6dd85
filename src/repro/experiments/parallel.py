"""Execution of experiment sweeps: one rule, one contained executor.

Every figure's sweep decomposes into independent *cells*: one functional
or timing simulation of one (workload, DVI configuration, machine
configuration) point.  Experiment modules enumerate their cells as
:class:`Job` lists (their ``jobs(profile)`` functions); :func:`execute`
runs a job list to completion and merges every result back into the
parent :class:`~repro.experiments.runner.ExperimentContext` memo.

One rule picks where cells run.  When only one cell can run at a time
(no pool, ``context.jobs == 1`` or a single pending cell) and no
deadline is set, they run in-process, in order: the serial reference.
Every other case runs on a :class:`WorkerPool`, the one pool class:

* the service keeps one persistent pool for its lifetime;
* the CLI gets a per-call pool (fork where the platform has it: the CLI
  forks from a single-threaded parent, so workers inherit the loaded
  simulator for free);
* bisection and re-runs after a hang use throwaway pools.

Pooled execution is *contained*:

* each future is awaited with the optional wall-clock deadline; a cell
  that blows it is declared hung, the pool's processes are killed (a
  hung worker never exits on its own), and the *other* unfinished
  cells — innocent victims of the kill — are re-run on a fresh pool;
* a dead worker breaks the whole pool with an unknown culprit
  (futures that completed before the death keep their results, every
  other future raises :class:`BrokenProcessPool`), so a pool crash
  triggers **bisection**: the unfinished cells are split in half and
  each half re-executed on its own pool, recursively, until the poison
  cell is isolated in a singleton group.  Healthy batchmates complete
  along the way, each at most ``O(log batch)`` re-submissions, and a
  re-run of an already-completed cell is a cache hit.

Every cell that produced no result gets a :class:`CellFailure`
(``timeout`` / ``crash`` / ``error``): into the caller's
:class:`ContainedReport` when one is passed (the service turns failures
into bounded retries or quarantine), else raised as a
:class:`CellError` after the healthy cells are merged (the CLI).

Before fan-out, cells whose artifact is already readable on disk are
left out: the parent reads them itself during assembly, which is
cheaper than a worker reading and pickling them back.

Determinism: workers only *compute* cells; the parent merges results in
job-list order and every experiment assembles its figure from the warmed
context afterwards, in plain deterministic Python.  A parallel run is
therefore bit-identical to a serial one (the test suite asserts this).
Workers build their caches from the parent's directories (see
:meth:`~repro.experiments.cache.ArtifactCache.worker_copy`), so all
processes share one content-addressed store whose writes are atomic.

Deterministic fault injection (the faultsim harness) is zero-overhead
when off: if the ``REPRO_FAULTSIM_SPEC`` environment variable names a
JSON spec file, :func:`_worker_run` consults it *in the worker process*
before running each cell and can kill the process, hang, or raise at an
exact cell signature.  Unset, the check is one dict probe of
``os.environ`` per worker process.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import ArtifactCache, CacheCounters
from repro.experiments.runner import ExperimentContext, ExperimentProfile, Job
from repro.sim.ooo.native import cycle_loop

__all__ = [
    "FAULTSIM_ENV",
    "CellError",
    "CellFailure",
    "ContainedReport",
    "InjectedWorkerFault",
    "Job",
    "WorkerPool",
    "execute",
    "fault_fires",
]

#: Environment variable naming the fault-injection spec file (JSON).
#: Unset in production; ``tests/service/faultsim.py`` writes it.
FAULTSIM_ENV = "REPRO_FAULTSIM_SPEC"

#: Memo entries a worker's long-lived context may hold before it is
#: dropped (the shared disk cache keeps warmth; this only bounds the
#: footprint of a persistent pool's workers).
_WORKER_MEMO_CAP = 256

#: Start method of the per-call pool: fork where the platform has it.
_CALL_START = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


@dataclass
class CellFailure:
    """Why one cell produced no result.

    ``kind`` is ``"timeout"`` (blew the wall-clock deadline),
    ``"crash"`` (isolated as the cell whose execution kills the worker
    pool), or ``"error"`` (raised an ordinary exception).
    """

    signature: str
    kind: str
    detail: str


@dataclass
class ContainedReport:
    """What went wrong in one :func:`execute` call."""

    #: signature -> failure, for every cell that produced no result.
    failures: Dict[str, CellFailure] = field(default_factory=dict)
    #: Worker-pool deaths observed (>= 1 means at least one bisection
    #: round or an isolated poison cell).
    pool_crashes: int = 0
    #: Group splits performed while isolating poison cells.
    bisections: int = 0
    #: Cells that blew the wall-clock deadline.
    timeouts: int = 0

    def fail(self, cell: Job, kind: str, detail: str) -> None:
        signature = cell.signature()
        self.failures[signature] = CellFailure(signature, kind, detail)


class CellError(RuntimeError):
    """Cells of an :func:`execute` call that produced no result."""

    def __init__(self, cells: Sequence[Job], failures: Sequence[CellFailure]):
        self.failures = list(failures)
        super().__init__("; ".join(
            f"{cell.kind} cell {cell.workload} ({failure.signature}): "
            f"{failure.kind}: {failure.detail}"
            for cell, failure in zip(cells, self.failures)
        ))


class InjectedWorkerFault(RuntimeError):
    """The exception a ``raise``-mode injected fault throws in a worker."""


def _on_disk(job: Job, context: ExperimentContext) -> bool:
    """True if the cell's artifact is structurally complete on disk.

    A corrupt artifact fails the probe and is healed (unlinked), so
    its cell is recomputed rather than skipped.
    """
    kind, key = context.cell_key(job)
    cache = context.cache
    return cache.readable_digest(kind, cache.digest(kind, key))


# ----------------------------------------------------------------------
# Worker-side fault injection (active only under the faultsim harness).
# ----------------------------------------------------------------------

#: Per-worker-process cache of the parsed spec.
_FAULT_SPEC: Optional[dict] = None
_FAULT_SPEC_LOADED = False


def _fault_spec() -> Optional[dict]:
    global _FAULT_SPEC, _FAULT_SPEC_LOADED
    if not _FAULT_SPEC_LOADED:
        _FAULT_SPEC_LOADED = True
        path = os.environ.get(FAULTSIM_ENV)
        if path:
            with open(path, encoding="utf-8") as handle:
                _FAULT_SPEC = json.load(handle)
    return _FAULT_SPEC


def _fire_file(spec: dict, signature: str) -> str:
    return os.path.join(spec["state_dir"], f"{signature[:32]}.fires")


def fault_fires(spec_path: str, signature: str) -> int:
    """How many times the fault at ``signature`` has fired (harness API).

    Fires are counted as bytes of an append-only file in the spec's
    ``state_dir`` — one ``O_APPEND`` byte per fire — so the count
    survives the worker process that recorded it being killed a
    microsecond later.
    """
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        return os.path.getsize(_fire_file(spec, signature))
    except OSError:
        return 0


def _maybe_inject(job: Job) -> None:
    """Fire a configured fault for this cell, if any remain.

    ``max_fires`` bounds how often a fault fires (transient-failure
    scenarios); the bound is precise for the single-poison configs the
    harness uses — two workers racing the same fault's counter could
    each observe the last remaining fire.
    """
    spec = _fault_spec()
    if not spec:
        return
    fault = spec["faults"].get(job.signature())
    if fault is None:
        return
    path = _fire_file(spec, job.signature())
    max_fires = fault.get("max_fires")
    if max_fires is not None:
        try:
            fired = os.path.getsize(path)
        except OSError:
            fired = 0
        if fired >= max_fires:
            return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, b"x")
    finally:
        os.close(fd)
    mode = fault["mode"]
    if mode == "kill":
        os._exit(137)
    if mode == "hang":
        time.sleep(float(fault.get("hang_seconds", 3600.0)))
        return  # a bounded "hang" degrades to a delay
    if mode == "raise":
        raise InjectedWorkerFault(
            f"injected fault in {job.kind} cell for {job.workload!r}"
        )
    raise ValueError(f"unknown fault mode {mode!r}")


# ----------------------------------------------------------------------
# Worker processes.  Workers are profile-agnostic (the service runs
# requests of every profile on one pool): each task ships its profile,
# and the worker keeps one context per profile for its lifetime.
# ----------------------------------------------------------------------

#: Worker-process state, set by the pool initializer.
_WORKER_CACHE: Optional[ArtifactCache] = None
_WORKER_CONTEXTS: Dict[ExperimentProfile, ExperimentContext] = {}


def _pool_init(cache: Optional[ArtifactCache]) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = cache
    _WORKER_CONTEXTS.clear()


def _pool_probe() -> int:
    """No-op task used to force worker start-up and initialization."""
    return os.getpid()


def _worker_run(
    profile: ExperimentProfile, job: Job
) -> Tuple[Any, Dict[str, CacheCounters]]:
    """Run one cell; return its value plus the cache-counter delta.

    Each worker's cache keeps its own counters, so the parent would
    otherwise report a near-idle cache after a pooled run.  Counters
    are drained per cell and merged back by :func:`execute`.
    """
    _maybe_inject(job)
    context = _WORKER_CONTEXTS.get(profile)
    if context is None:
        context = ExperimentContext(profile, cache=_WORKER_CACHE)
        _WORKER_CONTEXTS[profile] = context
    value = context.cell(job)
    deltas: Dict[str, CacheCounters] = {}
    if context.cache is not None:
        deltas, context.cache.counters = context.cache.counters, {}
    if len(context.memo) > _WORKER_MEMO_CAP:
        context.memo.clear()
    return value, deltas


class WorkerPool:
    """A killable process pool for contained cell execution.

    Workers start on the first :meth:`acquire` and all of them are
    brought up before it returns.  Lifecycle counters, served by
    ``GET /v1/stats`` for the service's persistent pool:

    * ``reuses`` — acquisitions that found the pool already live;
    * ``rebuilds`` — teardowns after a crash or hang kill (the next
      acquisition starts fresh workers);
    * ``warmup_seconds`` — cumulative start-up time paid, and
      ``last_warmup_seconds`` for the most recent (re)start.

    Thread-safe: drain slots may acquire concurrently; start-up and
    teardown serialize on the lock.  A kill from one batch while
    another has futures in flight resolves those futures to
    ``BrokenProcessPool``, which :func:`execute` treats as a crash.
    """

    def __init__(
        self,
        max_workers: int,
        cache: Optional[ArtifactCache] = None,
        *,
        mp_context=None,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self.cache = cache
        self.mp_context = mp_context or multiprocessing.get_context("spawn")
        #: Observability callback for crash, bisection and rebuild
        #: records (the dispatcher wires the event bus's ``publish``).
        self.on_event = on_event
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self.reuses = 0
        self.rebuilds = 0
        self.warmup_seconds = 0.0
        self.last_warmup_seconds = 0.0

    def _start_locked(self) -> ProcessPoolExecutor:
        started = time.perf_counter()
        executor = ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=self.mp_context,
            initializer=_pool_init,
            initargs=(
                self.cache.worker_copy() if self.cache is not None else None,
            ),
        )
        for future in [
            executor.submit(_pool_probe) for _ in range(self.max_workers)
        ]:
            future.result()
        elapsed = time.perf_counter() - started
        self.last_warmup_seconds = elapsed
        self.warmup_seconds += elapsed
        self._executor = executor
        return executor

    def acquire(self) -> ProcessPoolExecutor:
        """The live executor, starting the workers if needed."""
        with self._lock:
            if self._executor is not None:
                self.reuses += 1
                return self._executor
            return self._start_locked()

    def ensure(self) -> None:
        """Start the workers if they are not already live."""
        with self._lock:
            if self._executor is None:
                self._start_locked()

    def invalidate(self, executor: ProcessPoolExecutor) -> None:
        """Kill ``executor``'s workers: they can no longer be trusted.

        A no-op unless ``executor`` is still the live one: a batch that
        saw an executor die must not kill the fresh one another drain
        slot has started since.  Counted as a rebuild; fresh workers
        start on the next :meth:`acquire`.  Killing first makes the join
        immediate (a hung worker never exits on its own) and resolves
        every unfinished future to :class:`BrokenProcessPool`.
        ``_processes`` is private but stable across supported
        CPythons; if it ever vanishes, the shutdown is left unwaited
        rather than blocking on a hung worker.
        """
        with self._lock:
            if executor is None or executor is not self._executor:
                return
            self._executor = None
            self.rebuilds += 1
        if self.on_event is not None:
            self.on_event({"event": "pool_rebuild", "rebuilds": self.rebuilds})
        processes = getattr(executor, "_processes", None)
        for process in list((processes or {}).values()):
            process.kill()
        executor.shutdown(wait=processes is not None, cancel_futures=True)

    def shutdown(self, *, wait: bool = True) -> None:
        """Final teardown; not counted as a rebuild."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def snapshot(self) -> dict:
        """Lifecycle counters for ``/v1/stats`` (stable key order)."""
        with self._lock:
            live = self._executor is not None
        return {
            "workers": self.max_workers,
            "live": live,
            "reuses": self.reuses,
            "rebuilds": self.rebuilds,
            "warmup_ms": round(self.warmup_seconds * 1000.0, 1),
            "last_warmup_ms": round(self.last_warmup_seconds * 1000.0, 1),
        }


# ----------------------------------------------------------------------
# The contained executor.
# ----------------------------------------------------------------------

def _run_group(
    group: List[Job],
    profile: ExperimentProfile,
    pool: WorkerPool,
    job_timeout: Optional[float],
) -> Tuple[Dict[str, Tuple[Any, dict]], List[Tuple[Job, str]],
           List[Job], List[Job], bool]:
    """Run one cell group on one pool.

    Returns ``(results, errors, hung, leftover, crashed)``: harvested
    ``signature -> (value, counter deltas)`` for completed cells,
    ``(cell, message)`` for cells that raised ordinary exceptions,
    cells that blew the deadline, cells left without any verdict (pool
    died under them — re-run or bisect), and whether the pool died.
    """
    results: Dict[str, Tuple[Any, dict]] = {}
    errors: List[Tuple[Job, str]] = []
    hung: List[Job] = []
    leftover: List[Job] = []
    crashed = killed = False
    futures: List[Tuple[Job, Any]] = []
    executor = pool.acquire()
    # Submit one at a time, retaining every future already placed: a
    # live worker can die on an early poison cell while later cells are
    # still being submitted, and that mid-loop BrokenProcessPool must
    # not discard the partial futures list — the unsubmitted tail
    # becomes leftover below.
    try:
        for cell in group:
            futures.append(
                (cell, executor.submit(_worker_run, profile, cell))
            )
    except BrokenProcessPool:
        crashed = True
    for cell, future in futures:
        if crashed or killed:
            break  # pool is gone; harvest pass classifies the rest
        try:
            # The deadline clock starts when the waiter reaches the
            # future, so cells queued behind a busy pool are not
            # charged for their predecessors' runtime.
            results[cell.signature()] = future.result(timeout=job_timeout)
        except FutureTimeoutError:
            hung.append(cell)
            killed = True
        except BrokenProcessPool:
            crashed = True
        except Exception as error:
            errors.append((cell, f"{type(error).__name__}: {error}"))
    if crashed or killed:
        pool.invalidate(executor)
    # Harvest pass: futures that completed before a crash/kill keep
    # their results; everything else unclassified is leftover —
    # including cells never submitted because the pool died mid-loop
    # (every enumerated cell must leave with a verdict or a re-run).
    classified = {cell.signature() for cell in hung}
    classified.update(cell.signature() for cell, _ in errors)
    leftover.extend(group[len(futures):])
    for cell, future in futures:
        signature = cell.signature()
        if signature in results or signature in classified:
            continue
        if not future.done() or future.cancelled():
            leftover.append(cell)
            continue
        outcome = future.exception()
        if outcome is None:
            results[signature] = future.result()
        elif isinstance(outcome, BrokenProcessPool):
            leftover.append(cell)
        else:
            # Completed with an ordinary exception before the pool
            # died around it — a verdict, not collateral damage.
            errors.append((cell, f"{type(outcome).__name__}: {outcome}"))
    return results, errors, hung, leftover, crashed


def _execute_pooled(
    pending: List[Job],
    context: ExperimentContext,
    pool: Optional[WorkerPool],
    job_timeout: Optional[float],
    report: ContainedReport,
) -> int:
    """Run cells on ``pool`` (or a per-call pool), isolating failures.

    The first group runs on the caller's pool; bisection halves and
    hang victims run on throwaway pools of the same start method, so
    isolating poison never keeps killing a shared pool.
    """
    mp_context = (
        pool.mp_context if pool is not None
        else multiprocessing.get_context(_CALL_START)
    )
    on_event = pool.on_event if pool is not None else None
    executed = 0
    first = pool
    groups: List[List[Job]] = [pending]
    while groups:
        group = groups.pop(0)
        runner = first or WorkerPool(
            min(context.jobs, len(group)), context.cache,
            mp_context=mp_context,
        )
        first = None
        try:
            results, errors, hung, leftover, crashed = _run_group(
                group, context.profile, runner, job_timeout
            )
        finally:
            if runner is not pool:
                runner.shutdown()
        for cell in group:  # merge in cell order: deterministic
            payload = results.get(cell.signature())
            if payload is None:
                continue
            value, deltas = payload
            context.memo[context.memo_key(cell)] = value
            executed += 1
            if context.cache is not None:
                for kind, counter in deltas.items():
                    context.cache.counters.setdefault(
                        kind, CacheCounters()
                    ).add(counter)
        for cell, message in errors:
            report.fail(cell, "error", message)
        for cell in hung:
            report.timeouts += 1
            report.fail(cell, "timeout",
                        f"cell exceeded the {job_timeout:g}s deadline")
        if crashed:
            report.pool_crashes += 1
            if on_event is not None:
                on_event({"event": "pool_crash", "cells": len(group)})
            if len(leftover) == 1:
                # Bisection bottomed out: this cell IS the poison.
                report.fail(leftover[0], "crash",
                            "worker pool died executing this cell")
            elif leftover:
                report.bisections += 1
                if on_event is not None:
                    on_event({
                        "event": "bisection",
                        "round": report.bisections,
                        "cells": len(leftover),
                    })
                middle = len(leftover) // 2
                groups.append(leftover[:middle])
                groups.append(leftover[middle:])
        elif leftover:
            # Victims of a hung-cell pool kill: known-innocent, re-run
            # whole on a fresh pool.
            groups.append(leftover)
    if pool is not None:
        # Restart after any teardown so the next batch starts warm (a
        # no-op when the pool survived).
        pool.ensure()
    return executed


def execute(
    jobs: Sequence[Job],
    context: ExperimentContext,
    *,
    pool: Optional[WorkerPool] = None,
    job_timeout: Optional[float] = None,
    report: Optional[ContainedReport] = None,
) -> int:
    """Run every cell in ``jobs``, warming the context.

    Cells already in the context's memo are skipped and the rest are
    deduplicated by value signature.  With no ``pool``, no
    ``job_timeout`` and at most one cell able to run at a time
    (``context.jobs == 1`` or a single pending cell), they run
    in-process.  Otherwise cells already readable on disk are left for
    assembly to read, and the rest run contained on ``pool``, or on a
    per-call pool of ``context.jobs`` workers when none is given.  On
    return every cell in ``jobs`` is in the memo or on disk, so the
    calling experiment's assembly phase runs entirely from cache.

    Failed cells are recorded in ``report`` when one is given; without
    one, the first in-process exception propagates and pooled failures
    raise :class:`CellError` once the healthy cells are merged.

    Returns the number of cells actually executed — the service
    dispatcher reports this as its batching effectiveness.
    """
    pending: List[Job] = []
    seen = set()
    for job in jobs:
        signature = job.signature()
        if signature in seen or context.memo_key(job) in context.memo:
            continue
        seen.add(signature)
        pending.append(job)

    if pool is None and job_timeout is None and (
        context.jobs == 1 or len(pending) <= 1
    ):
        executed = 0
        for job in pending:
            try:
                context.cell(job)
            except Exception as error:
                if report is None:
                    raise
                report.fail(job, "error", f"{type(error).__name__}: {error}")
                continue
            executed += 1
        return executed

    if context.cache is not None:
        pending = [job for job in pending if not _on_disk(job, context)]
    if not pending:
        return 0
    if any(job.kind == "timed" for job in pending):
        # Build the C cycle loop here, once, before any worker needs it:
        # fork workers inherit it and spawn workers find the file built,
        # where otherwise each worker would compile its own copy.
        cycle_loop()
    own = ContainedReport() if report is None else report
    executed = _execute_pooled(pending, context, pool, job_timeout, own)
    if report is None and own.failures:
        failed = [job for job in pending if job.signature() in own.failures]
        raise CellError(
            failed, [own.failures[job.signature()] for job in failed]
        )
    return executed
