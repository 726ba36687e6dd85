"""The two served workloads: seeded open-loop traffic against ``repro serve``.

The server is a real subprocess started with deployment settings only
(``--port 0 --queue-dir --cache-dir``), so it runs the configuration a
user gets by default.  Requests are single-cell ``tiny`` regfile sweeps
of two classes:

* *warm* — repeats of a small set primed during set-up: the server
  completes them from the stored result, so a warm job is a submission
  plus a result read;
* *cold* — distinct cells drawn from every workload and register-file
  size, none primed: each one simulates, appends to the journal and
  stores artifacts.  Cells of the two primed workloads reuse a stored
  trace; the first cell of any other workload needs a new one.

Both workloads send both classes, so each class competes with the other
for the server (cold cells run on the dispatcher thread, inside the
server process, while the HTTP loop answers warm jobs).  ``served_warm``
sends mostly warm jobs and is scored on them; ``served_cold`` sends
mostly cold jobs and is scored on those.

The generator is this one process.  Arrival times, the class of each
arrival and the identity of each cold cell are drawn from ``--seed``
alone; the server sees only the generated requests.  Requests go out on
``nproc - 1`` sender threads (at least one) and completions arrive on one
``/v1/events`` stream, so the generator holds at most ``nproc``
connections.  A job's latency runs from its scheduled send time until
its result document is in hand, so a late generator or a stalled server
shows in every job behind it.  Every served document is compared, after
the timed window, with serial ``run_sweep`` output for the same request.
"""

from __future__ import annotations

import hashlib
import os
import queue
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    SRC,
    BenchError,
    compile_sources,
    main_entry_time,
    percentile,
    program_env,
    repro_command,
    stop_process,
    tail_percentile,
)
from layers import collect
from report import Run, span_metrics

#: The primed requests warm jobs repeat: (workload, physical registers).
WARM_SET: Tuple[Tuple[str, int], ...] = (
    ("li_like", 34), ("li_like", 50), ("li_like", 96),
    ("perl_like", 34), ("perl_like", 50), ("perl_like", 96),
)
#: The space cold cells are drawn from.  Fixed here, not read from the
#: program's registry, so a given seed always yields the same requests.
COLD_WORKLOADS = ("compress_like", "gcc_like", "go_like", "ijpeg_like",
                  "li_like", "m88ksim_like", "perl_like", "vortex_like")
COLD_REGFILES = range(34, 130)

#: Latency limits for ``slo_met_frac``, per class.
LIMIT_MS = {"warm": 1000.0, "cold": 4000.0}
#: The generator's own limit: a run whose scheduler handed requests to
#: the senders later than this at the 99th percentile measured the
#: generator, not the server.  (Time a request then waits for a free
#: connection is the server's doing and counts in its latency.)
LATE_LIMIT_MS = 100.0
#: How long jobs may stay outstanding after the last scheduled send, and
#: how long a wait may see no completion before outstanding jobs are
#: polled directly (in case the event stream dropped their completion).
DRAIN_TIMEOUT_S = 60.0
RECHECK_S = 5.0
#: Set-ups per run (server start and warm-set priming); ``setup_s`` is
#: their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Mix:
    """Offered load: arrival rates per class, and the class scored."""

    warm_per_s: float
    cold_per_s: float
    scored: str


SERVED_WARM = Mix(warm_per_s=40.0, cold_per_s=0.5, scored="warm")
SERVED_COLD = Mix(warm_per_s=10.0, cold_per_s=1.0, scored="cold")


@dataclass
class Job:
    kind: str
    cell: Tuple[str, int]
    due: float  # seconds after the window opens
    due_at: float = 0.0  # the same instant on the monotonic clock
    queued: Optional[float] = None  # handed to the senders
    sent: Optional[float] = None  # a sender began the submission
    submit_ms: Optional[float] = None
    result_ms: Optional[float] = None
    latency_ms: Optional[float] = None
    digest: Optional[str] = None
    error: Optional[str] = None

    @property
    def payload(self) -> dict:
        workload, regfile = self.cell
        return {"kind": "sweep", "axis": "regfile", "values": [str(regfile)],
                "workloads": [workload], "profile": "tiny"}


def schedule(seed: int, mix: Mix, seconds: float) -> List[Job]:
    """The run's requests, a pure function of the seed, mix and length.

    Each class arrives as a Poisson process at its rate, conditioned on
    its expected count over the window: that many arrival times drawn
    uniformly.  Every workload gets the same number of cold cells (the
    cold count is rounded to whole rounds of the workloads), at seeded
    register-file sizes.  Fixing the counts and the workload mix keeps
    the work a run offers the same from seed to seed while the arrival
    pattern and the cells themselves change.
    """
    rng = random.Random(seed)
    rounds = max(1, round(mix.cold_per_s * seconds / len(COLD_WORKLOADS)))
    cold = [(workload, size) for workload in COLD_WORKLOADS
            for size in rng.sample([size for size in COLD_REGFILES
                                    if (workload, size) not in WARM_SET],
                                   rounds)]
    jobs = [Job("cold", cell, rng.uniform(0.0, seconds)) for cell in cold]
    jobs += [Job("warm", rng.choice(WARM_SET), rng.uniform(0.0, seconds))
             for _ in range(round(mix.warm_per_s * seconds))]
    jobs.sort(key=lambda job: job.due)
    return jobs


class Server:
    """A ``repro serve`` subprocess, its event stream and its sender pool."""

    def __init__(self, home: Path, trace_dir: Optional[Path]) -> None:
        from repro.service import client

        self.client = client
        home.mkdir()
        self.spawned = time.monotonic()
        self.log = open(home / "serve.log", "wb")
        self.process = subprocess.Popen(
            repro_command(["serve", "--port", "0",
                           "--queue-dir", str(home / "queue"),
                           "--cache-dir", str(home / "cache")], trace_dir),
            stdout=subprocess.PIPE, stderr=self.log, env=program_env(),
        )
        try:
            self.url = self._read_url()
        except BenchError:
            stop_process(self.process, 5.0)
            self.log.close()
            raise
        threading.Thread(target=self._drain_stdout, daemon=True).start()

        self._lock = threading.Lock()
        self._terminal: Dict[str, dict] = {}
        self._waiting: Dict[str, List[Job]] = {}
        self._states: Dict[str, str] = {}
        self.depth_max = 0
        self._outstanding = 0
        self._idle = threading.Condition(self._lock)
        self._hello = threading.Event()
        self._events = threading.Thread(target=self._follow, daemon=True)
        self._events.start()
        self.tasks: "queue.Queue" = queue.Queue()
        self._senders = []
        if not self._hello.wait(30.0):
            self.close()
            raise BenchError("the server's event stream did not open")

        self._senders = [threading.Thread(target=self._send_loop, daemon=True)
                         for _ in range(max(1, (os.cpu_count() or 2) - 1))]
        for sender in self._senders:
            sender.start()

    def _read_url(self) -> str:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = self.process.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            match = re.search(r"http://[0-9.]+:\d+", line)
            if match:
                return match.group(0)
        raise BenchError("repro serve did not announce a URL")

    def _drain_stdout(self) -> None:
        for _ in self.process.stdout:
            pass

    # -- completions, from the event stream ------------------------------

    def _follow(self) -> None:
        try:
            for event in self.client.stream_events(
                    self.url, buffer=4096, timeout=120.0):
                if event.get("event") == "hello":
                    self._hello.set()
                elif event.get("event") == "job":
                    self._on_job(event)
                elif event.get("event") == "dropped":
                    self.tasks.put(("recheck", None, None))
        except Exception:  # the server closed the stream on shutdown
            return

    def _on_job(self, event: dict) -> None:
        job_id, state = event["id"], event["state"]
        with self._lock:
            self._states[job_id] = state
            live = sum(s in ("queued", "running") for s in self._states.values())
            self.depth_max = max(self.depth_max, live)
            if state not in self.client.TERMINAL_STATES:
                return
            self._terminal[job_id] = event
            waiters = self._waiting.pop(job_id, [])
        for job in waiters:
            self.tasks.put(("fetch", job, event))

    # -- requests, from the sender threads -------------------------------

    def submit(self, job: Job) -> None:
        with self._lock:
            self._outstanding += 1
        job.queued = time.monotonic()
        self.tasks.put(("send", job, None))

    def _send_loop(self) -> None:
        while True:
            action, job, event = self.tasks.get()
            if action == "stop":
                return
            try:
                if action == "send":
                    self._send(job)
                elif action == "fetch":
                    self._fetch(job, event)
                else:
                    self._recheck()
            except Exception as error:  # a sender must outlive any one job
                self._finish(job, f"{type(error).__name__}: {error}")

    def _send(self, job: Job) -> None:
        job.sent = time.monotonic()
        receipt = self.client.submit_job(self.url, job.payload, client=job.kind)
        job.submit_ms = (time.monotonic() - job.sent) * 1000.0
        with self._lock:
            event = self._terminal.get(receipt["id"])
            if event is None:
                self._waiting.setdefault(receipt["id"], []).append(job)
                return
        self._fetch(job, event)

    def _fetch(self, job: Job, event: dict) -> None:
        if event["state"] != "done":
            self._finish(job, f"job {event['id']} {event['state']}: "
                              f"{event.get('error') or event.get('failure_reason')}")
            return
        started = time.monotonic()
        body = self.client.get_result(self.url, event["result_key"])
        finished = time.monotonic()
        job.result_ms = (finished - started) * 1000.0
        job.latency_ms = (finished - job.due_at) * 1000.0
        job.digest = hashlib.sha256(body).hexdigest()
        self._finish(job, None)

    def _recheck(self) -> None:
        """Poll jobs still waiting, in case their completion was dropped."""
        with self._lock:
            waiting = list(self._waiting)
        for job_id in waiting:
            record = self.client.get_job(self.url, job_id)
            if record["state"] in self.client.TERMINAL_STATES:
                self._on_job({"event": "job", **record})

    def _finish(self, job: Optional[Job], error: Optional[str]) -> None:
        if job is None:
            return
        job.error = error
        with self._lock:
            self._outstanding -= 1
            self._idle.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Wait until every submitted job has finished or failed."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._outstanding > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                if not self._idle.wait(min(remaining, RECHECK_S)):
                    self.tasks.put(("recheck", None, None))
        return True

    def metrics(self) -> dict:
        return self.client.get_metrics(self.url, fmt="json")

    def cpu_s(self) -> float:
        """CPU seconds the server (and any children it reaped) has used."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = sum(int(value) for value in fields[11:15])
        return ticks / os.sysconf("SC_CLK_TCK")

    def close(self):
        """Stop the server and every thread; how the server exited."""
        for _ in self._senders:
            self.tasks.put(("stop", None, None))
        for sender in self._senders:
            sender.join(30.0)
        ended = stop_process(self.process, 30.0)
        self._events.join(30.0)
        self.log.close()
        return ended


def _reference_digests(cells) -> Dict[Tuple[str, int], str]:
    """sha256 of serial ``run_sweep`` output for each cell's request."""
    from repro.experiments.export import render_manifest
    from repro.experiments.runner import ExperimentContext, ExperimentProfile
    from repro.experiments.sweep import adhoc_spec, run_sweep, sweep_title

    tiny = ExperimentProfile.tiny()
    context = ExperimentContext(tiny)
    digests = {}
    for workload, regfile in sorted(cells):
        spec = adhoc_spec("regfile", tiny, values=[str(regfile)],
                          workloads=[workload])
        result = run_sweep(spec, tiny, context,
                           title=sweep_title("regfile", tiny))
        document = render_manifest(tiny.name, {spec.name: result})
        digests[(workload, regfile)] = hashlib.sha256(
            document.encode("utf-8")).hexdigest()
    return digests


def _delta(before: dict, after: dict, *path: str) -> float:
    """How much the ``/v1/metrics`` value at ``path`` grew in the window."""
    def pick(document):
        for key in path:
            document = document.get(key, {}) if isinstance(document, dict) else {}
        return document if isinstance(document, (int, float)) else 0
    return pick(after) - pick(before)


def _service_metrics(before: dict, after: dict, window_s: float) -> Dict[str, float]:
    def stat(*path: str) -> float:
        return _delta(before, after, "stats", *path)

    out: Dict[str, float] = {}
    for stage in ("queued", "claimed", "batched", "executed", "assembled",
                  "cache_hit"):
        count = _delta(before, after, "stages", stage, "count")
        total = _delta(before, after, "stages", stage, "sum_seconds")
        out[f"service.stage.{stage}.count"] = count
        out[f"service.stage.{stage}.mean_ms"] = (
            total / count * 1000.0 if count else 0.0)
    batches = stat("dispatcher", "batches")
    out["service.dispatcher.batches"] = batches
    out["service.dispatcher.mean_batch"] = (
        stat("dispatcher", "batched_jobs") / batches if batches else 0.0)
    for key in ("cells_executed", "coalesced", "jobs_from_cache"):
        out[f"service.dispatcher.{key}"] = stat("dispatcher", key)
    busy = stat("workers", "busy_seconds")
    workers = after["stats"].get("workers", {}).get("count") or 1
    out["service.workers.busy_s"] = busy
    out["service.workers.utilization"] = busy / (window_s * workers)
    # The journal restarts at each compaction; folded events carry on.
    out["service.queue.journal_events"] = (
        stat("queue", "compaction", "events_folded")
        + stat("queue", "compaction", "journal_events"))
    kinds = after["stats"].get("cache", {}).get("session", {})
    for key in ("hits", "misses", "stores"):
        out[f"service.cache.{key}"] = sum(
            stat("cache", "session", kind, key) for kind in kinds)
    out["service.admission.rejected"] = sum(
        stat("admission", key)
        for key in ("rejected_depth", "rejected_quota", "rejected_size"))
    out["service.events.dropped"] = stat("events", "dropped")
    return out


def _class_metrics(jobs: List[Job], kind: str) -> Dict[str, float]:
    latencies = [job.latency_ms for job in jobs
                 if job.kind == kind and job.error is None]
    out = {f"client.{kind}_job.samples": len(latencies)}
    if latencies:
        out[f"client.{kind}_job.p50_ms"] = percentile(latencies, 50)
    tail = tail_percentile(len(latencies))
    if tail:
        out[f"client.{kind}_job.tail_pct"] = tail
        out[f"client.{kind}_job.tail_ms"] = percentile(latencies, tail)
    return out


def _prime(server: Server, primes: List[Job]) -> None:
    """Submit the warm set and wait until every job of it is done."""
    opened = time.monotonic()
    for job in primes:
        job.due_at = opened
        server.submit(job)
    if not server.wait_idle(DRAIN_TIMEOUT_S) or any(j.error for j in primes):
        raise BenchError("priming the warm set failed: "
                         + "; ".join(str(j.error) for j in primes))


def _served(work: Path, seed: int, seconds: float, trace: bool, mix: Mix) -> Run:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    jobs = schedule(seed, mix, seconds)
    trace_dir = None
    if trace:
        trace_dir = work / "trace"
        trace_dir.mkdir()

    setups = []
    for attempt in range(SETUP_REPEATS):
        # Each attempt starts a fresh server over empty directories; the
        # last one serves the window.
        started = time.perf_counter()
        compile_sources()
        last = attempt == SETUP_REPEATS - 1
        server = Server(work / f"serve-{attempt}", trace_dir if last else None)
        primes = [Job("warm", cell, 0.0) for cell in WARM_SET]
        try:
            _prime(server, primes)
        except BenchError:
            server.close()
            raise
        setups.append(time.perf_counter() - started)
        if not last and server.close().code != 0:
            raise BenchError("repro serve failed to stop after set-up")
    try:
        before = server.metrics()
        cpu_before = server.cpu_s()
        opened = time.monotonic()
        for job in jobs:
            job.due_at = opened + job.due
            pause = job.due_at - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            server.submit(job)
        drained = server.wait_idle(DRAIN_TIMEOUT_S)
        window_s = time.monotonic() - opened
        cpu_s = server.cpu_s() - cpu_before
        after = server.metrics()
        depth_end = after["stats"]["queue"]["depth"]
    finally:
        ended = server.close()
    if not drained:
        for job in jobs:
            if job.latency_ms is None and job.error is None:
                job.error = "timed out"
    if ended.code != 0:
        raise BenchError(f"repro serve exited with {ended.code}; see serve.log")

    references = _reference_digests({job.cell for job in jobs + primes})
    for job in jobs:
        if job.error is None and job.digest != references[job.cell]:
            job.error = "served document differs from serial run_sweep"

    scored = [job.latency_ms for job in jobs
              if job.kind == mix.scored and job.error is None]
    met = sum(job.error is None and job.latency_ms <= LIMIT_MS[job.kind]
              for job in jobs)
    late = [(job.queued - job.due_at) * 1000.0 for job in jobs]
    late_p99 = percentile(late, 99) if late else 0.0
    if late_p99 > LATE_LIMIT_MS:
        raise BenchError(f"the generator ran {late_p99:.1f} ms late at p99 "
                         f"(limit {LATE_LIMIT_MS} ms); the run is invalid")
    run = Run(
        attempted=len(jobs),
        failed=sum(job.error is not None for job in jobs),
        setup_s=statistics.median(setups),
        latency_p50_ms=percentile(scored, 50) if scored else 0.0,
        cpu_s=cpu_s,
        peak_rss_mb=ended.peak_rss_mb,
        slo_met_frac=met / len(jobs),
        samples=[value / 1000.0 for value in scored],
    )
    for job in jobs:
        if job.error is not None:
            print(f"failed {job.kind} {job.cell}: {job.error}", file=sys.stderr)
    if trace:
        submits = [job.submit_ms for job in jobs if job.submit_ms is not None]
        results = [job.result_ms for job in jobs if job.result_ms is not None]
        layers = span_metrics(collect(trace_dir), 1)
        entered = main_entry_time(trace_dir)
        layers["process.import_s"] = (
            entered - server.spawned if entered is not None else 0.0)
        layers.update(_class_metrics(jobs, "warm"))
        layers.update(_class_metrics(jobs, "cold"))
        layers.update(_service_metrics(before, after, window_s))
        layers.update({
            "client.submit_ms.p50": percentile(submits, 50) if submits else 0.0,
            "client.submit_ms.p99": percentile(submits, 99) if submits else 0.0,
            "client.result_ms.p50": percentile(results, 50) if results else 0.0,
            "loadgen.sent": len(late),
            "loadgen.late_ms.p99": late_p99,
            "service.queue.depth_max": server.depth_max,
            "service.queue.depth_end": depth_end,
        })
        run.layers = layers
    return run


def served_warm(work: Path, seed: int, seconds: float, trace: bool) -> Run:
    return _served(work, seed, seconds, trace, SERVED_WARM)


def served_cold(work: Path, seed: int, seconds: float, trace: bool) -> Run:
    return _served(work, seed, seconds, trace, SERVED_COLD)
