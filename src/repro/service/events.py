"""In-process event bus and per-job tracing for the service stack.

Three cooperating pieces, all stdlib and all designed to cost nearly
nothing when nobody is watching:

``EventBus``
    A tiny thread-safe publish/subscribe fan-out.  ``queue._apply``
    publishes one structured record per state transition (so live and
    replayed mutations share a single emission path), the dispatcher
    publishes batch-level records (batches, bisections, worker-pool
    rebuilds), and the HTTP server publishes access/lifecycle records.
    Each subscriber owns a *bounded* FIFO: when a slow consumer falls
    behind, new events for that subscriber are counted and dropped —
    never buffered unboundedly, never blocking the publisher — and the
    consumer receives a single synthetic ``{"event": "dropped",
    "count": N}`` marker once it catches up, so gaps are explicit.

``JobTracer``
    Stage-span stamping.  Every stamp records a monotonic timestamp for
    a (job, stage) pair; the duration of a stage is the gap to the next
    stamp, so a job's span durations telescope to its wall time by
    construction.  Closed stage durations feed per-stage latency
    histograms.  Traces for recently seen jobs are retained in a
    bounded LRU and served by ``GET /v1/jobs/<id>?trace=1``.

``StageHistogram``
    Fixed log-spaced latency buckets (Prometheus-style 1/2.5/5 decades)
    with p50/p95/p99 estimation by bucket upper bound.

Nothing here touches disk and nothing is journaled: events and spans
are operational exhaust, not state.  Replaying a journal re-emits the
same event sequence through the same ``_apply`` path, which is exactly
the contract the dashboard and ``repro watch`` rely on.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Dict, Iterable, List, Optional

__all__ = [
    "EventBus",
    "Subscription",
    "JobTracer",
    "StageHistogram",
    "LATENCY_BUCKETS",
    "SPAN_STAGES",
]

#: Fixed log-spaced latency buckets in seconds (upper bounds).  The
#: 1 / 2.5 / 5 progression per decade matches Prometheus conventions;
#: the range covers sub-millisecond cache hits through multi-minute
#: contained batches.  Fixed at import time so histograms from any two
#: servers are mergeable and the text exposition is stable.
LATENCY_BUCKETS: tuple = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 60.0, 120.0, 300.0, 600.0,
)

#: Canonical span stages in lifecycle order.  ``queued``/``claimed``
#: and the terminal stages are stamped by the queue's ``_apply`` (the
#: single live+replay mutation path); ``batched``/``executed``/
#: ``assembled``/``cache_hit`` are stamped by the dispatcher as a job
#: moves through a drain cycle.
SPAN_STAGES: tuple = (
    "queued", "claimed", "batched", "executed", "assembled",
    "cache_hit", "done", "failed", "quarantined",
)


class Subscription:
    """One consumer's bounded view of the bus.

    ``pop``/``pop_nowait`` return event dicts in publish order.  When
    the internal FIFO is full, newly published events are dropped and
    tallied; after the backlog drains, the next pop returns a synthetic
    ``{"event": "dropped", "count": N}`` marker covering the gap.
    """

    def __init__(self, bus: "EventBus", maxsize: int) -> None:
        self._bus = bus
        self.maxsize = max(1, int(maxsize))
        self._items: deque = deque()
        self._cond = threading.Condition(bus._lock)
        self._pending_dropped = 0
        self.dropped = 0  # cumulative, for stats/tests
        self.closed = False

    # Called by the bus with the lock held.
    def _offer(self, event: dict) -> bool:
        if len(self._items) >= self.maxsize:
            self._pending_dropped += 1
            self.dropped += 1
            return False
        self._items.append(event)
        self._cond.notify()
        return True

    def _marker(self, count: int) -> dict:
        return {
            "event": "dropped",
            "count": count,
            "ts": round(time.time(), 3),
        }

    def pop_nowait(self) -> Optional[dict]:
        """Return the next event, a drop marker, or ``None`` if idle."""
        with self._bus._lock:
            if self._items:
                return self._items.popleft()
            if self._pending_dropped:
                count, self._pending_dropped = self._pending_dropped, 0
                return self._marker(count)
            return None

    def pop(self, timeout: Optional[float] = None) -> Optional[dict]:
        """Blocking pop; returns ``None`` on timeout or close."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._bus._lock:
            while True:
                if self._items:
                    return self._items.popleft()
                if self._pending_dropped:
                    count, self._pending_dropped = self._pending_dropped, 0
                    return self._marker(count)
                if self.closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if not self._items and not self._pending_dropped:
                            return None

    def backlog(self) -> int:
        with self._bus._lock:
            return len(self._items)

    def close(self) -> None:
        self._bus._unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EventBus:
    """Thread-safe fan-out with per-subscriber bounded buffering.

    ``publish`` never blocks and is near-free with no subscribers: one
    lock acquisition and two integer bumps.  Publishers may hold other
    locks (the queue's journal lock, the dispatcher's stats lock) while
    publishing; the bus lock is a leaf — nothing under it calls out.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: List[Subscription] = []
        self._seq = 0
        self.published = 0
        self.dropped = 0

    @property
    def active(self) -> bool:
        """True when at least one subscriber is attached."""
        return bool(self._subscribers)

    def publish(self, event: dict) -> int:
        """Stamp ``seq``/``ts`` onto *event* and fan it out.

        Returns the sequence number.  Slow subscribers drop; nothing
        blocks.
        """
        with self._lock:
            self._seq += 1
            self.published += 1
            event.setdefault("ts", round(time.time(), 3))
            event["seq"] = self._seq
            for sub in self._subscribers:
                if not sub._offer(event):
                    self.dropped += 1
            return self._seq

    def subscribe(self, maxsize: int = 256) -> Subscription:
        sub = Subscription(self, maxsize)
        with self._lock:
            self._subscribers.append(sub)
        return sub

    def _unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            sub.closed = True
            sub._cond.notify_all()
            try:
                self._subscribers.remove(sub)
            except ValueError:
                pass

    def stats(self) -> dict:
        with self._lock:
            return {
                "published": self.published,
                "dropped": self.dropped,
                "subscribers": len(self._subscribers),
            }


class StageHistogram:
    """Latency histogram over the fixed ``LATENCY_BUCKETS`` grid."""

    __slots__ = ("counts", "count", "total")

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKETS) + 1)  # +1 = +Inf
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            seconds = 0.0
        idx = len(LATENCY_BUCKETS)
        for i, bound in enumerate(LATENCY_BUCKETS):
            if seconds <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.count += 1
        self.total += seconds

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile as the crossing bucket's upper bound."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                if i < len(LATENCY_BUCKETS):
                    return LATENCY_BUCKETS[i]
                return LATENCY_BUCKETS[-1]  # +Inf bucket: clamp to top
        return LATENCY_BUCKETS[-1]

    def cumulative_counts(self) -> List[int]:
        """Cumulative counts per bucket, Prometheus ``le`` semantics."""
        out: List[int] = []
        running = 0
        for bucket_count in self.counts:
            running += bucket_count
            out.append(running)
        return out

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum_seconds": round(self.total, 6),
            "p50_ms": round(self.quantile(0.50) * 1000, 3),
            "p95_ms": round(self.quantile(0.95) * 1000, 3),
            "p99_ms": round(self.quantile(0.99) * 1000, 3),
        }


class JobTracer:
    """Bounded per-job span store + per-stage latency histograms.

    ``stamp(job_id, stage)`` appends a monotonic timestamp to the job's
    timeline and closes the previous stage: its duration (gap between
    consecutive stamps) is recorded into that stage's histogram.  The
    per-job store is an LRU capped at ``retain`` jobs so long-lived
    servers hold bounded memory; traces survive into the terminal
    states, which is what ``?trace=1`` serves.
    """

    def __init__(self, retain: int = 1024) -> None:
        self._lock = threading.Lock()
        self._retain = max(16, int(retain))
        # job_id -> list of (stage, monotonic, annotations|None)
        self._spans: "OrderedDict[str, list]" = OrderedDict()
        self._histograms: Dict[str, StageHistogram] = {}
        self.jobs_traced = 0

    def stamp(self, job_id: str, stage: str, **annotations) -> None:
        now = time.monotonic()
        with self._lock:
            timeline = self._spans.get(job_id)
            if timeline is None:
                timeline = []
                self._spans[job_id] = timeline
                self.jobs_traced += 1
                if len(self._spans) > self._retain:
                    self._spans.popitem(last=False)
            else:
                self._spans.move_to_end(job_id)
            if timeline:
                prev_stage, prev_at, _ = timeline[-1]
                histogram = self._histograms.get(prev_stage)
                if histogram is None:
                    histogram = self._histograms[prev_stage] = StageHistogram()
                histogram.observe(now - prev_at)
            timeline.append((stage, now, annotations or None))

    def trace(self, job_id: str) -> Optional[dict]:
        """Span timeline for *job_id*, or ``None`` if unknown/evicted.

        Durations are gaps between consecutive stamps (the final stage
        has duration 0), so ``sum(duration_ms) == total_ms`` exactly.
        """
        with self._lock:
            timeline = self._spans.get(job_id)
            if timeline is None:
                return None
            timeline = list(timeline)
        if not timeline:
            return None
        start = timeline[0][1]
        # Round the offsets once and derive durations from the rounded
        # values: telescoping then holds *after* rounding too, not just
        # in exact arithmetic.
        offsets = [
            round((at - start) * 1000, 3) for _, at, _ in timeline
        ]
        spans = []
        for i, (stage, _at, annotations) in enumerate(timeline):
            if i + 1 < len(timeline):
                duration = round(offsets[i + 1] - offsets[i], 3)
            else:
                duration = 0.0
            span = {
                "stage": stage,
                "at_ms": offsets[i],
                "duration_ms": duration,
            }
            if annotations:
                span.update(annotations)
            spans.append(span)
        return {
            "job": job_id,
            "spans": spans,
            "total_ms": offsets[-1],
        }

    def histograms(self) -> Dict[str, StageHistogram]:
        """Stable-ordered snapshot of the per-stage histograms."""
        with self._lock:
            items = list(self._histograms.items())
        order = {stage: i for i, stage in enumerate(SPAN_STAGES)}
        items.sort(key=lambda kv: (order.get(kv[0], len(order)), kv[0]))
        return dict(items)

    def stats(self) -> dict:
        with self._lock:
            return {
                "jobs_traced": self.jobs_traced,
                "jobs_retained": len(self._spans),
            }
