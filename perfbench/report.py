"""Metric names, units and the assembly of one run's result line.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json``
declares, in its order; ``test_benchmark.py`` checks the two agree.
Every workload reports every metric: a layer a workload does not
exercise reports 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

#: name -> unit, untraced runs.  Wall-clock latency is reported per
#: layer and in the summary line instead: on a host whose virtual CPUs
#: are descheduled now and then, it swings by more than any bound.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "slo_met_frac": "frac",
}

_STAGES = ("queued", "claimed", "batched", "executed", "assembled",
           "cache_hit")
_KINDS = ("binary", "functional", "trace", "timed", "fig12_scheduler",
          "service")

#: name -> unit, traced runs.
PER_LAYER: Dict[str, str] = {
    "process.import_s": "s",
    "workloads.build.calls": "count",
    "workloads.build.self_s": "s",
    "rewrite.edvi.calls": "count",
    "rewrite.edvi.self_s": "s",
    "sim.functional.calls": "count",
    "sim.functional.self_s": "s",
    "sim.functional.insts": "count",
    "sim.functional.inst_per_s": "1/s",
    "sim.ooo.calls": "count",
    "sim.ooo.self_s": "s",
    "sim.ooo.insts": "count",
    "sim.ooo.cycles": "count",
    "sim.ooo.inst_per_s": "1/s",
    "experiments.cache.lookup.calls": "count",
    "experiments.cache.lookup.hits": "count",
    "experiments.cache.lookup.misses": "count",
    "experiments.cache.lookup.self_s": "s",
    "experiments.cache.lookup.bytes": "B",
    **{f"experiments.cache.lookup.misses.{kind}": "count" for kind in _KINDS},
    "experiments.cache.store.calls": "count",
    "experiments.cache.store.self_s": "s",
    "experiments.cache.store.bytes": "B",
    **{f"experiments.cache.store.calls.{kind}": "count" for kind in _KINDS},
    "experiments.parallel.cells": "count",
    "experiments.parallel.wall_s": "s",
    "experiments.parallel.worker_busy_s": "s",
    "experiments.parallel.idle_s": "s",
    "experiments.parallel.attributed_frac": "frac",
    "experiments.assemble.self_s": "s",
    "client.submit_ms.p50": "ms",
    "client.submit_ms.p99": "ms",
    "client.result_ms.p50": "ms",
    "client.warm_job.samples": "count",
    "client.warm_job.p50_ms": "ms",
    "client.warm_job.tail_pct": "%",
    "client.warm_job.tail_ms": "ms",
    "client.cold_job.samples": "count",
    "client.cold_job.p50_ms": "ms",
    "client.cold_job.tail_pct": "%",
    "client.cold_job.tail_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.late_ms.p99": "ms",
    **{f"service.stage.{stage}.{what}": unit
       for stage in _STAGES
       for what, unit in (("count", "count"), ("mean_ms", "ms"))},
    "service.dispatcher.batches": "count",
    "service.dispatcher.mean_batch": "count",
    "service.dispatcher.cells_executed": "count",
    "service.dispatcher.coalesced": "count",
    "service.dispatcher.jobs_from_cache": "count",
    "service.workers.busy_s": "s",
    "service.workers.utilization": "frac",
    "service.queue.journal_events": "count",
    "service.queue.depth_max": "count",
    "service.queue.depth_end": "count",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.cache.stores": "count",
    "service.admission.rejected": "count",
    "service.events.dropped": "count",
    "latency.p50_ms": "ms",
    "trace.cpu_s": "s",
}


@dataclass
class Run:
    """What one workload run measured."""

    attempted: int
    failed: int
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    slo_met_frac: float
    #: Median latency of the scored operations (summary and per-layer).
    latency_p50_ms: float
    #: The scored latency samples (seconds), for the summary line.
    samples: List[float] = field(default_factory=list)
    #: Per-layer values by name (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)

    def metrics(self, trace: bool) -> Dict[str, Dict[str, object]]:
        if trace:
            values = {"latency.p50_ms": self.latency_p50_ms,
                      "trace.cpu_s": self.cpu_s, **self.layers}
            values = {name: values.get(name, 0) for name in PER_LAYER}
            units = PER_LAYER
        else:
            values = {name: getattr(self, name) for name in END_TO_END}
            units = END_TO_END
        return {name: {"value": values[name], "unit": units[name]}
                for name in units}


#: Span totals reported as ``<layer>.<key>``, per invocation.
_SPAN_FIELDS = {
    "workloads.build": ("calls", "self_s"),
    "rewrite.edvi": ("calls", "self_s"),
    "sim.functional": ("calls", "self_s", "insts"),
    "sim.ooo": ("calls", "self_s", "insts", "cycles"),
    "experiments.cache.lookup": ("calls", "hits", "misses", "self_s", "bytes"),
    "experiments.cache.store": ("calls", "self_s", "bytes"),
    "experiments.parallel": ("cells",),
}


def _layer(totals: Mapping[str, Mapping[str, float]], layer: str,
           key: str) -> float:
    return totals.get(layer, {}).get(key, 0)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def span_metrics(totals: Mapping[str, Mapping[str, float]],
                 per: float) -> Dict[str, float]:
    """Per-layer metrics from span totals, divided by ``per`` invocations."""
    out: Dict[str, float] = {}
    for layer, keys in _SPAN_FIELDS.items():
        for key in keys:
            out[f"{layer}.{key}"] = _layer(totals, layer, key) / per
    for kind in _KINDS:
        out[f"experiments.cache.lookup.misses.{kind}"] = _layer(
            totals, "experiments.cache.lookup", f"misses.{kind}") / per
        out[f"experiments.cache.store.calls.{kind}"] = _layer(
            totals, "experiments.cache.store", f"stores.{kind}") / per
    for layer in ("sim.functional", "sim.ooo"):
        out[f"{layer}.inst_per_s"] = _rate(
            _layer(totals, layer, "insts"), _layer(totals, layer, "self_s"))
    worker_total = _layer(totals, "experiments.parallel.worker", "total_s")
    busy = worker_total + _layer(totals, "experiments.parallel",
                                 "serial_busy_s")
    out["experiments.parallel.wall_s"] = _layer(
        totals, "experiments.parallel", "total_s") / per
    out["experiments.parallel.worker_busy_s"] = busy / per
    out["experiments.parallel.idle_s"] = (
        _layer(totals, "experiments.parallel", "worker_wall_s") - busy) / per
    # Share of worker busy time spent inside named layers.  Pool workers
    # run ``_worker_run``; an in-process batch runs inside ``execute``.
    owner = ("experiments.parallel.worker" if worker_total > 0
             else "experiments.parallel")
    owner_total = _layer(totals, owner, "total_s")
    if owner_total > 0:
        out["experiments.parallel.attributed_frac"] = (
            1.0 - _layer(totals, owner, "self_s") / owner_total)
    out["experiments.assemble.self_s"] = (
        _layer(totals, "experiments.figure", "self_s")
        + _layer(totals, "experiments.export", "total_s")) / per
    return out


def result_line(run: Run, trace: bool) -> Dict[str, object]:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics(trace),
    }
