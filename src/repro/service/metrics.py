"""Render service stats + stage histograms as Prometheus text or JSON.

``GET /v1/metrics`` is a *projection*: everything it exposes already
exists — the ``/v1/stats`` snapshot (counters and gauges maintained by
the dispatcher, queue, cache, and event bus) plus the per-stage latency
histograms accumulated by :class:`repro.service.events.JobTracer`.
This module only formats; it owns no state and takes no locks beyond
the snapshot/histogram reads it is handed.

The text exposition follows the Prometheus 0.0.4 format: ``# HELP`` /
``# TYPE`` comments, ``_bucket{le=...}`` cumulative histogram series,
and a terminating newline.  Scalar stats flatten to
``repro_<section>_<key>``; the per-state job gauge uses a ``state``
label; stage latencies use a ``stage`` label over the fixed log-spaced
buckets (see ``events.LATENCY_BUCKETS``).
"""

from __future__ import annotations

import re
from typing import Dict, List

from .events import LATENCY_BUCKETS, JobTracer, StageHistogram

__all__ = ["render_prometheus", "render_json", "parse_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: snapshot keys rendered as a labelled gauge instead of flattened.
_STATE_SECTIONS = (("queue", "states"),)

#: keys that are point-in-time gauges; everything else numeric in the
#: snapshot is monotone (a counter) or close enough to document as one.
_GAUGE_KEYS = {
    "repro_queue_depth",
    "repro_uptime_seconds",
    "repro_started_at",
    "repro_schema_version",
    "repro_events_subscribers",
    "repro_workers_inflight_cells",
    "repro_workers_active",
    "repro_workers_slots",
    "repro_queue_compaction_generation",
    "repro_queue_compaction_journal_entries",
    "repro_queue_compaction_snapshot_jobs",
}


def _metric_name(*parts: str) -> str:
    return _NAME_RE.sub("_", "_".join(("repro",) + parts)).lower()


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _flatten(snapshot: dict) -> List[tuple]:
    """(name, labels, value) triples from the stats snapshot."""
    out: List[tuple] = []
    for section, body in snapshot.items():
        if isinstance(body, (int, float)) and not isinstance(body, str):
            out.append((_metric_name(section), "", body))
            continue
        if not isinstance(body, dict):
            continue
        for key, value in body.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out.append((_metric_name(section, key), "", value))
            elif isinstance(value, bool):
                out.append((_metric_name(section, key), "", value))
            elif isinstance(value, dict):
                if (section, key) in _STATE_SECTIONS:
                    for state, count in sorted(value.items()):
                        if isinstance(count, (int, float)):
                            out.append((
                                _metric_name(section, "jobs"),
                                f'{{state="{state}"}}',
                                count,
                            ))
                else:
                    for sub, subvalue in value.items():
                        if isinstance(subvalue, (int, float)):
                            out.append((
                                _metric_name(section, key, sub), "", subvalue,
                            ))
    return out


def render_prometheus(snapshot: dict, tracer: JobTracer) -> str:
    """The /v1/stats snapshot + stage histograms as Prometheus text."""
    lines: List[str] = []
    seen_types = set()
    for name, labels, value in _flatten(snapshot):
        if name not in seen_types:
            seen_types.add(name)
            kind = "gauge" if name in _GAUGE_KEYS else "counter"
            lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{labels} {_format_value(value)}")

    histograms = tracer.histograms()
    if histograms:
        name = "repro_stage_latency_seconds"
        lines.append(f"# HELP {name} Per-stage job latency (log-spaced buckets).")
        lines.append(f"# TYPE {name} histogram")
        for stage, histogram in histograms.items():
            cumulative = histogram.cumulative_counts()
            for bound, count in zip(LATENCY_BUCKETS, cumulative):
                lines.append(
                    f'{name}_bucket{{stage="{stage}",le="{repr(float(bound))}"}} {count}'
                )
            lines.append(
                f'{name}_bucket{{stage="{stage}",le="+Inf"}} {cumulative[-1]}'
            )
            lines.append(
                f'{name}_sum{{stage="{stage}"}} {repr(round(histogram.total, 6))}'
            )
            lines.append(f'{name}_count{{stage="{stage}"}} {histogram.count}')
    return "\n".join(lines) + "\n"


def render_json(snapshot: dict, tracer: JobTracer) -> dict:
    """The same payload as structured JSON (``?format=json``)."""
    stages: Dict[str, dict] = {}
    for stage, histogram in tracer.histograms().items():
        body = histogram.summary()
        body["cumulative"] = histogram.cumulative_counts()
        stages[stage] = body
    return {
        "stats": snapshot,
        "stages": stages,
        "buckets_le_seconds": list(LATENCY_BUCKETS),
    }


def parse_prometheus(text: str) -> Dict[str, float]:
    """Minimal parser used by tests and the events smoke: returns a
    mapping of ``name{labels}`` -> value and raises ``ValueError`` on
    any line that is neither a comment nor a valid sample."""
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = re.fullmatch(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)", line)
        if not match:
            raise ValueError(f"line {lineno} is not a Prometheus sample: {line!r}")
        key = match.group(1) + (match.group(2) or "")
        samples[key] = float(match.group(3))
    return samples
