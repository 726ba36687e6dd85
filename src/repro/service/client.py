"""Stdlib HTTP client for the simulation service.

Thin ``urllib``-based helpers shared by the CLI verbs (``repro
submit`` / ``repro status``), the test suite, the CI smoke script, and
the service benchmark.  Every helper takes the service base URL
(``http://host:port``); :func:`submit_and_wait` is the common
submit-poll-fetch round trip and returns the result document exactly as
served (bytes), preserving the byte-identity guarantees the service
makes.

Submissions understand the service's admission-control responses: a 429
(per-client quota) or 503 (queue depth) refusal carries a
``Retry-After`` hint, and :func:`submit_job` can honor it — sleeping
``max(Retry-After, base * 2^attempt)`` capped at ``backoff_cap`` between
attempts — so well-behaved clients convert overload into latency instead
of hammering a saturated server.  Any other 4xx/5xx fails fast.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Iterator, Mapping, Optional, Tuple

__all__ = [
    "RETRYABLE_STATUSES",
    "TERMINAL_STATES",
    "ServiceError",
    "compact_queue",
    "get_health",
    "get_job",
    "get_metrics",
    "get_result",
    "get_stats",
    "poll_job",
    "stream_events",
    "submit_and_wait",
    "submit_job",
]

#: Admission refusals the server expects clients to retry.  Everything
#: else (400 bad request, 404, 413 oversize, 500 bug) is not transient:
#: resending the same bytes cannot succeed, so those fail fast.
RETRYABLE_STATUSES = frozenset({429, 503})

#: Job states that will never change again.  ``quarantined`` is the
#: containment terminal — the job exhausted its attempt budget (its
#: record carries ``attempts`` and a ``failure_reason`` diagnostic) —
#: so pollers treat it exactly like ``failed``: stop waiting.
TERMINAL_STATES = frozenset({"done", "failed", "quarantined"})


class ServiceError(RuntimeError):
    """A request to the service failed (transport, HTTP, or job error).

    ``status`` carries the HTTP status when one was received (``None``
    for transport failures); ``retry_after`` the parsed ``Retry-After``
    seconds when the server sent the header.
    """

    def __init__(
        self,
        message: str,
        *,
        status: Optional[int] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _parse_retry_after(headers: Mapping[str, str]) -> Optional[float]:
    """The ``Retry-After`` delay in seconds, or ``None``.

    Only the delta-seconds form is parsed (the service always sends an
    integer); an HTTP-date or garbage value degrades to ``None`` rather
    than failing the whole response.
    """
    value = headers.get("Retry-After")
    if value is None:
        return None
    try:
        seconds = float(value.strip())
    except (AttributeError, ValueError):
        return None
    return seconds if seconds >= 0 else None


def _request(
    method: str, url: str, body: Optional[bytes] = None, timeout: float = 30.0
) -> Tuple[int, bytes, Mapping[str, str]]:
    request = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read(), response.headers
    except urllib.error.HTTPError as error:
        return error.code, error.read(), error.headers
    except (urllib.error.URLError, OSError) as error:
        raise ServiceError(f"{method} {url}: {error}") from None


def _json_or_error(
    status: int,
    body: bytes,
    what: str,
    headers: Optional[Mapping[str, str]] = None,
) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ServiceError(
            f"{what}: non-JSON response (HTTP {status})", status=status
        )
    if status >= 400:
        raise ServiceError(
            f"{what}: HTTP {status}: {payload.get('error', body[:200])}",
            status=status,
            retry_after=_parse_retry_after(headers or {}),
        )
    return payload


def submit_job(
    base_url: str, payload: dict, *, client: str = "cli",
    timeout: float = 30.0,
    max_retries: int = 0,
    backoff_base: float = 0.1,
    backoff_cap: float = 30.0,
    on_retry: Optional[Callable[[int, float, ServiceError], None]] = None,
    _sleep: Callable[[float], None] = time.sleep,
) -> dict:
    """POST one request; returns the ``{"id", "location"}`` receipt.

    With ``max_retries > 0``, admission refusals (HTTP 429/503) are
    retried up to that many times; each attempt sleeps
    ``min(backoff_cap, max(Retry-After, backoff_base * 2^attempt))`` —
    honoring the server's hint but never retrying tighter than the
    exponential schedule, and never looser than the cap.  ``on_retry``
    (if given) observes each ``(attempt, delay, error)`` before the
    sleep.  Non-retryable errors, and a refusal on the final attempt,
    raise :class:`ServiceError` with ``.status`` / ``.retry_after`` set.
    A trailing ``/`` on ``base_url`` is ignored.
    """
    base_url = base_url.rstrip("/")
    body = dict(payload)
    body["client"] = client
    encoded = json.dumps(body).encode("utf-8")
    attempts = max(0, max_retries) + 1
    for attempt in range(attempts):
        status, raw, headers = _request(
            "POST", f"{base_url}/v1/jobs", encoded, timeout
        )
        try:
            return _json_or_error(status, raw, "submit", headers)
        except ServiceError as error:
            last_attempt = attempt == attempts - 1
            if error.status not in RETRYABLE_STATUSES or last_attempt:
                raise
            hinted = error.retry_after or 0.0
            delay = min(
                backoff_cap, max(hinted, backoff_base * (2 ** attempt))
            )
            if on_retry is not None:
                on_retry(attempt, delay, error)
            _sleep(delay)
    raise AssertionError("unreachable: loop returns or raises")


def get_job(base_url: str, job_id: str, *, timeout: float = 30.0) -> dict:
    status, raw, headers = _request(
        "GET", f"{base_url}/v1/jobs/{job_id}", None, timeout
    )
    return _json_or_error(status, raw, f"job {job_id}", headers)


def poll_job(
    base_url: str,
    job_id: str,
    *,
    timeout: float = 300.0,
    poll: float = 0.1,
) -> dict:
    """Poll one job until it reaches a terminal state.

    Returns the final record for any state in :data:`TERMINAL_STATES`
    (including ``failed``/``quarantined`` — inspecting the verdict is
    the caller's business); raises :class:`ServiceError` only if the
    deadline passes first.  Quarantine is terminal precisely so this
    loop cannot spin forever on a poison job.
    """
    deadline = time.monotonic() + timeout
    while True:
        job = get_job(base_url, job_id, timeout=timeout)
        if job["state"] in TERMINAL_STATES:
            return job
        if time.monotonic() > deadline:
            raise ServiceError(
                f"job {job_id} still {job['state']} after {timeout}s"
            )
        time.sleep(poll)


def get_health(base_url: str, *, timeout: float = 30.0) -> dict:
    """The ``/v1/health`` document, whatever the status code.

    Both the 200 (ready) and 503 (draining / breaker open) responses
    carry the same JSON shape; transport failures still raise
    :class:`ServiceError` — the caller distinguishes "server says not
    ready" from "server unreachable".
    """
    status, raw, _headers = _request(
        "GET", f"{base_url}/v1/health", None, timeout
    )
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ServiceError(
            f"health: non-JSON response (HTTP {status})", status=status
        )


def get_result(base_url: str, key: str, *, timeout: float = 30.0) -> bytes:
    """The raw stored result document for an artifact key."""
    status, raw, headers = _request(
        "GET", f"{base_url}/v1/results/{key}", None, timeout
    )
    if status >= 400:
        _json_or_error(status, raw, f"result {key}", headers)
    return raw


def get_stats(base_url: str, *, timeout: float = 30.0) -> dict:
    status, raw, headers = _request(
        "GET", f"{base_url}/v1/stats", None, timeout
    )
    return _json_or_error(status, raw, "stats", headers)


def get_metrics(
    base_url: str, *, fmt: str = "prometheus", timeout: float = 30.0
):
    """``/v1/metrics``: Prometheus exposition text or the JSON mirror.

    ``fmt="prometheus"`` returns the raw text (str); ``fmt="json"``
    returns the parsed JSON document (dict).
    """
    suffix = "?format=json" if fmt == "json" else ""
    status, raw, headers = _request(
        "GET", f"{base_url}/v1/metrics{suffix}", None, timeout
    )
    if fmt == "json":
        return _json_or_error(status, raw, "metrics", headers)
    if status >= 400:
        _json_or_error(status, raw, "metrics", headers)
    return raw.decode("utf-8")


def stream_events(
    base_url: str,
    *,
    buffer: Optional[int] = None,
    timeout: float = 30.0,
    max_events: Optional[int] = None,
) -> Iterator[dict]:
    """Tail ``/v1/events``: yield each SSE event as a parsed dict.

    A plain blocking generator over one streaming ``urllib`` response —
    the consumer side of the service's SSE contract.  ``data:`` lines
    accumulate until a blank line ends the frame; ``:`` comment lines
    (keepalives) are skipped.  ``timeout`` is the socket read timeout
    between frames — on a quiet server the 15s keepalive cadence keeps
    any timeout above that from firing.  ``max_events`` (if given)
    closes the stream after yielding that many events; otherwise the
    generator runs until the server closes or the caller breaks out.
    """
    url = f"{base_url}/v1/events"
    if buffer is not None:
        url += f"?buffer={int(buffer)}"
    request = urllib.request.Request(url, method="GET")
    yielded = 0
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            if response.status != 200:
                raise ServiceError(
                    f"events: HTTP {response.status}",
                    status=response.status,
                )
            data_lines = []
            for raw_line in response:
                line = raw_line.decode("utf-8").rstrip("\r\n")
                if line.startswith(":"):
                    continue  # keepalive comment
                if line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
                    continue
                if line == "" and data_lines:
                    try:
                        event = json.loads("\n".join(data_lines))
                    except json.JSONDecodeError:
                        event = None
                    data_lines = []
                    if isinstance(event, dict):
                        yield event
                        yielded += 1
                        if max_events is not None \
                                and yielded >= max_events:
                            return
    except (urllib.error.URLError, OSError, TimeoutError) as error:
        raise ServiceError(f"events: {error}") from None


def compact_queue(
    base_url: str,
    *,
    retain_terminal: Optional[int] = None,
    timeout: float = 30.0,
) -> dict:
    """Ask a running service to compact its queue journal now.

    ``retain_terminal`` overrides the server's configured finished-job
    retention for this pass.  Returns the compaction report
    (``generation``, ``jobs_kept``, ``jobs_dropped``,
    ``events_folded``) — the live counterpart of the offline
    ``repro queue compact --queue-dir`` maintenance verb.
    """
    body = b""
    if retain_terminal is not None:
        body = json.dumps({"retain_terminal": retain_terminal}).encode("utf-8")
    status, raw, headers = _request(
        "POST", f"{base_url}/v1/compact", body, timeout
    )
    return _json_or_error(status, raw, "compact", headers)


def submit_and_wait(
    base_url: str,
    payload: dict,
    *,
    client: str = "cli",
    timeout: float = 300.0,
    poll: float = 0.1,
    max_retries: int = 0,
    backoff_base: float = 0.1,
    backoff_cap: float = 30.0,
    on_retry: Optional[Callable[[int, float, ServiceError], None]] = None,
) -> Tuple[dict, bytes]:
    """Submit, poll to completion, fetch the result.

    Returns ``(job record, result document bytes)``; raises
    :class:`ServiceError` if the job fails or the deadline passes.
    Retry parameters apply to the submission only (polls hit GET
    routes, which the service never rate-limits).  A trailing ``/`` on
    ``base_url`` is ignored.
    """
    base_url = base_url.rstrip("/")
    receipt = submit_job(
        base_url, payload, client=client, timeout=timeout,
        max_retries=max_retries, backoff_base=backoff_base,
        backoff_cap=backoff_cap, on_retry=on_retry,
    )
    job = poll_job(base_url, receipt["id"], timeout=timeout, poll=poll)
    if job["state"] == "done":
        return job, get_result(base_url, job["result_key"], timeout=timeout)
    if job["state"] == "quarantined":
        raise ServiceError(
            f"job {job['id']} quarantined after "
            f"{job.get('attempts', '?')} attempt(s): "
            f"{job.get('failure_reason', 'unknown failure')}"
        )
    raise ServiceError(
        f"job {job['id']} failed: {job.get('error', 'unknown error')}"
    )
