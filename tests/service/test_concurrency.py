"""Multi-worker concurrency stress: exactly-once compute, identical bytes.

The concurrent-dispatch contract: with ``--workers 4`` draining batches
concurrently, overlapping and identical requests racing in over HTTP
must still collapse to **exactly one computation per distinct cell**
(the queue coalesces identical requests, the in-flight registry and the
cache's atomic store dedup shared cells across concurrent batches), and
every served document must be byte-identical to the serial, in-process
:func:`~repro.experiments.sweep.run_sweep` rendering.
"""

import threading

import pytest

from repro.experiments.export import render_manifest
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.experiments.sweep import adhoc_spec, run_sweep, sweep_title
from repro.service.client import get_stats, submit_and_wait, submit_job
from repro.service.server import ServerThread

TINY = ExperimentProfile.tiny()

#: Four distinct single-cell requests (disjoint grids).
DISJOINT_VALUES = ("34", "42", "50", "64")

#: Four two-cell requests whose grids overlap pairwise in a ring; the
#: union is exactly the four cells above.
OVERLAPPING_GRIDS = (("34", "42"), ("42", "50"), ("50", "64"), ("64", "34"))


def _payload(values) -> dict:
    return {"kind": "sweep", "axis": "regfile", "values": list(values),
            "workloads": ["li_like"], "profile": "tiny"}


def _serial_document(values) -> bytes:
    """The manifest a local serial run writes for the same request."""
    spec = adhoc_spec("regfile", TINY, values=list(values),
                      workloads=["li_like"])
    result = run_sweep(spec, TINY, ExperimentContext(TINY),
                       title=sweep_title("regfile", TINY))
    return render_manifest(TINY.name, {spec.name: result}).encode("utf-8")


def _submit_all(url, payloads, copies):
    """Fire ``len(payloads) * copies`` racing HTTP submissions; returns
    receipts grouped by payload index."""
    receipts = [[None] * copies for _ in payloads]
    errors = []

    def post(index, copy):
        try:
            receipts[index][copy] = submit_job(
                url, dict(payloads[index]),
                client=f"client-{index}-{copy}",
            )
        except Exception as error:  # surface in the main thread
            errors.append(error)

    threads = [
        threading.Thread(target=post, args=(index, copy))
        for index in range(len(payloads))
        for copy in range(copies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    return receipts


class TestFourWorkersStress:
    def test_32_overlapping_identical_submissions_exactly_once(
        self, tmp_path
    ):
        """4 workers x 32 racing submissions (8 identical copies of each
        of 4 distinct requests): per distinct cell, exactly one cache
        miss — i.e. exactly one computation — and byte-identical bytes.
        ``max_batch=1`` forces the four jobs into four *concurrent*
        batches instead of one fused one."""
        payloads = [_payload([value]) for value in DISJOINT_VALUES]
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            workers=4, max_batch=1,
        ) as service:
            receipts = _submit_all(service.url, payloads, copies=8)
            # All 8 copies of each payload share one job id; distinct
            # payloads do not.
            ids = [{r["id"] for r in group} for group in receipts]
            assert all(len(group) == 1 for group in ids)
            assert len(set().union(*ids)) == len(payloads)

            for index, payload in enumerate(payloads):
                _job, document = submit_and_wait(
                    service.url, dict(payload), client="checker",
                    timeout=240,
                )
                assert document == _serial_document([DISJOINT_VALUES[index]])

            stats = get_stats(service.url)
            # Exactly-once computation: one timed-cell miss per distinct
            # cell, no more — however the 4 concurrent batches raced.
            session = stats["cache"]["session"]
            assert session["timed"]["misses"] == len(DISJOINT_VALUES)
            assert stats["dispatcher"]["cells_executed"] == len(
                DISJOINT_VALUES
            )
            assert stats["workers"]["count"] == 4

    def test_overlapping_grids_share_cells_across_workers(self, tmp_path):
        """Requests whose grids overlap: the union of cells is computed
        once each even when the owning batches execute concurrently on
        different workers (in-flight registry + atomic cache store)."""
        payloads = [_payload(values) for values in OVERLAPPING_GRIDS]
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            workers=4, max_batch=1,
        ) as service:
            _submit_all(service.url, payloads, copies=2)
            documents = [
                submit_and_wait(service.url, dict(payload),
                                client="checker", timeout=240)[1]
                for payload in payloads
            ]
            for document, values in zip(documents, OVERLAPPING_GRIDS):
                assert document == _serial_document(values)

            stats = get_stats(service.url)
            # 8 enumerated cells across the four jobs, 4 distinct: each
            # distinct cell misses (computes) exactly once.
            assert stats["cache"]["session"]["timed"]["misses"] == 4
            executed = stats["dispatcher"]["cells_executed"]
            deduped = stats["dispatcher"]["cells_deduped_inflight"]
            # Every enumerated-but-not-executed cell was either claimed
            # by a concurrent batch (deduped) or already on disk.
            assert executed <= 8
            assert executed + deduped >= 4

    def test_identical_flood_single_computation(self, tmp_path):
        """32 identical racing submissions, 4 workers: one job, one
        batch, one cell."""
        payload = _payload(["34"])
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", workers=4
        ) as service:
            receipts = _submit_all(service.url, [payload], copies=32)
            assert len({r["id"] for r in receipts[0]}) == 1
            _job, document = submit_and_wait(
                service.url, dict(payload), client="checker", timeout=240
            )
            assert document == _serial_document(["34"])
            stats = get_stats(service.url)
            assert stats["dispatcher"]["cells_executed"] == 1
            assert stats["cache"]["session"]["timed"]["misses"] == 1
            assert stats["dispatcher"]["jobs_completed"] == 1


@pytest.mark.parametrize("workers", [1, 4])
def test_worker_count_does_not_change_bytes(tmp_path, workers):
    """The worker-count knob is invisible in the output: any worker
    count serves the same bytes for the same request."""
    payload = _payload(["34", "42"])
    with ServerThread(
        tmp_path / f"queue-{workers}", tmp_path / f"cache-{workers}",
        workers=workers,
    ) as service:
        _job, document = submit_and_wait(
            service.url, dict(payload), client="parity", timeout=240
        )
    assert document == _serial_document(["34", "42"])
