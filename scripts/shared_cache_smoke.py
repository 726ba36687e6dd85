#!/usr/bin/env python
"""Shared-cache smoke: two real server processes, one shared cache.

What CI's service job runs as ``make shared-cache-smoke``, end to end
through the real CLI, real sockets, and real subprocesses:

1. spawn two plain ``python -m repro serve --port 0`` processes, each
   with its own queue and local cache, both pointed at one
   ``--shared-cache-dir``;
2. split a tiny sweep into per-value jobs, one on each server, then
   submit the combined sweep to the first;
3. assert every served document is byte-identical to the direct serial
   :func:`run_sweep` manifest;
4. resubmit the combined sweep to the second server, which never ran
   it — it must instant-complete from the shared tier
   (``source == "cache"``, zero extra cells, nonzero shared-tier hits);
5. tear both servers down.

The script enforces its own deadline (CI wraps it in a hard ``timeout``
as well) so a wedged server fails fast instead of hanging the job.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.export import render_manifest  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentContext,
    ExperimentProfile,
)
from repro.experiments.sweep import adhoc_spec, run_sweep  # noqa: E402
from repro.service.client import get_stats, submit_and_wait  # noqa: E402
from repro.service.dispatcher import sweep_title  # noqa: E402

DEADLINE_SECONDS = 150.0

SWEEP_VALUES = ["34", "42"]


def _payload(values):
    return {"kind": "sweep", "axis": "regfile", "values": list(values),
            "workloads": ["li_like"], "profile": "tiny"}


def _serial_document(values) -> bytes:
    profile = ExperimentProfile.tiny()
    spec = adhoc_spec("regfile", profile, values=list(values),
                      workloads=["li_like"])
    result = run_sweep(
        spec, profile, ExperimentContext(profile),
        title=sweep_title("regfile", profile),
    )
    return render_manifest(profile.name, {spec.name: result}).encode("utf-8")


def _spawn_server(tmp, name):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--shared-cache-dir", os.path.join(tmp, "shared-cache"),
         "--cache-dir", os.path.join(tmp, f"cache-{name}"),
         "--queue-dir", os.path.join(tmp, f"queue-{name}")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env,
    )
    url_box = []

    def read_announce():
        line = process.stdout.readline()
        match = re.search(r"http://[0-9.]+:\d+", line or "")
        if match:
            url_box.append(match.group(0))

    reader = threading.Thread(target=read_announce, daemon=True)
    reader.start()
    reader.join(timeout=30.0)
    if not url_box:
        process.terminate()
        raise RuntimeError(f"server {name} did not announce in 30s")
    return process, url_box[0]


def main() -> int:
    started = time.monotonic()
    processes = []
    with tempfile.TemporaryDirectory(prefix="repro-shared-smoke-") as tmp:
        try:
            urls = []
            for name in ("a", "b"):
                process, url = _spawn_server(tmp, name)
                processes.append(process)
                urls.append(url)
            first, second = urls
            print(f"servers up: {first} {second}")

            # Split the sweep over both servers, then run it combined.
            for url, values in ((first, [SWEEP_VALUES[0]]),
                                (second, [SWEEP_VALUES[1]]),
                                (first, SWEEP_VALUES)):
                job, document = submit_and_wait(
                    url, _payload(values), client="shared-cache-smoke",
                    timeout=DEADLINE_SECONDS,
                )
                assert document == _serial_document(values), (
                    f"values={values}: served document differs from "
                    f"serial run_sweep"
                )
                print(f"values={values}: {job['state']} on {url} "
                      f"(source: {job['source']}), byte-identical "
                      f"to serial")

            # Cross-process warm read: the second server never ran the
            # combined sweep and serves it from the shared tier.
            combined = _payload(SWEEP_VALUES)
            cells_before = get_stats(second)["dispatcher"]["cells_executed"]
            job, document = submit_and_wait(
                second, combined, client="shared-cache-smoke-cold",
                timeout=DEADLINE_SECONDS,
            )
            cells_after = get_stats(second)["dispatcher"]["cells_executed"]
            assert job["source"] == "cache", (
                f"second server recomputed (source: {job['source']})"
            )
            assert cells_after == cells_before, (
                "second server executed cells for a shared-tier result"
            )
            assert document == _serial_document(SWEEP_VALUES)
            tiers = get_stats(second)["tiered"]
            assert tiers["shared"]["hits"] > 0, (
                f"no shared-tier hits on the second server: {tiers}"
            )
            print(f"cross-process instant-complete on {second}: "
                  f"source=cache, shared-tier hits="
                  f"{tiers['shared']['hits']}, zero extra cells")
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                try:
                    process.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    process.kill()
        elapsed = time.monotonic() - started
        assert elapsed < DEADLINE_SECONDS, f"smoke took {elapsed:.0f}s"
        print(f"shared-cache smoke OK in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
