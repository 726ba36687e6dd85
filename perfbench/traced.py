"""Run one ``repro`` command with per-layer spans recorded.

Usage: ``python perfbench/traced.py TRACE_DIR ARGS...`` runs
``repro ARGS...`` exactly as ``python -m repro ARGS...`` would, after
:func:`layers.install` has wrapped the traced layers.  Span totals are
flushed to ``TRACE_DIR/spans-<pid>.jsonl`` (see :mod:`layers`), and the
monotonic time at which ``repro.__main__.main`` is entered is written to
``TRACE_DIR/main-<pid>.json`` so the caller can subtract its own spawn
time and get the interpreter start-up and import cost (for ``serve``,
including the service modules, which are imported so they can be wrapped).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def main() -> int:
    trace_dir = Path(sys.argv[1])
    argv = sys.argv[2:]
    import layers
    from repro import __main__ as cli

    recorder = layers.Recorder(trace_dir)
    layers.install(recorder, serving=argv[:1] == ["serve"])
    entered = time.monotonic()
    (trace_dir / f"main-{os.getpid()}.json").write_text(
        json.dumps({"main_entry": entered}), encoding="utf-8"
    )
    try:
        return cli.main(argv)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
