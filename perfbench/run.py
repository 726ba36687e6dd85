"""The repository's benchmark: one run of one workload.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):

* ``cold_quick`` — ``repro run-all --profile quick --jobs 2`` into an
  empty cache directory;
* ``warm_quick`` — the same command replayed over a primed cache;
* ``served_warm`` — seeded open-loop traffic against ``repro serve``,
  mostly repeats of primed requests, scored on those warm jobs;
* ``served_cold`` — the same server under mostly distinct new cells,
  scored on those cold jobs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A human-readable summary precedes it.  The run's scratch files live
under ``.perfbench/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from cli_workloads import cold_quick, warm_quick
from common import (
    BenchError,
    check_checkout,
    make_work_dir,
    percentile,
    tail_percentile,
)
from report import result_line
from served import served_cold, served_warm

WORKLOADS = {
    "cold_quick": cold_quick,
    "warm_quick": warm_quick,
    "served_warm": served_warm,
    "served_cold": served_cold,
}


def _summary(workload: str, run) -> str:
    samples = run.samples
    line = (f"{workload}: {run.attempted} attempted, {run.failed} failed; "
            f"setup {run.setup_s:.3f} s; p50 {run.latency_p50_ms:.3f} ms "
            f"over {len(samples)} samples")
    tail = tail_percentile(len(samples))
    if tail:
        line += f"; p{tail} {percentile(samples, tail) * 1000:.3f} ms"
    return line + (f"; peak RSS {run.peak_rss_mb:.1f} MB; "
                   f"SLO met {run.slo_met_frac:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        work = make_work_dir(args.workload, args.seed)
        try:
            run = WORKLOADS[args.workload](
                work, args.seed, args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(_summary(args.workload, run))
    print(json.dumps(result_line(run, bool(args.trace)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
