#!/usr/bin/env python
"""Check (or write) the timing-core oracle of one experiment profile.

Runs every timing cell of the profile's experiments into a private,
memo-only context and compares each cell's ``PipelineStats`` digest
with ``tests/data/core_oracle_<profile>.json`` (see
``tests/experiments/core_digests.py`` for the format).  Exits 1 and
lists the differing cells on any mismatch.

``--loop`` picks the timing core's cycle loop: ``auto`` (the default)
runs the C loop when it builds, ``native`` also fails unless it does,
and ``python`` forces the Python loop (``REPRO_NATIVE=0``).

Usage::

    python scripts/core_oracle.py                     # quick, check
    python scripts/core_oracle.py --profile tiny --loop native
    python scripts/core_oracle.py --profile quick --loop python
    python scripts/core_oracle.py --profile quick --write
    make core-oracle                                  # quick, both loops
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "experiments"))

from core_digests import (  # noqa: E402
    digests,
    load_oracle,
    mismatches,
    oracle_path,
    timed_jobs,
)

from repro.experiments.parallel import execute  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentContext,
    ExperimentProfile,
)
from repro.sim.ooo import native  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="quick",
                        choices=ExperimentProfile.names())
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the cells (default: 2)")
    parser.add_argument("--loop", default="auto",
                        choices=("auto", "native", "python"),
                        help="cycle loop to run (default: auto)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the oracle file instead of checking")
    args = parser.parse_args(argv)

    if args.loop == "python":
        os.environ["REPRO_NATIVE"] = "0"
    # Load the loop before the pool forks, so the workers share it.
    loop = "native" if native.cycle_loop() is not None else "python"
    if args.loop == "native" and loop != "native":
        print("FAIL: the native cycle loop did not load")
        return 1
    started = time.perf_counter()
    profile = ExperimentProfile.by_name(args.profile)
    context = ExperimentContext(profile, jobs=args.jobs)
    execute(list(timed_jobs(profile, context).values()), context)
    actual = digests(profile, context)
    elapsed = time.perf_counter() - started
    path = oracle_path(args.profile)
    if args.write:
        path.write_text(json.dumps(actual, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(actual)} cell digests to {path} "
              f"({loop} loop, {elapsed:.1f}s)")
        return 0
    problems = mismatches(load_oracle(args.profile), actual)
    if problems:
        print(f"FAIL: {len(problems)} of {len(actual)} timing cells differ "
              f"from {path.name} ({loop} loop):")
        for line in problems:
            print("  " + line)
        return 1
    print(f"ok: {len(actual)} timing cells match {path.name} "
          f"({loop} loop, {elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
