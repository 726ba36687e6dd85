"""The timing-core oracle: a digest of every timing cell's statistics.

``tests/data/core_oracle_<profile>.json`` maps each timing cell of a
profile's experiments to the sha256 of its :class:`PipelineStats`.  A
cell's identity is the fingerprint of its ``timed`` cache key (workload,
scale, E-DVI binary flag, DVI configuration, machine configuration),
which does not depend on the code version, so the file pins the timing
core's results across any change that keeps them.  The tier-1 suite
checks the tiny profile; ``scripts/core_oracle.py`` (``make
core-oracle``) checks the quick one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.experiments import EXPERIMENTS
from repro.experiments.cache import fingerprint
from repro.experiments.runner import ExperimentContext, ExperimentProfile, Job
from repro.sim.ooo.core import simulate
from repro.sim.ooo.stats import PipelineStats

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def oracle_path(profile_name: str) -> Path:
    return DATA_DIR / f"core_oracle_{profile_name}.json"


def stats_digest(stats: PipelineStats) -> str:
    """sha256 of a canonical JSON of every field, ``extra`` included."""
    document = json.dumps(
        dataclasses.asdict(stats), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def timed_jobs(
    profile: ExperimentProfile, context: ExperimentContext
) -> Dict[str, Job]:
    """Cell identity -> job, for every timing cell of every experiment."""
    cells: Dict[str, Job] = {}
    for module, _ in EXPERIMENTS.values():
        for job in module.jobs(profile):
            if job.kind == "timed":
                cells.setdefault(fingerprint(*context.cell_key(job)), job)
    return cells


def digests(
    profile: ExperimentProfile, context: ExperimentContext
) -> Dict[str, str]:
    """Cell identity -> stats digest, read (or run) through ``context``."""
    return {
        identity: stats_digest(context.cell(job))
        for identity, job in sorted(timed_jobs(profile, context).items())
    }


def resimulated_digests(
    profile: ExperimentProfile, context: ExperimentContext
) -> Dict[str, str]:
    """Cell identity -> stats digest of a fresh run of each timing cell.

    The traces come from ``context`` (warm after a run), but every cell
    is simulated again, bypassing its memo, by whichever cycle loop
    :func:`repro.sim.ooo.native.cycle_loop` selects now.
    """
    return {
        identity: stats_digest(simulate(job.machine, context.trace(
            job.workload, job.dvi, edvi_binary=job.edvi_binary)))
        for identity, job in sorted(timed_jobs(profile, context).items())
    }


def load_oracle(profile_name: str) -> Dict[str, str]:
    return json.loads(oracle_path(profile_name).read_text(encoding="utf-8"))


def mismatches(expected: Dict[str, str], actual: Dict[str, str]) -> list:
    """Readable differences between two digest maps (empty if equal)."""
    problems = []
    for identity in sorted(set(expected) | set(actual)):
        want = expected.get(identity)
        got = actual.get(identity)
        if want != got:
            problems.append(f"{identity[:16]}: oracle {want} != core {got}")
    return problems
