"""Shared experiment infrastructure: profiles, artifact caches, tables.

Every experiment module exposes ``run(profile) -> <Fig*Result>`` plus a
``jobs(profile)`` enumerator of the independent simulation cells the
figure sweeps over (see :mod:`repro.experiments.parallel`); the result
objects carry raw rows plus a ``format_table()`` that prints the same rows
or series the paper's figure/table reports.

Profiles size the experiments: ``full()`` approximates the paper's sweep
densities (scaled-down instruction counts — the substitution DESIGN.md
documents), ``quick()`` is a fast configuration used by the benchmark and
CI, and ``tiny()`` is the smallest sweep that still exhibits
every qualitative effect (used by the test suite and smoke runs).

:class:`ExperimentContext` layers two caches under every experiment:
an in-process memo keyed by the cell (by value, not identity) and an
optional :class:`~repro.experiments.cache.ArtifactCache` that persists
binaries, traces, functional results, and timing stats across processes
and across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dvi.config import DVIConfig, SRScheme
from repro.experiments.cache import ArtifactCache, fingerprint
from repro.program.program import Program
from repro.rewrite.edvi import insert_edvi
from repro.sim.config import MachineConfig
from repro.sim.functional import FunctionalResult, run_program
from repro.sim.ooo.core import simulate
from repro.sim.ooo.stats import PipelineStats
from repro.sim.trace import TRACE_FORMAT, Trace
from repro.workloads.suite import ALL_ORDER, SAVE_RESTORE_ORDER, get_program


@dataclass(frozen=True)
class ExperimentProfile:
    """Sizing knobs shared by all experiments."""

    name: str
    #: Workload scale factor (multiplies dynamic instruction counts).
    scale: int = 1
    #: Register file sizes for the Figure 5/6 sweep.
    regfile_sizes: Tuple[int, ...] = tuple(range(34, 99, 4))
    #: Workloads used where the paper uses the full suite.
    workloads: Tuple[str, ...] = tuple(ALL_ORDER)
    #: Workloads used where the paper uses the save/restore-heavy six.
    sr_workloads: Tuple[str, ...] = tuple(SAVE_RESTORE_ORDER)

    @classmethod
    def full(cls) -> "ExperimentProfile":
        """The paper-shaped sweep (all sizes, all workloads)."""
        return cls(name="full")

    @classmethod
    def quick(cls) -> "ExperimentProfile":
        """A reduced sweep for benchmarks and CI."""
        return cls(
            name="quick",
            regfile_sizes=(34, 38, 42, 50, 58, 64, 80, 96),
            workloads=("compress_like", "li_like", "perl_like", "gcc_like"),
            sr_workloads=("li_like", "gcc_like", "perl_like", "vortex_like"),
        )

    @classmethod
    def tiny(cls) -> "ExperimentProfile":
        """The smallest sweep that still shows every qualitative effect."""
        return cls(
            name="tiny",
            regfile_sizes=(34, 42, 50, 64, 96),
            workloads=("li_like", "perl_like"),
            sr_workloads=("li_like", "perl_like"),
        )

    @classmethod
    def names(cls) -> Tuple[str, ...]:
        """The selectable profile names, smallest first."""
        return ("tiny", "quick", "full")

    @classmethod
    def by_name(cls, name: str) -> "ExperimentProfile":
        """The named stock profile; ``ValueError`` lists valid names.

        The CLI, the service request schema, and the benchmarks all
        resolve profile strings through this one lookup.
        """
        if name not in cls.names():
            raise ValueError(
                f"unknown profile {name!r}; valid profiles: "
                + ", ".join(cls.names())
            )
        return getattr(cls, name)()


#: Cell kinds, in the order a cell's dependency chain runs them.
KINDS = ("binary", "functional", "trace", "timed")


@dataclass(frozen=True)
class Job:
    """One independent simulation cell of an experiment sweep.

    ``kind`` selects the artifact the cell produces:

    * ``"binary"`` — build the workload (both E-DVI variants),
    * ``"functional"`` — an architectural run (stats, no trace),
    * ``"trace"`` — a full dynamic trace,
    * ``"timed"`` — an out-of-order timing simulation (requires
      ``machine``; generates the trace as a dependency).
    """

    kind: str
    workload: str
    dvi: Optional[DVIConfig] = None
    edvi_binary: bool = False
    machine: Optional[MachineConfig] = None
    live_hist: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.kind == "timed" and self.machine is None:
            raise ValueError("timed jobs need a machine config")
        if self.kind in ("functional", "trace", "timed") and self.dvi is None:
            raise ValueError(f"{self.kind} jobs need a DVI config")

    def signature(self) -> str:
        """Value-based identity, for deduplication across figures."""
        return fingerprint(
            self.kind, self.workload, self.dvi, self.edvi_binary,
            self.machine, self.live_hist,
        )

    def dependencies(self) -> List["Job"]:
        """The implicit upstream cells running this cell materializes.

        A ``timed`` cell generates its trace (and the trace its binary)
        on a cache miss without those cells ever being enumerated in a
        job list.  Cross-batch dedup that only registers enumerated
        cells therefore lets two concurrent batches race the shared
        dependency artifacts; claiming the closure returned here closes
        that gap.  The ``binary`` dependency deliberately uses the
        default field values so its signature matches an enumerated
        ``binary`` cell (one build produces both E-DVI variants).
        """
        if self.kind == "binary":
            return []
        binary = Job("binary", self.workload)
        if self.kind in ("functional", "trace"):
            return [binary]
        return [
            binary,
            Job("trace", self.workload, dvi=self.dvi,
                edvi_binary=self.edvi_binary),
        ]


def _memo_key(kind: str, key: tuple) -> tuple:
    """The memo's key for one artifact: its key tuple when hashable.

    A :class:`MachineConfig` holds a latency dict, so keys carrying one
    are memoized under their fingerprint instead.
    """
    try:
        hash(key)
    except TypeError:
        return kind, fingerprint(key)
    return kind, key


class ExperimentContext:
    """Caches simulation artifacts across experiments.

    Two layers: one per-process memo keyed by the cell (always on), and
    an optional on-disk :class:`~repro.experiments.cache.ArtifactCache`
    shared by every process and every invocation that points at the
    same directory.  ``jobs`` is the parallelism knob the
    :func:`repro.experiments.parallel.execute` scheduler honors when an
    experiment hands it a job list.
    """

    def __init__(
        self,
        profile: ExperimentProfile,
        *,
        cache: Optional[ArtifactCache] = None,
        jobs: int = 1,
    ) -> None:
        self.profile = profile
        self.cache = cache
        self.jobs = max(1, jobs)
        #: Every cell and artifact this context has produced, keyed by
        #: kind and key tuple (see :meth:`memo_key`).
        self.memo: Dict[tuple, Any] = {}

    def cell_key(self, job: Job) -> Tuple[str, tuple]:
        """The artifact kind and disk-cache key tuple of one cell.

        Key tuples are value-canonicalized by ArtifactCache.  The E-DVI
        flag of a ``binary`` cell is not in its key: one build produces
        both variants.
        """
        scale = self.profile.scale
        if job.kind == "binary":
            return "binary", (job.workload, scale)
        head = (job.workload, scale, job.edvi_binary, job.dvi)
        if job.kind == "trace":
            # TRACE_FORMAT makes artifacts of different trace storage
            # formats (pre-columnar vs columnar) distinct cache cells
            # even if the code version were ever held fixed across the
            # change.
            return "trace", head + (TRACE_FORMAT,)
        if job.kind == "functional":
            return "functional", head + (job.live_hist,)
        return "timed", head + (job.machine,)

    def memo_key(self, job: Job) -> tuple:
        """The key under which :attr:`memo` holds one cell's value."""
        return _memo_key(*self.cell_key(job))

    def _read_through(self, kind: str, key: tuple,
                      compute: Callable[[], Any]) -> Any:
        memo_key = _memo_key(kind, key)
        if memo_key in self.memo:
            return self.memo[memo_key]
        hit, value = False, None
        if self.cache is not None:
            hit, value = self.cache.lookup(kind, key)
        if not hit:
            value = compute()
            if self.cache is not None:
                self.cache.store(kind, key, value)
        self.memo[memo_key] = value
        return value

    def cell(self, job: Job) -> Any:
        """One cell's value: from the memo, else the disk cache, else run.

        A ``binary`` cell's value is the ``(plain, annotated)`` pair.
        """
        kind, key = self.cell_key(job)
        return self._read_through(kind, key, lambda: self._compute(job))

    def _compute(self, job: Job) -> Any:
        if job.kind == "binary":
            plain = get_program(job.workload, self.profile.scale)
            return plain, insert_edvi(plain).program
        if job.kind == "timed":
            trace = self.trace(job.workload, job.dvi,
                               edvi_binary=job.edvi_binary)
            return simulate(job.machine, trace)
        program = self.binary(job.workload, edvi=job.edvi_binary)
        if job.kind == "functional":
            return run_program(
                program, job.dvi, collect_trace=False,
                collect_live_hist=job.live_hist,
            )
        result = run_program(program, job.dvi, collect_trace=True)
        if not result.stats.completed:
            raise RuntimeError(f"workload {job.workload} did not complete")
        assert result.trace is not None
        return result.trace

    # ------------------------------------------------------------------

    def binary(self, workload: str, *, edvi: bool) -> Program:
        """The workload's binary, with or without E-DVI annotations.

        Per section 3, baselines always run the annotation-free binary; the
        DVI configurations run the rewritten one.  A miss builds and caches
        *both* variants at once — the E-DVI rewrite starts from the plain
        binary anyway, so the pair is one unit of work and is stored as a
        single ``(plain, annotated)`` artifact on disk.
        """
        return self.cell(Job("binary", workload))[edvi]

    def trace(self, workload: str, dvi: DVIConfig, *, edvi_binary: bool) -> Trace:
        """A dynamic trace of the workload under a DVI configuration."""
        return self.cell(Job("trace", workload, dvi, edvi_binary))

    def functional(
        self,
        workload: str,
        dvi: DVIConfig,
        *,
        edvi_binary: bool,
        live_hist: bool = False,
    ) -> FunctionalResult:
        """A trace-free functional run (for figures 3, 9, 12)."""
        return self.cell(
            Job("functional", workload, dvi, edvi_binary, live_hist=live_hist)
        )

    def timed(
        self,
        workload: str,
        dvi: DVIConfig,
        config: MachineConfig,
        *,
        edvi_binary: bool,
    ) -> PipelineStats:
        """One out-of-order timing run (memoized; machine config in the key)."""
        return self.cell(Job("timed", workload, dvi, edvi_binary, config))

    def artifact(self, kind: str, key: tuple, compute: Callable[[], Any]) -> Any:
        """Read-through memoization for experiment-specific artifacts.

        Used by measurements that are not one of the four standard cell
        kinds — e.g. Figure 12's preemptive-scheduler run.  ``key`` must be
        canonicalizable by :func:`repro.experiments.cache.canonical`; the
        profile scale is appended automatically.
        """
        return self._read_through(kind, key + (self.profile.scale,), compute)


# ----------------------------------------------------------------------
# DVI configuration triple of Figure 5 (register-file experiments isolate
# register reclamation: no save/restore elimination scheme is active).
# ----------------------------------------------------------------------

def regfile_modes() -> List[Tuple[str, DVIConfig, bool]]:
    """(label, dvi config, uses E-DVI binary) for the Figure 5 curves."""
    return [
        ("No DVI", DVIConfig.none(), False),
        ("I-DVI", DVIConfig.idvi_only(), False),
        ("E-DVI and I-DVI",
         DVIConfig(use_idvi=True, use_edvi=True, scheme=SRScheme.NONE), True),
    ]


# ----------------------------------------------------------------------
# Table rendering.
# ----------------------------------------------------------------------

def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Plain-text table with right-aligned numeric columns."""
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rendered))
        if rendered else len(headers[col])
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:,.1f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
