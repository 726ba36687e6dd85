"""Dynamic instruction traces, stored columnar.

The functional emulator executes a program in architectural program order
and emits one dynamic-instruction row per step.  The out-of-order timing
model replays these rows through its resource pipeline.  Rows carry
everything the timing model needs and nothing else: registers for
renaming, addresses for the caches, control outcomes for the branch
predictor, and the DVI annotations (register-free masks and elimination
flags) decided in program order by the
:class:`~repro.dvi.engine.DVIEngine`.

Storage layout (the perf-critical part): a :class:`Trace` is **columnar**.
Million-row traces used to be lists of per-row ``TraceRecord`` heap
objects; they are now parallel ``array`` columns — five *dynamic* columns
with one entry per executed instruction, plus four small *static*
side-tables indexed by ``pc`` for the per-instruction facts that never
change between dynamic instances (opcode, class, destination, sources).
This makes trace generation allocation-free per step, lets the timing
core read plain ints straight out of flat buffers, and pickles as a
handful of compact byte blobs instead of millions of objects.

Columns:

==============  ========  ====================================================
column          typecode  contents (one entry per dynamic instruction)
==============  ========  ====================================================
``pcs``         ``i``     static instruction index (byte address = ``4*pc``)
``addrs``       ``q``     byte address touched, or -1 for non-memory ops
``next_pcs``    ``i``     static index of the next executed instruction
                          (-1 at ``halt``; the sentinel index at a
                          top-level return)
``free_masks``  ``q``     architectural registers whose physical mappings
                          may be reclaimed when the row commits
``flags``       ``B``     bit 0 taken, bit 1 eliminated, bit 2 is-program
==============  ========  ====================================================

Static side-tables, indexed by ``pc`` (entries for never-executed pcs are
-1/0):

``s_op`` (``b``) opcode int; ``s_cls`` (``b``) op-class int; ``s_dst``
(``b``) destination register or -1; ``s_srcs`` (``h``) packed sources.

``s_srcs`` packs the 0–2 source registers of this ISA into one short:
``(src1 + 1) | ((src2 + 1) << 6)``, 0 meaning "no source in this slot"
(register numbers are 5 bits, so 6 bits per slot round-trips losslessly).

The **row-view shim**: ``trace.records`` still yields a list of
:class:`TraceRecord` objects, materialized lazily from the columns, and
assigning ``trace.records = [...]`` re-encodes the columns — so tests,
ad-hoc analysis code, and pickles of the pre-columnar format keep
working without the hot paths paying for per-row objects.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.dvi.config import DVIConfig
from repro.isa.opcodes import OpClass, Opcode

#: Bits of the per-row ``flags`` column.
FLAG_TAKEN = 1
FLAG_ELIMINATED = 2
FLAG_PROGRAM = 4
#: Set iff the row's ``free_mask`` is non-zero, so replay loops can skip
#: the ``free_masks`` column read for the ~95% of rows that free nothing.
FLAG_FREES = 8

#: Trace storage-format version.  Baked into the experiment cache keys so
#: artifacts written by the pre-columnar format (version 1, a pickled
#: list of TraceRecord objects) can never be confused with columnar ones.
TRACE_FORMAT = 2

_OPCODES = tuple(Opcode)
_OP_CLASSES = tuple(OpClass)


def pack_srcs(srcs: Tuple[int, ...]) -> int:
    """Pack a 0/1/2-tuple of source registers into one int."""
    packed = 0
    shift = 0
    for src in srcs:
        packed |= (src + 1) << shift
        shift += 6
    return packed


def unpack_srcs(packed: int) -> Tuple[int, ...]:
    """Inverse of :func:`pack_srcs`."""
    if not packed:
        return ()
    first = (packed & 0x3F) - 1
    second = packed >> 6
    if not second:
        return (first,)
    return (first, second - 1)


class TraceRecord:
    """One dynamic instruction instance (the row view).

    Attributes:
        seq: Dynamic sequence number (0-based, includes kill annotations).
        pc: Static instruction index (byte address = ``4 * pc``).
        op: Opcode.
        cls: Operation class (functional unit / latency selector).
        dst: Destination architectural register, or -1.
        srcs: Source architectural registers (r0 excluded).
        addr: Byte address touched, or -1 for non-memory ops.
        taken: For control transfers, whether the transfer was taken.
        next_pc: Static index of the next executed instruction (-1 at halt).
        free_mask: Architectural registers whose physical mappings may be
            reclaimed when this record commits (from E-DVI kills or I-DVI at
            calls/returns).
        eliminated: True for saves/restores squashed by the LVM hardware;
            such records are fetched and decoded but never dispatched.
        is_program: False only for ``kill`` annotations, which the paper
            counts as cycle overhead rather than program work.
    """

    __slots__ = (
        "seq", "pc", "op", "cls", "dst", "srcs", "addr",
        "taken", "next_pc", "free_mask", "eliminated", "is_program",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        op: Opcode,
        cls: OpClass,
        dst: int,
        srcs: Tuple[int, ...],
        addr: int,
        taken: bool,
        next_pc: int,
        free_mask: int,
        eliminated: bool,
        is_program: bool,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.cls = cls
        self.dst = dst
        self.srcs = srcs
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc
        self.free_mask = free_mask
        self.eliminated = eliminated
        self.is_program = is_program

    @property
    def is_control(self) -> bool:
        return self.cls is OpClass.BRANCH or self.cls is OpClass.JUMP

    @property
    def is_branch(self) -> bool:
        return self.cls is OpClass.BRANCH

    @property
    def is_call(self) -> bool:
        return self.op is Opcode.JAL or self.op is Opcode.JALR

    @property
    def is_return(self) -> bool:
        return self.op is Opcode.JR

    @property
    def is_mem(self) -> bool:
        return self.cls is OpClass.LOAD or self.cls is OpClass.STORE

    @property
    def is_load(self) -> bool:
        return self.cls is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.cls is OpClass.STORE

    def __repr__(self) -> str:  # pragma: no cover
        marks = []
        if self.eliminated:
            marks.append("elim")
        if self.free_mask:
            marks.append(f"free={self.free_mask:#x}")
        suffix = (" [" + ", ".join(marks) + "]") if marks else ""
        return f"<{self.seq}: pc={self.pc} {self.op.name}{suffix}>"


class Trace:
    """A complete dynamic trace plus its provenance, stored columnar."""

    __slots__ = (
        "program_name", "dvi", "completed",
        "pcs", "addrs", "next_pcs", "free_masks", "flags",
        "s_op", "s_cls", "s_dst", "s_srcs",
        "_rows", "_program_insts", "_derived",
    )

    def __init__(
        self,
        program_name: str,
        dvi: DVIConfig,
        records: Optional[List[TraceRecord]] = None,
        completed: bool = True,
    ) -> None:
        self.program_name = program_name
        self.dvi = dvi
        self.completed = completed
        self._rows: Optional[List[TraceRecord]] = None
        self._program_insts: Optional[int] = None
        self._derived: Dict[tuple, Any] = {}
        self._clear_columns()
        if records:
            self._encode_records(records)

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        program_name: str,
        dvi: DVIConfig,
        completed: bool,
        pcs: array,
        addrs: array,
        next_pcs: array,
        free_masks: array,
        flags: array,
        s_op: array,
        s_cls: array,
        s_dst: array,
        s_srcs: array,
    ) -> "Trace":
        """Adopt already-built columns (the emulator's fast path)."""
        trace = cls(program_name, dvi)
        trace.completed = completed
        trace.pcs = pcs
        trace.addrs = addrs
        trace.next_pcs = next_pcs
        trace.free_masks = free_masks
        trace.flags = flags
        trace.s_op = s_op
        trace.s_cls = s_cls
        trace.s_dst = s_dst
        trace.s_srcs = s_srcs
        return trace

    def _clear_columns(self) -> None:
        self.pcs = array("i")
        self.addrs = array("q")
        self.next_pcs = array("i")
        self.free_masks = array("q")
        self.flags = array("B")
        self.s_op = array("b")
        self.s_cls = array("b")
        self.s_dst = array("b")
        self.s_srcs = array("h")

    def _encode_records(self, records: List[TraceRecord]) -> None:
        """Rebuild every column from a list of row views."""
        self._clear_columns()
        self._program_insts = None
        self._derived = {}
        n_static = 1 + max((r.pc for r in records), default=-1)
        s_op = array("b", [-1]) * n_static
        s_cls = array("b", [-1]) * n_static
        s_dst = array("b", [-1]) * n_static
        s_srcs = array("h", [0]) * n_static
        append_pc = self.pcs.append
        append_addr = self.addrs.append
        append_next = self.next_pcs.append
        append_free = self.free_masks.append
        append_flags = self.flags.append
        for rec in records:
            pc = rec.pc
            append_pc(pc)
            append_addr(rec.addr)
            append_next(rec.next_pc)
            append_free(rec.free_mask)
            append_flags(
                (FLAG_TAKEN if rec.taken else 0)
                | (FLAG_ELIMINATED if rec.eliminated else 0)
                | (FLAG_PROGRAM if rec.is_program else 0)
                | (FLAG_FREES if rec.free_mask else 0)
            )
            s_op[pc] = rec.op
            s_cls[pc] = rec.cls
            s_srcs[pc] = pack_srcs(rec.srcs)
            # An eliminated restore reports dst=-1 (it never dispatches);
            # the static destination must come from a dispatched instance.
            if not rec.eliminated:
                s_dst[pc] = rec.dst
        self.s_op = s_op
        self.s_cls = s_cls
        self.s_dst = s_dst
        self.s_srcs = s_srcs
        self._rows = list(records)

    # ------------------------------------------------------------------
    # The row-view shim.
    # ------------------------------------------------------------------

    def _materialize(self) -> List[TraceRecord]:
        opcodes = _OPCODES
        classes = _OP_CLASSES
        s_op = self.s_op
        s_cls = self.s_cls
        s_dst = self.s_dst
        s_srcs = self.s_srcs
        rows: List[TraceRecord] = []
        append = rows.append
        seq = 0
        for pc, addr, next_pc, free_mask, fl in zip(
            self.pcs, self.addrs, self.next_pcs, self.free_masks, self.flags
        ):
            eliminated = bool(fl & FLAG_ELIMINATED)
            append(
                TraceRecord(
                    seq,
                    pc,
                    opcodes[s_op[pc]],
                    classes[s_cls[pc]],
                    -1 if eliminated else s_dst[pc],
                    unpack_srcs(s_srcs[pc]),
                    addr,
                    bool(fl & FLAG_TAKEN),
                    next_pc,
                    free_mask,
                    eliminated,
                    bool(fl & FLAG_PROGRAM),
                )
            )
            seq += 1
        return rows

    @property
    def records(self) -> List[TraceRecord]:
        """The trace as per-row objects (materialized lazily, then cached).

        The returned list is a *view*: mutating it in place (append,
        slice-delete, ...) does **not** update the columns, which remain
        the authoritative storage for ``len``, the statistics, replay,
        and pickling.  To modify a trace, *assign* a record list —
        ``trace.records = rows`` re-encodes every column.
        """
        if self._rows is None:
            self._rows = self._materialize()
        return self._rows

    @records.setter
    def records(self, records: List[TraceRecord]) -> None:
        self._encode_records(records)

    # ------------------------------------------------------------------
    # Container protocol and statistics.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def program_insts(self) -> int:
        """Original program instructions (the paper's IPC numerator)."""
        if self._program_insts is None:
            self._program_insts = sum(
                1 for fl in self.flags if fl & FLAG_PROGRAM
            )
        return self._program_insts

    @property
    def annotation_insts(self) -> int:
        """Dynamic ``kill`` annotation instances (cycle overhead only)."""
        return sum(1 for fl in self.flags if not fl & FLAG_PROGRAM)

    def derived(self, key: tuple, compute: Callable[["Trace"], Any]) -> Any:
        """``compute(self)``, memoized on this trace under ``key``.

        The timing core's per-trace pre-passes (see
        :mod:`repro.sim.ooo.renamer` and :mod:`repro.sim.ooo.frontend`)
        live here: timing sweeps replay one trace under many machine
        configurations, and each pass depends on the trace and on the
        few configuration fields its key names.  Values must be
        immutable: a value is published by one dict store, so threads
        racing on one trace at worst compute it twice.  Re-encoding the
        trace drops every value, and pickles carry none.
        """
        value = self._derived.get(key)
        if value is None:
            value = compute(self)
            self._derived[key] = value
        return value

    def op_histogram(self) -> Dict[Opcode, int]:
        by_code = [0] * len(_OPCODES)
        s_op = self.s_op
        for pc in self.pcs:
            by_code[s_op[pc]] += 1
        return {
            _OPCODES[code]: count
            for code, count in enumerate(by_code)
            if count
        }

    # ------------------------------------------------------------------
    # Pickling (explicit, versioned).
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "format": TRACE_FORMAT,
            "program_name": self.program_name,
            "dvi": self.dvi,
            "completed": self.completed,
            "pcs": self.pcs,
            "addrs": self.addrs,
            "next_pcs": self.next_pcs,
            "free_masks": self.free_masks,
            "flags": self.flags,
            "s_op": self.s_op,
            "s_cls": self.s_cls,
            "s_dst": self.s_dst,
            "s_srcs": self.s_srcs,
        }

    def __setstate__(self, state: dict) -> None:
        self._rows = None
        self._program_insts = None
        self._derived = {}
        self.program_name = state["program_name"]
        self.dvi = state["dvi"]
        self.completed = state.get("completed", True)
        if "records" in state:  # a pre-columnar (format 1) pickle
            self._clear_columns()
            self._encode_records(state["records"])
            return
        self.pcs = state["pcs"]
        self.addrs = state["addrs"]
        self.next_pcs = state["next_pcs"]
        self.free_masks = state["free_masks"]
        self.flags = state["flags"]
        self.s_op = state["s_op"]
        self.s_cls = state["s_cls"]
        self.s_dst = state["s_dst"]
        self.s_srcs = state["s_srcs"]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Trace({self.program_name!r}, rows={len(self.pcs)}, "
            f"completed={self.completed})"
        )
