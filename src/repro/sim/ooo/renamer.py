"""MIPS R10000-style register renaming with DVI-driven early reclamation.

Standard operation: renaming a destination allocates a physical register
from the free list and remembers the previous mapping, which is freed
when the renaming instruction *commits* (the R10000 discipline); sources
resolve through the map table to the physical registers their producers
write.

DVI extends this (section 4.1, Figure 4): when a ``kill`` (or an implicit
kill at a call/return) is decoded, the mappings of the killed registers
are *unmapped immediately* — the architectural name is bound to no
physical register — and the physical registers are returned to the free
list when the killing instruction commits (freeing is unrecoverable, so
it must be non-speculative; in this trace-driven model every decoded
instruction commits, so decode-time unmapping is exact).

A read of an unmapped register returns an undefined value and is *ready
immediately*; by the DVI correctness contract such reads only ever occur
for provably dead values (e.g. a not-eliminated save of a killed
register), where "any value ... results in correct execution" (section 7).

**Renaming in row space.**  Dispatch renames in trace order, so the map
table's contents at every row are a function of the trace alone; only
the *count* of free physical registers depends on the machine.  And the
timing of a run depends on which row produces each source and how many
registers are free, never on register numbers: a physical register is
freed only after every reader of it has committed, so it cannot be
reallocated under a waiting consumer.  :func:`dataflow` therefore runs
the map table once per trace with producing *rows* in place of physical
registers and memoizes the result on the trace; the timing core keeps a
free-register count and a per-row completion array.

Conservation, in the count form the core asserts under
``check_invariants``: mapped names + free registers + registers held by
in-flight instructions (previous mappings, I-DVI frees and kill frees
awaiting a commit) == ``phys_regs``, every cycle.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.isa import registers as regs
from repro.sim.trace import FLAG_ELIMINATED, FLAG_FREES, FLAG_PROGRAM, Trace

#: Producer of a source that is ready from the start: a register still
#: holding its machine-startup value, or an unmapped (killed) one.
READY = -1
#: Map-table entry of a name bound to no physical register.
_UNMAPPED = -2
#: The ``cls`` of a row that is decoded but never dispatched: a ``kill``
#: annotation or an LVM-eliminated save/restore.
DROPPED = -1

#: Kill-mask -> architectural register tuple, memoized across all traces
#: (the I-DVI call/return masks recur millions of times per sweep).
_MASK_REGS: Dict[int, Tuple[int, ...]] = {}


def _regs_of_mask(mask: int) -> Tuple[int, ...]:
    found = _MASK_REGS.get(mask)
    if found is None:
        found = tuple(
            arch for arch in range(1, regs.NUM_REGS) if mask >> arch & 1
        )
        _MASK_REGS[mask] = found
    return found


class Dataflow(NamedTuple):
    """The renamed trace.

    ``rows[i]`` is ``(cls, src1, src2, addr, alloc, frees)`` for row
    ``i``: its op-class int (:data:`DROPPED` for rows that never
    dispatch), the rows producing its sources (:data:`READY` when the
    source needs no wait), its memory address (-1 for non-memory rows),
    1 if it allocates a physical register, and how many physical
    registers its commit frees (for a dropped row: how many its kill
    unmaps, freed when the youngest in-flight instruction commits).
    """

    rows: Tuple[tuple, ...]
    unmapped_reads: int
    dvi_unmaps: int
    allocations: int
    eliminated: int


def _unmap(arch_map: List[int], mask: int) -> int:
    """DVI kill: unbind the named registers; returns how many were bound."""
    count = 0
    for arch in _regs_of_mask(mask):
        if arch_map[arch] != _UNMAPPED:
            arch_map[arch] = _UNMAPPED
            count += 1
    return count


def dataflow(trace: Trace) -> Dataflow:
    """The trace's renamed dataflow, computed once per trace."""
    return trace.derived(("dataflow",), rename)


def rename(trace: Trace) -> Dataflow:
    """Run the DVI-aware map table over ``trace`` in row space."""
    s_cls = list(trace.s_cls)
    s_dst = list(trace.s_dst)
    s_srcs = list(trace.s_srcs)
    # Machine startup: r1-r31 hold values (ready); r0 is never mapped.
    arch_map: List[int] = [_UNMAPPED] + [READY] * (regs.NUM_REGS - 1)
    rows: List[tuple] = []
    append = rows.append
    dropped_plain = (DROPPED, READY, READY, -1, 0, 0)
    unmapped_reads = dvi_unmaps = allocations = eliminated = 0
    drop_mask = FLAG_ELIMINATED | FLAG_PROGRAM

    for row, (pc, addr, free_mask, fl) in enumerate(
        zip(trace.pcs, trace.addrs, trace.free_masks, trace.flags)
    ):
        if fl & drop_mask != FLAG_PROGRAM:  # eliminated, or a kill
            if fl & FLAG_PROGRAM:
                eliminated += 1
            if fl & FLAG_FREES:
                frees = _unmap(arch_map, free_mask)
                dvi_unmaps += frees
                if frees:
                    append((DROPPED, READY, READY, -1, 0, frees))
                    continue
            append(dropped_plain)
            continue
        # Sources resolve through the map table first (an instruction
        # never depends on itself, nor on its own I-DVI unmap).
        src1 = src2 = READY
        packed = s_srcs[pc]
        if packed:
            src1 = arch_map[(packed & 63) - 1]
            if src1 == _UNMAPPED:
                unmapped_reads += 1
                src1 = READY
            second = packed >> 6
            if second:
                src2 = arch_map[second - 1]
                if src2 == _UNMAPPED:
                    unmapped_reads += 1
                    src2 = READY
        frees = 0
        if fl & FLAG_FREES:
            # I-DVI at a call/return: unmap now, free at this commit.
            frees = _unmap(arch_map, free_mask)
            dvi_unmaps += frees
        alloc = 0
        dst = s_dst[pc]
        if dst >= 0:
            if arch_map[dst] != _UNMAPPED:
                frees += 1  # the previous mapping
            arch_map[dst] = row
            allocations += 1
            alloc = 1
        append((s_cls[pc], src1, src2, addr, alloc, frees))

    return Dataflow(
        tuple(rows), unmapped_reads, dvi_unmaps, allocations, eliminated
    )
