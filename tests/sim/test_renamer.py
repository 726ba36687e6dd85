"""Tests for R10000-style renaming with DVI early reclamation, in row space.

The renamer is a per-trace pass (:func:`repro.sim.ooo.renamer.rename`):
each row gets the rows producing its sources, whether it allocates a
physical register, and how many registers its commit frees.  Traces are
built row by row here so each case pins one renaming rule.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dvi.config import DVIConfig
from repro.isa import registers as R
from repro.isa.opcodes import OP_CLASS, Opcode
from repro.sim.config import MachineConfig
from repro.sim.ooo.core import simulate
from repro.sim.ooo.renamer import DROPPED, READY, dataflow, rename
from repro.sim.trace import Trace, TraceRecord

CLS, SRC1, SRC2, ADDR, ALLOC, FREES = range(6)


def build(*rows):
    """A trace of ``(op, dst, srcs, free_mask, eliminated)`` rows."""
    records = []
    for seq, (op, dst, srcs, free_mask, eliminated) in enumerate(rows):
        records.append(TraceRecord(
            seq, seq, op, OP_CLASS[op], -1 if eliminated else dst,
            tuple(srcs), 0x1000 if op in (Opcode.LW, Opcode.SW) else -1,
            op is Opcode.JAL or op is Opcode.JR, seq + 1, free_mask,
            eliminated, op is not Opcode.KILL,
        ))
    records.append(TraceRecord(
        len(rows), len(rows), Opcode.HALT, OP_CLASS[Opcode.HALT], -1, (),
        -1, False, -1, 0, False, True,
    ))
    return Trace("t", DVIConfig.none(), records)


def define(dst, *srcs):
    return (Opcode.ADD, dst, srcs, 0, False)


def kill(*names):
    return (Opcode.KILL, -1, (), R.mask_of(names), False)


class TestRenaming:
    def test_startup_values_read_ready(self):
        flow = rename(build((Opcode.ADD, R.T0, (R.S0, R.S1), 0, False)))
        assert flow.rows[0][SRC1] == READY
        assert flow.rows[0][SRC2] == READY
        assert flow.unmapped_reads == 0

    def test_sources_name_their_producer_rows(self):
        flow = rename(build(define(R.T0), define(R.T1), define(R.T2, R.T0, R.T1)))
        assert flow.rows[2][SRC1] == 0
        assert flow.rows[2][SRC2] == 1

    def test_redefinition_frees_the_previous_mapping(self):
        flow = rename(build(define(R.T0), define(R.T0, R.T0)))
        assert flow.rows[0][ALLOC] == 1
        assert flow.rows[0][FREES] == 1   # the startup mapping of T0
        assert flow.rows[1][SRC1] == 0    # reads before it renames
        assert flow.rows[1][FREES] == 1   # row 0's register
        assert flow.allocations == 2

    def test_rows_without_destination_do_not_allocate(self):
        flow = rename(build((Opcode.SW, -1, (R.T0, R.SP), 0, False)))
        assert flow.rows[0][ALLOC] == 0
        assert flow.rows[0][FREES] == 0
        assert flow.rows[0][ADDR] == 0x1000


class TestDVIUnmap:
    def test_kill_unmaps_and_reports(self):
        flow = rename(build(kill(R.S0)))
        assert flow.rows[0][CLS] == DROPPED
        assert flow.rows[0][FREES] == 1
        assert flow.dvi_unmaps == 1

    def test_unmap_of_unmapped_register_is_noop(self):
        flow = rename(build(kill(R.S0), kill(R.S0)))
        assert flow.rows[1][FREES] == 0
        assert flow.dvi_unmaps == 1

    def test_unmapped_source_reads_as_ready(self):
        flow = rename(build(define(R.S0), kill(R.S0), define(R.T0, R.S0)))
        assert flow.rows[2][SRC1] == READY
        assert flow.unmapped_reads == 1

    def test_redefinition_after_kill_has_no_previous(self):
        """The double-free hazard: kill unbinds, so a later redefinition
        must not free the killed register a second time."""
        flow = rename(build(kill(R.S0), define(R.S0)))
        assert flow.rows[0][FREES] == 1
        assert flow.rows[1][FREES] == 0

    def test_figure4_kill_frees_before_the_redefinition(self):
        """Figure 4: I1 defines r1, I3 kills it, I5 redefines it.  The
        kill frees I1's register; the redefinition frees nothing."""
        flow = rename(build(
            define(R.T0), define(R.T1, R.T0), kill(R.T0),
            define(R.T5), define(R.T0),
        ))
        assert flow.rows[2][FREES] == 1
        assert flow.rows[4][FREES] == 0

    def test_idvi_frees_at_calls_and_returns(self):
        """I-DVI: the call's mask unmaps after its sources resolve and
        before its destination renames, so RA in the mask is not freed
        twice; a return frees its mask at its own commit."""
        flow = rename(build(
            define(R.T0),
            (Opcode.JAL, R.RA, (), R.mask_of([R.T0, R.RA]), False),
            (Opcode.JR, -1, (R.RA,), R.mask_of([R.T1]), False),
        ))
        call, ret = flow.rows[1], flow.rows[2]
        assert call[FREES] == 2        # T0 and RA's startup mapping
        assert call[ALLOC] == 1
        assert ret[SRC1] == 1          # reads the call's RA
        assert ret[FREES] == 1         # T1
        assert flow.dvi_unmaps == 3

    def test_eliminated_rows_are_dropped(self):
        flow = rename(build(
            define(R.S0), (Opcode.SW, -1, (R.S0, R.SP), 0, True),
        ))
        assert flow.rows[1][CLS] == DROPPED
        assert flow.eliminated == 1


class TestMachineLimits:
    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            MachineConfig.micro97().with_phys_regs(20)

    def test_one_free_register_stalls_rename(self):
        trace = build(*[define(reg) for reg in (R.T0, R.T1, R.T2, R.T3)] * 8)
        stats = simulate(MachineConfig.micro97().with_phys_regs(32), trace,
                         check_invariants=True)
        assert stats.min_free_phys == 0
        assert stats.rename_stall_cycles > 0


def test_pass_is_memoized_on_the_trace():
    trace = build(define(R.T0))
    assert dataflow(trace) is dataflow(trace)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["def", "kill", "call"]),
                  st.integers(1, 31), st.integers(1, 31)),
        max_size=120,
    ),
    size=st.integers(min_value=32, max_value=48),
)
def test_conservation_under_random_def_kill_streams(ops, size):
    """Physical registers are conserved under any def/kill interleaving.

    The core asserts mapped + free + held-in-flight == ``phys_regs``
    every cycle, counting mapped names independently of the pass.
    """
    rows = []
    for op, reg, other in ops:
        if op == "def":
            rows.append(define(reg, other))
        elif op == "kill":
            rows.append(kill(reg))
        else:
            rows.append(
                (Opcode.JAL, R.RA, (), R.mask_of([reg, other]), False)
            )
    trace = build(*rows)
    stats = simulate(MachineConfig.micro97().with_phys_regs(size), trace,
                     check_invariants=True)
    assert stats.committed == len(trace) - trace.annotation_insts
