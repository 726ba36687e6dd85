"""The fetch-event pass: branch prediction and the I-cache, once per trace.

Fetch delivers trace rows strictly in trace order, so the branch
predictor, BTB and return-address stack see the same control transfers
in the same order under every machine configuration.  The L1 I-cache
sees the same line probes too: fetch probes a row exactly when its line
differs from the previous row's, and the unified L2 never
back-invalidates the L1I.  What a run's timing needs from all of them is
therefore a function of the trace and the *frontend* configuration
alone: the rows at which fetch must stop.

:func:`fetch_events` runs the frontend over the trace once per distinct
frontend (:func:`frontend_key`) and memoizes the result on the trace.
The timing core then jumps fetch from event to event; only an I-cache
miss's L2 access, whose latency depends on the L2 state the data side
shares, is made in the cycle fetch reaches the miss.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from repro.isa.opcodes import OpClass, Opcode
from repro.sim.branch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.sim.branch.predictors import build_predictor
from repro.sim.cache.cache import Cache, CacheGeometry
from repro.sim.config import MachineConfig
from repro.sim.trace import FLAG_TAKEN, Trace

# Event kinds, in the low two bits of an event code ``row << 2 | kind``.
# Codes sort by row and, within a row, put the miss (before the row is
# fetched) ahead of the control stops (after it is fetched).
#: An L1I miss: fetch stalls before the row for the L2 access.
STOP_MISS = 0
#: A correctly predicted taken transfer: fetch stops after the row.
STOP_TAKEN = 1
#: A mispredicted transfer: fetch stops after the row until it resolves.
STOP_MISPREDICT = 2
#: Closes every event tuple, so the core never bounds-checks it.
STOP_END = 1 << 62

_CLS_BRANCH = int(OpClass.BRANCH)
_CLS_JUMP = int(OpClass.JUMP)
_OP_J = int(Opcode.J)
_OP_JAL = int(Opcode.JAL)
_OP_JALR = int(Opcode.JALR)


class FetchEvents(NamedTuple):
    """Where fetch stops on one trace under one frontend, plus totals."""

    stops: Tuple[int, ...]
    control_insts: int
    mispredicts: int
    icache_accesses: int
    icache_misses: int


def frontend_key(config: MachineConfig) -> tuple:
    """Every configuration field the fetch-event pass reads."""
    hierarchy = config.hierarchy
    return (
        config.predictor_spec,
        config.bimodal_entries,
        config.gshare_entries,
        config.history_bits,
        config.chooser_entries,
        config.local_entries,
        config.local_history_bits,
        config.btb_sets,
        config.btb_assoc,
        config.ras_depth,
        hierarchy.l1i_size,
        hierarchy.l1i_assoc,
        hierarchy.line_bytes,
    )


def fetch_events(trace: Trace, config: MachineConfig) -> FetchEvents:
    """The trace's fetch events under ``config``'s frontend (memoized)."""
    return trace.derived(
        ("fetch",) + frontend_key(config),
        lambda trace: run_frontend(trace, config),
    )


def run_frontend(trace: Trace, config: MachineConfig) -> FetchEvents:
    """Replay the predictor, BTB, RAS and L1I over ``trace`` in order."""
    hierarchy = config.hierarchy
    l1i = Cache(CacheGeometry(
        "L1I", hierarchy.l1i_size, hierarchy.l1i_assoc,
        hierarchy.line_bytes, hierarchy.l1_latency,
    ))
    probe = l1i.access
    line_shift = l1i._set_shift
    predict_and_update = build_predictor(config).predict_and_update
    btb = BranchTargetBuffer(config.btb_sets, config.btb_assoc)
    btb_lookup = btb.lookup
    btb_insert = btb.insert
    ras = ReturnAddressStack(config.ras_depth)
    s_cls = list(trace.s_cls)
    s_op = list(trace.s_op)

    stops: List[int] = []
    append = stops.append
    control_insts = mispredicts = 0
    last_line = -1
    for row, (pc, next_pc, fl) in enumerate(
        zip(trace.pcs, trace.next_pcs, trace.flags)
    ):
        # Byte-address form: (pc << 2) >> shift is the line for every
        # line size CacheGeometry permits, sub-word lines included.
        line = (pc << 2) >> line_shift
        if line != last_line:
            last_line = line
            if not probe(pc << 2):
                append(row << 2 | STOP_MISS)
        cls = s_cls[pc]
        if cls != _CLS_BRANCH and cls != _CLS_JUMP:
            continue
        control_insts += 1
        taken = fl & FLAG_TAKEN
        if cls == _CLS_BRANCH:
            mispredicted = not predict_and_update(pc, taken)
            if taken:
                if not mispredicted and btb_lookup(pc) != next_pc:
                    mispredicted = True
                btb_insert(pc, next_pc)
        else:
            op = s_op[pc]
            if op == _OP_J:
                mispredicted = False
            elif op == _OP_JAL:
                ras.push(pc + 1)
                mispredicted = False
            elif op == _OP_JALR:
                ras.push(pc + 1)
                predicted = btb_lookup(pc)
                btb_insert(pc, next_pc)
                mispredicted = predicted != next_pc
            else:
                # jr: predict through the return stack.
                mispredicted = ras.pop() != next_pc
        if mispredicted:
            mispredicts += 1
            append(row << 2 | STOP_MISPREDICT)
        elif taken:
            append(row << 2 | STOP_TAKEN)
    append(STOP_END)
    return FetchEvents(
        tuple(stops), control_insts, mispredicts, l1i.accesses, l1i.misses
    )
