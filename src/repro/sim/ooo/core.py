"""Trace-driven out-of-order superscalar timing model.

Replays a :class:`~repro.sim.trace.Trace` through a four-stage resource
pipeline — fetch, dispatch (decode+rename), issue, commit — modelled after
SimpleScalar's ``sim-outorder`` with MIPS R10000-style renaming, which is
the paper's simulation vehicle (section 3).

Stage behaviour per cycle, in simulated order:

1. **Commit** retires up to ``commit_width`` completed instructions from
   the head of the window, freeing previous physical mappings and any
   DVI-pending physical registers attached to the retiring instruction.
2. **Issue** selects up to ``issue_width`` ready instructions oldest-first,
   subject to functional-unit and cache-port availability.  Loads and
   stores access the D-cache here; a mispredicted control transfer
   schedules the fetch redirect for its completion cycle.
3. **Dispatch** renames and inserts up to ``decode_width`` instructions
   into the window.  E-DVI ``kill`` annotations and LVM-eliminated
   saves/restores are *dropped here*: they consumed fetch/decode bandwidth
   but no window slot, no rename, no functional unit, and no cache port —
   exactly the paper's "fetched and decoded ... but not dispatched".
   Kills unmap their registers immediately and their physical registers
   are freed when the most recent dispatched instruction commits (the
   in-order-equivalent of "when the kill commits").
4. **Fetch** brings up to ``fetch_width`` trace records into the fetch
   queue, stopping at taken control transfers, I-cache misses, and
   unresolved mispredictions.

Wrong-path instructions are not simulated; the timing cost of a
misprediction is the fetch gap until the branch resolves plus the
configured redirect penalty, the standard trace-driven approximation.

Implementation notes (the perf-critical part):

Two parts of the work above do not depend on the machine configuration
being swept, so they run once per trace, outside the cycle loop, and are
memoized on the :class:`~repro.sim.trace.Trace`:

* **fetch events** (:mod:`repro.sim.ooo.frontend`) — fetch runs in trace
  order and the L1I is never back-invalidated, so the predictor, BTB,
  RAS and L1I outcome of every fetched row is fixed per frontend
  configuration.  The pass lists the rows where fetch must stop; the
  loop jumps fetch from one to the next and makes only each I-cache
  miss's L2 access, in the cycle fetch reaches it.
* **renamed dataflow** (:mod:`repro.sim.ooo.renamer`) — dispatch renames
  in trace order, so the DVI-aware map table is run once with producing
  rows in place of physical registers.  The loop keeps a free-register
  count (rename stalls, ``min_free_phys``) and a per-row completion
  array (operand readiness); it holds no physical-register numbers.

What remains is scheduling: one inlined loop over commit, issue,
dispatch and fetch.  It exists twice.  ``_cycle.c`` runs it in C when
:mod:`repro.sim.ooo.native` can build that file (on the first run in a
process); :func:`_python_loop` is the same loop in Python, the C loop's
oracle, and runs when the build is unavailable or ``REPRO_NATIVE=0``.
Both read the pre-pass outputs in place, call the Python L2 on every
L1 miss, and return the same counters.  In the Python loop in-flight
window entries are small lists (see the ``E_*`` index constants),
un-issued entries are also kept in an age-ordered ``pending`` list that
issue rescans oldest first, the L1 D-cache hit path is inlined, and
cycles in which no stage acts are fast-forwarded to the next scheduled
event.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, List, Optional

from repro.errors import SimulationError
from repro.isa import registers as regs
from repro.isa.opcodes import NUM_OP_CLASSES, OpClass
from repro.sim.cache.hierarchy import MemoryHierarchy
from repro.sim.config import MachineConfig
from repro.sim.ooo.frontend import STOP_MISPREDICT, STOP_MISS, fetch_events
from repro.sim.ooo.native import cycle_loop
from repro.sim.ooo.renamer import DROPPED, dataflow
from repro.sim.ooo.stats import PipelineStats
from repro.sim.trace import FLAG_ELIMINATED, FLAG_FREES, FLAG_PROGRAM, Trace

#: Completion cycle of an instruction that has not issued.
NEVER = 1 << 60

# Window-entry list layout (lists beat objects in the per-cycle loops).
# ``complete`` doubles as the issued flag: NEVER means not yet issued.
E_COMPLETE = 0    # cycle at which the result is available (NEVER: unissued)
E_SRC1 = 1        # row producing the first source, or -1 (ready)
E_SRC2 = 2        # row producing the second source, or -1 (ready)
E_ROW = 3         # this entry's trace row
E_FREES = 4       # physical registers freed at commit (count)
E_BLOCKS = 5      # bool: fetch stalls until this entry issues (mispredict)
E_CLS = 6         # OpClass int code
E_ADDR = 7        # memory byte address, or -1

_CLS_IMUL = int(OpClass.IMUL)
_CLS_IDIV = int(OpClass.IDIV)
_CLS_LOAD = int(OpClass.LOAD)
_CLS_STORE = int(OpClass.STORE)


class OutOfOrderCore:
    """One timing simulation of one trace on one machine configuration."""

    def __init__(self, config: MachineConfig, trace: Trace) -> None:
        self.config = config
        self.trace = trace
        #: The finished run's statistics; None until :meth:`run` returns.
        self.stats: Optional[PipelineStats] = None

    # ------------------------------------------------------------------

    def run(self, *, check_invariants: bool = False) -> PipelineStats:
        """Simulate to completion and return the statistics.

        A second call returns the same, finished statistics.
        """
        if self.stats is not None:
            return self.stats
        trace = self.trace
        config = self.config
        flow = dataflow(trace)
        frontend = fetch_events(trace, config)
        # The loops model the L1D themselves; only L1 misses call into
        # the L2, which I-cache misses share.  (The hierarchy's L1I is
        # unused: the fetch-event pass has its own.)
        hierarchy = MemoryHierarchy(config.hierarchy)
        mapped_at = _mapped_counts(trace) if check_invariants else None
        native = cycle_loop()
        if native is not None:
            counters = native.run(
                flow.rows, frontend.stops, trace.pcs,
                _native_params(config, hierarchy), _latencies(config),
                hierarchy.l2.access,
                None if mapped_at is None else (mapped_at, SimulationError),
            )
        else:
            counters = _python_loop(
                config, flow.rows, frontend.stops, trace.pcs, hierarchy, mapped_at
            )
        (cycles, committed, dispatched, rename_stalls, window_stalls,
         dcache_accesses, dcache_misses, min_free) = counters

        stats = PipelineStats()
        stats.cycles = cycles
        program_insts = trace.program_insts
        stats.program_insts = program_insts
        stats.annotation_insts = len(flow.rows) - program_insts
        stats.committed = committed
        stats.dispatched = dispatched
        stats.eliminated = flow.eliminated
        stats.rename_stall_cycles = rename_stalls
        stats.window_full_stall_cycles = window_stalls
        stats.control_insts = frontend.control_insts
        stats.mispredicts = frontend.mispredicts
        stats.dcache_accesses = dcache_accesses
        stats.dcache_misses = dcache_misses
        stats.icache_accesses = frontend.icache_accesses
        stats.icache_misses = frontend.icache_misses
        stats.unmapped_reads = flow.unmapped_reads
        stats.dvi_unmaps = flow.dvi_unmaps
        stats.min_free_phys = min_free
        self.stats = stats
        return stats


def _latencies(config: MachineConfig) -> tuple:
    """Execution latency of each op class, indexed by its int code."""
    return tuple(config.latencies[OpClass(code)] for code in range(NUM_OP_CLASSES))


def _native_params(config: MachineConfig, hierarchy: MemoryHierarchy) -> tuple:
    """The C loop's ints, in the order of ``_cycle.c``'s ``P_*`` enum."""
    h = config.hierarchy
    l1d = hierarchy.l1d
    return (
        config.commit_width, config.issue_width, config.decode_width,
        config.fetch_width, config.window_size, config.fetch_queue,
        config.int_alus, config.int_muldiv, config.mispredict_penalty,
        config.cache_ports, config.phys_regs,
        config.phys_regs - (regs.NUM_REGS - 1),
        h.l1_latency, h.l1_latency + h.l2_latency,
        h.l1_latency + h.l2_latency + h.memory_latency,
        config.latencies[OpClass.STORE],
        l1d.geometry.num_sets, h.l1d_assoc, l1d._set_shift,
        _CLS_LOAD, _CLS_STORE, _CLS_IMUL, _CLS_IDIV, DROPPED,
        STOP_MISS, STOP_MISPREDICT,
    )


def _python_loop(
    config: MachineConfig,
    rows: tuple,
    stops: tuple,
    pcs: array,
    hierarchy: MemoryHierarchy,
    mapped_at: Optional[List[int]],
) -> tuple:
    """The cycle loop in Python: the native loop's oracle.

    Returns ``(cycles, committed, dispatched, rename_stalls,
    window_stalls, dcache_accesses, dcache_misses, min_free_phys)``.
    """
    check_invariants = mapped_at is not None
    total = len(rows)
    commit_width = config.commit_width
    issue_width = config.issue_width
    decode_width = config.decode_width
    fetch_width = config.fetch_width
    window_size = config.window_size
    fetch_capacity = config.fetch_queue
    total_alus = config.int_alus
    total_muldivs = config.int_muldiv
    mispredict_penalty = config.mispredict_penalty
    h = config.hierarchy
    l1_latency = h.l1_latency
    latency_of = _latencies(config)
    store_latency = latency_of[_CLS_STORE]

    # The L1D hit path is inlined below (one dict probe per access).
    l1d = hierarchy.l1d
    l1d_sets = l1d._sets
    l1d_shift = l1d._set_shift
    l1d_set_mask = l1d._set_mask
    l1d_assoc = h.l1d_assoc
    l2_access = hierarchy.l2.access
    l1_l2_latency = l1_latency + h.l2_latency
    l1_l2_mem_latency = l1_l2_latency + h.memory_latency
    l1d_accesses = l1d_misses = 0
    last_d_line = -1
    last_d_set: dict = {}
    last_d_dirty = False

    # Per-cache-port busy-until cycle.  A port is held for the full
    # duration of an L1 miss (one outstanding miss per port -- the
    # limited non-blocking behaviour of mid-90s data caches), which
    # is what makes data bandwidth a contended resource and gives
    # save/restore elimination its bandwidth-relief benefit (section
    # 5.3's sensitivity analysis).
    ports = [0] * config.cache_ports
    n_ports = len(ports)
    # In-flight entries, oldest first (see the ``E_*`` layout).
    window: Deque[list] = deque()
    window_append = window.append
    window_popleft = window.popleft
    # Dispatched-but-unissued entries, oldest first.
    pending: List[list] = []
    # Completion cycle of each row; the extra last slot is the
    # always-ready producer that ``READY`` (-1) source rows index.
    completion = [NEVER] * total + [0]

    # Local aliases of the module-level constants (LOAD_FAST beats
    # LOAD_GLOBAL in the per-instruction loops below).
    NEVER_ = NEVER
    E_COMPLETE_ = E_COMPLETE
    E_SRC1_ = E_SRC1
    E_SRC2_ = E_SRC2
    E_ROW_ = E_ROW
    E_FREES_ = E_FREES
    E_BLOCKS_ = E_BLOCKS
    E_CLS_ = E_CLS
    E_ADDR_ = E_ADDR
    CLS_IMUL = _CLS_IMUL
    CLS_IDIV = _CLS_IDIV
    CLS_LOAD = _CLS_LOAD
    CLS_STORE = _CLS_STORE
    CLS_DROPPED = DROPPED

    # The fetch queue is the contiguous row range
    # ``[dispatch_pos, fetch_pos)``: fetch delivers rows in order and
    # dispatch consumes them in order.
    dispatch_pos = 0
    fetch_pos = 0
    cycle = 0
    fetch_blocked_until = 0
    # Row of a fetched-but-unresolved mispredicted transfer (fetch
    # stalls while it is set), or -1.
    unresolved = -1
    # The next fetch event (see repro.sim.ooo.frontend).
    stop_index = 0
    next_stop = stops[0]

    phys_regs = config.phys_regs
    free_count = phys_regs - (regs.NUM_REGS - 1)
    min_free = free_count
    win_len = 0

    committed = 0
    dispatched = 0
    rename_stalls = 0
    window_stalls = 0

    while fetch_pos < total or dispatch_pos < fetch_pos or window:
        acted = False

        # ---- stage 1: commit -------------------------------------
        budget = commit_width
        while budget and window:
            entry = window[0]
            if entry[E_COMPLETE_] > cycle:  # NEVER while unissued
                break
            window_popleft()
            win_len -= 1
            free_count += entry[E_FREES_]
            # Still ready for any consumer yet to issue; a small int
            # drops the cycle's int object, so the array holds at
            # most a window's worth of them.
            completion[entry[E_ROW_]] = 0
            budget -= 1
            committed += 1
        if budget != commit_width:
            acted = True

        # ---- stage 2: issue + execute ----------------------------
        if pending:
            alus = total_alus
            muldivs = total_muldivs
            issued = 0
            kept: List[list] = []
            kept_append = kept.append
            scan = iter(pending)
            for entry in scan:
                if completion[entry[E_SRC1_]] > cycle:
                    kept_append(entry)
                    continue
                if completion[entry[E_SRC2_]] > cycle:
                    kept_append(entry)
                    continue
                cls = entry[E_CLS_]
                if cls == CLS_LOAD or cls == CLS_STORE:
                    if ports[0] <= cycle:
                        port = 0
                    else:
                        port = -1
                        port_index = 1
                        while port_index < n_ports:
                            if ports[port_index] <= cycle:
                                port = port_index
                                break
                            port_index += 1
                        if port < 0:
                            kept_append(entry)
                            continue
                    # D-cache access, L1 inlined (see Cache.access).
                    is_write = cls == CLS_STORE
                    line = entry[E_ADDR_] >> l1d_shift
                    l1d_accesses += 1
                    if line == last_d_line:
                        # Same line as the previous data access: it is
                        # already MRU, so the LRU reorder is a no-op.
                        if is_write and not last_d_dirty:
                            last_d_set[line] = True
                            last_d_dirty = True
                        latency = l1_latency
                    else:
                        cache_set = l1d_sets[line & l1d_set_mask]
                        if line in cache_set:
                            dirty = cache_set.pop(line) or is_write
                            cache_set[line] = dirty
                            latency = l1_latency
                        else:
                            l1d_misses += 1
                            if len(cache_set) >= l1d_assoc:
                                del cache_set[next(iter(cache_set))]
                            dirty = is_write
                            cache_set[line] = dirty
                            latency = (
                                l1_l2_latency
                                if l2_access(entry[E_ADDR_], write=is_write)
                                else l1_l2_mem_latency
                            )
                        last_d_line = line
                        last_d_set = cache_set
                        last_d_dirty = dirty
                    if latency > l1_latency:
                        ports[port] = cycle + latency  # held until the fill
                    else:
                        ports[port] = cycle + 1
                    if is_write:
                        latency = store_latency
                elif cls == CLS_IMUL or cls == CLS_IDIV:
                    if muldivs <= 0:
                        kept_append(entry)
                        continue
                    muldivs -= 1
                    latency = latency_of[cls]
                else:
                    if alus <= 0:
                        kept_append(entry)
                        continue
                    alus -= 1
                    latency = latency_of[cls]
                complete = cycle + latency
                entry[E_COMPLETE_] = complete
                completion[entry[E_ROW_]] = complete
                if entry[E_BLOCKS_]:
                    fetch_blocked_until = complete + mispredict_penalty
                    unresolved = -1
                issued += 1
                if issued >= issue_width:
                    kept.extend(scan)  # C-speed drain of the rest
                    break
            pending = kept
            if issued:
                acted = True

        # ---- stage 3: dispatch (decode + rename) -----------------
        n_dispatched = 0
        while dispatch_pos < fetch_pos:
            row = dispatch_pos
            cls, src1, src2, addr, alloc, frees = rows[row]
            if cls == CLS_DROPPED:  # eliminated, or a kill
                # Decoded, not dispatched.  Its kill unmapped at
                # decode; the freed registers ride with the youngest
                # in-flight instruction and return to the free list
                # when it commits, i.e. when this annotation would
                # have committed.
                dispatch_pos += 1
                if frees:
                    if window:
                        window[-1][E_FREES_] += frees
                    else:
                        # Nothing in flight: the kill commits now.
                        free_count += frees
                acted = True
                continue
            if n_dispatched >= decode_width:
                break
            if win_len >= window_size:
                window_stalls += 1
                break
            if alloc:
                if not free_count:
                    rename_stalls += 1
                    break
                free_count -= 1
                if free_count < min_free:
                    min_free = free_count
            dispatch_pos += 1
            entry = [
                NEVER_, src1, src2, row, frees, unresolved == row,
                cls, addr,
            ]
            window_append(entry)
            win_len += 1
            pending.append(entry)
            n_dispatched += 1
        if n_dispatched:
            dispatched += n_dispatched
            acted = True

        # ---- stage 4: fetch --------------------------------------
        if cycle >= fetch_blocked_until and unresolved < 0:
            room = fetch_capacity - (fetch_pos - dispatch_pos)
            if room > fetch_width:
                room = fetch_width
            stop = fetch_pos + room
            if stop > total:
                stop = total
            if fetch_pos < stop:
                acted = True
                if next_stop < stop << 2:
                    # The next fetch event falls inside this group.
                    row = next_stop >> 2
                    kind = next_stop & 3
                    stop_index += 1
                    next_stop = stops[stop_index]
                    if kind == STOP_MISS:
                        # L1I miss: the line arrives later; resume there.
                        fetch_pos = row
                        fetch_blocked_until = cycle + (
                            l1_l2_latency
                            if l2_access(pcs[row] << 2)
                            else l1_l2_mem_latency
                        )
                    else:
                        fetch_pos = row + 1
                        if kind == STOP_MISPREDICT:
                            unresolved = row
                else:
                    fetch_pos = stop

        if acted:
            cycle += 1
        else:
            # ---- idle-cycle fast-forward -------------------------
            # No stage changed any state this cycle, so none can act
            # before the earliest *scheduled* event: the window head
            # completing, the fetch redirect/I-miss fill arriving, or
            # a pending entry becoming operand-ready (plus a cache
            # port for memory ops).  Jumping the cycle counter to
            # that event is exact — the intermediate cycles would
            # replay this one verbatim — provided the per-cycle
            # dispatch stall counters account for the skipped
            # cycles below.
            target = NEVER_
            if window:
                head_complete = window[0][E_COMPLETE_]
                if head_complete < target:  # NEVER while unissued
                    target = head_complete
            if (
                unresolved < 0
                and fetch_pos < total
                and cycle < fetch_blocked_until < target
                and fetch_pos - dispatch_pos < fetch_capacity
            ):
                target = fetch_blocked_until
            for entry in pending:
                at = cycle + 1
                ready = completion[entry[E_SRC1_]]
                if ready > at:
                    at = ready
                ready = completion[entry[E_SRC2_]]
                if ready > at:
                    at = ready
                if at >= target:
                    continue
                if entry[E_CLS_] == CLS_LOAD or entry[E_CLS_] == CLS_STORE:
                    earliest_port = min(ports)
                    if earliest_port > at:
                        at = earliest_port
                if at < target:
                    target = at
            if cycle + 1 < target < NEVER_:
                skipped = target - cycle - 1
                if dispatch_pos < fetch_pos:
                    # Dispatch was (and stays) blocked during every
                    # skipped cycle; mirror its per-cycle counter.
                    if win_len >= window_size:
                        window_stalls += skipped
                    else:
                        rename_stalls += skipped
                cycle = target
            else:
                cycle += 1
        if check_invariants:
            held = sum(entry[E_FREES_] for entry in window)
            mapped = mapped_at[dispatch_pos]
            if mapped + free_count + held != phys_regs:
                raise SimulationError(
                    f"physical register conservation violated at cycle "
                    f"{cycle}: {mapped} mapped + {free_count} free + "
                    f"{held} held in flight != {phys_regs}"
                )

    return (cycle, committed, dispatched, rename_stalls, window_stalls,
            l1d_accesses, l1d_misses, min_free)


def _mapped_counts(trace: Trace) -> List[int]:
    """Architectural names bound to a physical register, before each row.

    Computed from the trace's columns alone, independently of the
    renamer's pass, for the conservation check.
    """
    mapped = set(range(1, regs.NUM_REGS))
    counts = []
    drop_mask = FLAG_ELIMINATED | FLAG_PROGRAM
    for pc, free_mask, fl in zip(trace.pcs, trace.free_masks, trace.flags):
        counts.append(len(mapped))
        if fl & FLAG_FREES:
            mapped -= {
                arch for arch in range(1, regs.NUM_REGS) if free_mask >> arch & 1
            }
        if fl & drop_mask == FLAG_PROGRAM and trace.s_dst[pc] >= 0:
            mapped.add(trace.s_dst[pc])
    counts.append(len(mapped))
    return counts


def simulate(
    config: MachineConfig, trace: Trace, *, check_invariants: bool = False
) -> PipelineStats:
    """Convenience wrapper: run one trace through one configuration."""
    return OutOfOrderCore(config, trace).run(check_invariants=check_invariants)
