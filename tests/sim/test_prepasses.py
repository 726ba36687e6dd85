"""The timing core's per-trace pre-passes and their memo on the trace.

The fetch-event pass is keyed by the frontend fields of the machine
configuration; the renamer's dataflow pass by nothing but the trace.
These tests pin that each memo is reused exactly when its inputs are
unchanged, is dropped when the trace changes, never reaches a pickle,
and that the core's conservation check catches a pass that loses a
register.
"""

import dataclasses
import pickle
import threading

import pytest

from repro.errors import SimulationError
from repro.sim.config import MachineConfig
from repro.sim.functional import run_program
from repro.sim.ooo.core import OutOfOrderCore, simulate
from repro.sim.ooo.frontend import fetch_events, frontend_key, run_frontend
from repro.sim.ooo.renamer import DROPPED, dataflow, rename
from repro.workloads.suite import get_program

#: Configuration fields the fetch-event pass reads (``hierarchy.*`` are
#: HierarchyConfig fields).  The sizing fields of every predictor are
#: keyed whichever predictor is selected: conservative, and no sweep
#: varies an unselected predictor's sizing.
FRONTEND = {
    "predictor_spec", "bimodal_entries", "gshare_entries", "history_bits",
    "chooser_entries", "local_entries", "local_history_bits",
    "btb_sets", "btb_assoc", "ras_depth",
    "hierarchy.l1i_size", "hierarchy.l1i_assoc", "hierarchy.line_bytes",
}


@pytest.fixture(scope="module")
def trace_bytes():
    trace = run_program(get_program("li_like")).trace
    trace.records = trace.records[:6000]
    return pickle.dumps(trace)


def fresh(trace_bytes):
    return pickle.loads(trace_bytes)


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value * 2
    if isinstance(value, dict):  # the latency table
        return {key: latency + 1 for key, latency in value.items()}
    return {"comb": "gshare", "micro97": "compact"}[value]


def _variants():
    """(field name, config with only that field changed), for every field."""
    base = MachineConfig.micro97()
    for field in dataclasses.fields(MachineConfig):
        if field.name == "hierarchy":
            continue
        yield field.name, dataclasses.replace(
            base, **{field.name: _changed(getattr(base, field.name))}
        )
    for field in dataclasses.fields(base.hierarchy):
        hierarchy = dataclasses.replace(
            base.hierarchy,
            **{field.name: _changed(getattr(base.hierarchy, field.name))},
        )
        yield "hierarchy." + field.name, dataclasses.replace(
            base, hierarchy=hierarchy
        )


class TestFetchEventMemo:
    @pytest.mark.parametrize("name,config", list(_variants()),
                             ids=[name for name, _ in _variants()])
    def test_field_changes_key_or_reuses_an_equal_result(
        self, trace_bytes, name, config
    ):
        base = MachineConfig.micro97()
        trace = fresh(trace_bytes)
        fetch_events(trace, base)  # warm the memo under the base key
        changed_key = frontend_key(config) != frontend_key(base)
        # Frontend fields split the memo; no other field does.
        assert changed_key == (name in FRONTEND)
        assert fetch_events(trace, config) == run_frontend(
            fresh(trace_bytes), config
        )

    def test_frontend_sweep_reuses_one_pass(self, trace_bytes):
        trace = fresh(trace_bytes)
        base = MachineConfig.micro97()
        first = fetch_events(trace, base)
        assert fetch_events(trace, base.with_phys_regs(40)) is first
        assert fetch_events(trace, base.with_icache(1024)) is not first


class TestMemoLifetime:
    def test_reencoding_drops_both_memos(self):
        trace = run_program(get_program("vortex_like")).trace
        config = MachineConfig.micro97()
        simulate(config, trace)
        trace.records = trace.records[:4000]
        assert len(dataflow(trace).rows) == 4000
        assert dataflow(trace) == rename(trace)
        assert fetch_events(trace, config) == run_frontend(trace, config)

    def test_pickles_carry_no_memo(self, trace_bytes):
        trace = fresh(trace_bytes)
        simulate(MachineConfig.micro97(), trace)
        assert pickle.dumps(trace) == trace_bytes

    def test_memo_values_are_immutable(self, trace_bytes):
        trace = fresh(trace_bytes)
        flow = dataflow(trace)
        events = fetch_events(trace, MachineConfig.micro97())
        assert isinstance(flow.rows, tuple)
        assert all(isinstance(row, tuple) for row in flow.rows)
        assert isinstance(events.stops, tuple)

    def test_racing_threads_agree(self, trace_bytes):
        trace = fresh(trace_bytes)
        config = MachineConfig.micro97()
        barrier = threading.Barrier(4, timeout=30)
        results = []

        def race():
            barrier.wait()
            results.append((dataflow(trace), fetch_events(trace, config)))

        threads = [threading.Thread(target=race) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(results) == 4
        assert all(result == results[0] for result in results)


class TestConservationCheck:
    def test_a_pass_that_drops_one_free_is_caught(self, trace_bytes):
        trace = fresh(trace_bytes)
        flow = rename(trace)
        rows = list(flow.rows)
        row = next(i for i, r in enumerate(rows) if r[0] != DROPPED and r[5])
        rows[row] = rows[row][:5] + (rows[row][5] - 1,)
        altered = flow._replace(rows=tuple(rows))
        trace.derived(("dataflow",), lambda _trace: altered)
        config = MachineConfig.micro97().with_phys_regs(40)
        with pytest.raises(SimulationError, match="conservation"):
            simulate(config, trace, check_invariants=True)

    def test_the_true_pass_conserves(self, trace_bytes):
        config = MachineConfig.micro97().with_phys_regs(40)
        stats = simulate(config, fresh(trace_bytes), check_invariants=True)
        assert stats.rename_stall_cycles > 0


def test_a_second_run_returns_the_finished_stats_unchanged():
    trace = run_program(get_program("li_like")).trace
    core = OutOfOrderCore(MachineConfig.micro97(), trace)
    first = core.run()
    finished = dataclasses.asdict(first)
    assert finished["committed"] > 0
    assert core.run() is first
    assert dataclasses.asdict(first) == finished
