"""The C cycle loop against its oracle, the Python loop, and its loader.

``OutOfOrderCore.run`` runs the C loop (``sim/ooo/_cycle.c``) when
:mod:`repro.sim.ooo.native` could build it, else the Python loop; both
read the same pre-pass outputs, so every ``PipelineStats`` field must
agree on every input.  The differential tests below draw random machines
well outside the paper's configurations (one cache port or twenty, a
window smaller than the decode width, ``phys_regs`` at the deadlock
edge, caches that miss on every line) over fuzz programs in plain, E-DVI
and I-DVI forms.  They skip when no C compiler is present; the CI step
that runs ``scripts/core_oracle.py --loop native`` fails instead.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

from repro.dvi.config import DVIConfig, SRScheme
from repro.errors import SimulationError
from repro.experiments import parallel
from repro.experiments.parallel import Job, execute
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.isa.opcodes import DEFAULT_LATENCY, OpClass
from repro.rewrite.edvi import insert_edvi
from repro.sim.branch.predictors import PREDICTORS
from repro.sim.cache.hierarchy import HierarchyConfig
from repro.sim.config import MIN_PHYS_REGS, MachineConfig
from repro.sim.functional import run_program
from repro.sim.ooo import core, native
from repro.sim.ooo.core import simulate
from repro.sim.ooo.renamer import DROPPED, rename
from repro.workloads.fuzz import FuzzConfig, generate_program
from repro.workloads.suite import get_program

SRC = Path(__file__).resolve().parents[2] / "src"

#: The three program forms: DVI configuration and whether the E-DVI
#: rewriter annotates the binary first.
FORMS = {
    "plain": (DVIConfig.none(), False),
    "edvi": (DVIConfig.full(SRScheme.LVM_STACK), True),
    "idvi": (DVIConfig.idvi_only(), False),
}


@pytest.fixture(scope="module")
def loop():
    """The built C loop; the differential tests need it to mean anything."""
    saved = os.environ.pop("REPRO_NATIVE", None)
    try:
        module = native.cycle_loop()
    finally:
        if saved is not None:
            os.environ["REPRO_NATIVE"] = saved
    if module is None:
        pytest.skip("the C cycle loop could not be built here")
    return module


@lru_cache(maxsize=None)
def fuzz_trace(seed: int, form: str):
    dvi, annotate = FORMS[form]
    program = generate_program(seed, FuzzConfig(n_procs=6, max_loop_trips=12))
    if annotate:
        program = insert_edvi(program).program
    return run_program(program, dvi, max_steps=200_000).trace


@lru_cache(maxsize=None)
def workload_trace(name: str, form: str):
    """The first 3000 rows of a suite workload's trace."""
    dvi, annotate = FORMS[form]
    program = get_program(name)
    if annotate:
        program = insert_edvi(program).program
    return run_program(program, dvi, max_steps=3000).trace


def _small_cache(rng: random.Random, line: int):
    """(size, assoc) of a cache small enough to miss on every line."""
    assoc = rng.choice((1, 2, 4))
    return line * assoc * rng.choice((1, 2, 4)), assoc


def random_config(rng: random.Random) -> MachineConfig:
    line = rng.choice((8, 16, 32))
    l1i_size, l1i_assoc = _small_cache(rng, line)
    l1d_size, l1d_assoc = _small_cache(rng, line)
    l2_assoc = rng.choice((1, 2, 4))
    hierarchy = HierarchyConfig(
        l1i_size=l1i_size, l1i_assoc=l1i_assoc,
        l1d_size=l1d_size, l1d_assoc=l1d_assoc,
        line_bytes=line, l1_latency=rng.randint(1, 3),
        l2_size=line * l2_assoc * rng.choice((2, 4, 8)), l2_assoc=l2_assoc,
        l2_latency=rng.randint(0, 10), memory_latency=rng.randint(1, 60),
    )
    latencies = dict(DEFAULT_LATENCY)
    for cls in (OpClass.IALU, OpClass.IMUL, OpClass.IDIV, OpClass.STORE):
        latencies[cls] = rng.randint(1, 12)
    return MachineConfig(
        fetch_width=rng.randint(1, 8),
        decode_width=rng.randint(1, 8),
        issue_width=rng.randint(1, 8),
        commit_width=rng.randint(1, 8),
        window_size=rng.randint(4, 128),
        fetch_queue=rng.randint(1, 32),
        int_alus=rng.randint(1, 4),
        int_muldiv=rng.randint(1, 4),
        cache_ports=rng.randint(1, 20),
        phys_regs=rng.choice((MIN_PHYS_REGS, rng.randint(MIN_PHYS_REGS, 160))),
        mispredict_penalty=rng.randint(0, 6),
        hierarchy=hierarchy,
        latencies=latencies,
        bimodal_entries=rng.choice((2, 16)),
        gshare_entries=rng.choice((4, 64)),
        history_bits=rng.randint(1, 6),
        chooser_entries=rng.choice((2, 16)),
        local_entries=rng.choice((2, 16)),
        local_history_bits=rng.randint(1, 6),
        btb_sets=rng.choice((1, 4)),
        btb_assoc=rng.choice((1, 2)),
        ras_depth=rng.randint(1, 4),
        predictor_spec=rng.choice(PREDICTORS.names()),
    )


def both_loops(monkeypatch, config, trace, check_invariants=False):
    """``(native, python)`` statistics of one run, as plain dicts."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    fast = simulate(config, trace, check_invariants=check_invariants)
    monkeypatch.setenv("REPRO_NATIVE", "0")
    slow = simulate(config, trace, check_invariants=check_invariants)
    monkeypatch.delenv("REPRO_NATIVE")
    return dataclasses.asdict(fast), dataclasses.asdict(slow)


class TestDifferential:
    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("batch", range(4))
    def test_fuzz_programs_on_random_machines(self, loop, monkeypatch, form, batch):
        rng = random.Random(f"{form}-{batch}")
        for seed in range(batch * 10, batch * 10 + 10):
            trace = fuzz_trace(seed, form)
            config = random_config(rng)
            for check in (False, True):
                fast, slow = both_loops(monkeypatch, config, trace, check)
                assert fast == slow, (seed, config)

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("name", ("li_like", "vortex_like"))
    def test_workload_prefixes_on_random_machines(self, loop, monkeypatch, form, name):
        rng = random.Random(f"{name}-{form}")
        trace = workload_trace(name, form)
        for round_ in range(3):
            config = random_config(rng)
            fast, slow = both_loops(monkeypatch, config, trace, check_invariants=round_ == 0)
            assert fast == slow, config

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_paper_machine(self, loop, monkeypatch, form):
        trace = workload_trace("li_like", form)
        for config in (MachineConfig.micro97(), MachineConfig.micro97().with_phys_regs(34)):
            fast, slow = both_loops(monkeypatch, config, trace, check_invariants=True)
            assert fast == slow
            assert fast["committed"] == fast["dispatched"] > 0

    def test_buffers_are_sized_from_the_config(self, loop, monkeypatch):
        """No fixed cap: more ports, units and window than any preset."""
        config = dataclasses.replace(
            MachineConfig.micro97(), cache_ports=64, int_alus=40, int_muldiv=40,
            issue_width=64, commit_width=64, decode_width=64, fetch_width=64,
            fetch_queue=256, window_size=512, phys_regs=600,
        )
        fast, slow = both_loops(monkeypatch, config, workload_trace("vortex_like", "edvi"))
        assert fast == slow

    def test_both_loops_report_a_conservation_violation_alike(self, loop, monkeypatch):
        trace = workload_trace("li_like", "edvi")
        flow = rename(trace)
        rows = list(flow.rows)
        row = next(i for i, r in enumerate(rows) if r[0] != DROPPED and r[5])
        rows[row] = rows[row][:5] + (rows[row][5] - 1,)
        altered = flow._replace(rows=tuple(rows))
        config = MachineConfig.micro97().with_phys_regs(40)
        messages = []
        for setting in (None, "0"):
            if setting is None:
                monkeypatch.delenv("REPRO_NATIVE", raising=False)
            else:
                monkeypatch.setenv("REPRO_NATIVE", setting)
            fresh = workload_trace.__wrapped__("li_like", "edvi")
            fresh.derived(("dataflow",), lambda _trace: altered)
            with pytest.raises(SimulationError, match="conservation") as raised:
                simulate(config, fresh, check_invariants=True)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# The loader.
# ----------------------------------------------------------------------

def _has_compiler() -> bool:
    return shutil.which(native.compiler_command()[0]) is not None


needs_compiler = pytest.mark.skipif(not _has_compiler(), reason="no C compiler")


@pytest.fixture
def private_source(tmp_path, monkeypatch):
    """A private copy of ``_cycle.c`` the loader builds on first use."""
    source = tmp_path / "_cycle.c"
    shutil.copyfile(native.SOURCE, source)
    monkeypatch.setattr(native, "SOURCE", source)
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    return source


class TestLoader:
    def test_repro_native_0_selects_the_python_loop(self, monkeypatch):
        calls = []
        python_loop = core._python_loop
        monkeypatch.setattr(
            core, "_python_loop", lambda *args: calls.append(1) or python_loop(*args)
        )
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert native.cycle_loop() is None
        simulate(MachineConfig.micro97(), fuzz_trace(2, "plain"))
        assert calls == [1]

    def test_build_is_lazy(self):
        """Importing the core builds nothing: only a simulate does."""
        code = ("import repro.sim.ooo.core, repro.sim.ooo.native as n, sys; "
                "sys.exit(1 if n._loaded else 0)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    @pytest.mark.parametrize("breakage", ("missing-cc", "readonly", "not-a-directory"))
    def test_an_unbuildable_loop_falls_back_once(
        self, private_source, monkeypatch, capsys, request, breakage
    ):
        cache_dir = private_source.parent / "__pycache__"
        if breakage == "missing-cc":
            monkeypatch.setenv("CC", str(private_source.parent / "no-such-cc"))
        elif breakage == "readonly":
            if os.geteuid() == 0:
                pytest.skip("root writes through a read-only directory")
            cache_dir.mkdir()
            cache_dir.chmod(0o555)
            request.addfinalizer(lambda: cache_dir.chmod(0o755))
        else:
            cache_dir.write_text("in the way")
        trace = fuzz_trace(2, "edvi")
        config = MachineConfig.micro97().with_phys_regs(34)
        first = simulate(config, trace)
        second = simulate(config, trace)
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1 and "Python loop" in warnings[0]
        assert native._loaded == {"module": None}
        monkeypatch.setenv("REPRO_NATIVE", "0")
        oracle = dataclasses.asdict(simulate(config, trace))
        assert dataclasses.asdict(first) == dataclasses.asdict(second) == oracle

    @needs_compiler
    def test_concurrent_builds_leave_one_intact_file(self, private_source):
        start = time.time() + 1.0
        code = (f"import time, pathlib; time.sleep(max(0, {start} - time.time())); "
                "from repro.sim.ooo import native; "
                f"native.build(pathlib.Path({str(private_source)!r}))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        builders = [subprocess.Popen([sys.executable, "-c", code], env=env)
                    for _ in range(2)]
        assert [builder.wait(timeout=120) for builder in builders] == [0, 0]
        built = sorted(p.name for p in (private_source.parent / "__pycache__").iterdir())
        assert built == [native.built_path(private_source).name]
        module = native.build(private_source)
        assert callable(module.run)

    @pytest.mark.parametrize("kind", ("timed", "functional"))
    def test_a_pooled_execute_builds_the_loop_once_up_front(self, monkeypatch, kind):
        """Timing cells sent to a pool make the parent build the loop
        first, so the workers do not each compile it."""
        calls = []
        monkeypatch.setattr(parallel, "cycle_loop", lambda: calls.append(1))
        context = ExperimentContext(ExperimentProfile.tiny(), jobs=2)
        if kind == "timed":
            machine = MachineConfig.micro97()
            jobs = [Job(kind, "li_like", DVIConfig.none(), machine=config)
                    for config in (machine, machine.with_phys_regs(34))]
        else:
            jobs = [Job(kind, "li_like", DVIConfig.none(), live_hist=flag)
                    for flag in (False, True)]
        assert execute(jobs, context) == 2
        assert calls == ([1] if kind == "timed" else [])

    @needs_compiler
    @pytest.mark.parametrize("method", ("fork", "spawn"))
    def test_pool_workers_run_native_cells(self, loop, method):
        context = multiprocessing.get_context(method)
        with context.Pool(1) as pool:
            loaded, stats = pool.apply(_worker_cell, (3,))
        assert loaded
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setenv("REPRO_NATIVE", "0")
            expected = dataclasses.asdict(simulate(MachineConfig.micro97(), fuzz_trace(3, "idvi")))
        assert stats == expected


def _worker_cell(seed):
    """Run one timing cell in a pool worker; report which loop ran it."""
    os.environ.pop("REPRO_NATIVE", None)
    stats = simulate(MachineConfig.micro97(), fuzz_trace(seed, "idvi"))
    return native.cycle_loop() is not None, dataclasses.asdict(stats)
