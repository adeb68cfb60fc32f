"""Parity suite for the compiled backend (compile + lane engine).

``estimate_error_rate_batched(backend="compiled")`` promises
comparison-identical :class:`~repro.sim.errorrate.ErrorRateReport`
objects against the event oracle for every seed — including final
flop/latch state, under injection plans, at any lane count, and on
both the compiled C gate stage and its pure-NumPy fallback.  These
tests are that promise's acceptance gate: random circuits ×
placements × injection plans × lane counts × lane blocks (a single
lane and a ragged final block included) × gate stages against the
event backend.  The rest of the file pins the estimator's dispatch,
its counters, that a batched call reports exactly what one call per
seed does, and how the C helper is found, built and refused.
"""

import functools
import os
import shutil
import stat
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import metrics
from repro.cells import default_library
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.errors import NetlistError, SimulationError
from repro.flows import prepare_circuit
from repro.latches import SlavePlacement
from repro.netlist import NetlistBuilder
from repro.retime import grar_retime
from repro.scenarios.injectors import InjectionPlan, build_injection_plan
from repro.sim import (
    SIM_BACKENDS,
    CompiledSimulator,
    ErrorRateReport,
    estimate_error_rate,
    estimate_error_rate_batched,
)
from repro.sim import _native, batch, vector

LIBRARY = default_library()
CYCLES = 12

SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A forced NumPy-stage load outcome.
NUMPY_STAGE = (None, "disabled")

needs_compiler = pytest.mark.skipif(
    not hasattr(os, "getuid")
    or not (shutil.which("cc") or shutil.which("gcc")),
    reason="needs a POSIX host with a C compiler",
)


@functools.lru_cache(maxsize=32)
def make_case(seed, retimed=False):
    """A small random FSM cloud plus a placement and EDL set."""
    spec = CloudSpec(
        name=f"vec{seed}",
        seed=seed,
        n_inputs=4,
        n_outputs=3,
        n_flops=6,
        n_gates=60,
        depth=5,
        critical_fraction=0.3,
    )
    netlist = generate_circuit(spec, LIBRARY)
    scheme, circuit = prepare_circuit(netlist, LIBRARY)
    if retimed:
        placement = grar_retime(circuit, overhead=1.0).placement
    else:
        placement = SlavePlacement.initial()
    edl = frozenset(g.name for g in circuit.netlist.endpoints())
    return circuit, scheme, placement, edl


def event_reports(circuit, placement, edl, seeds, injection=None):
    """The oracle: one sequential event-backend run per seed."""
    return [
        estimate_error_rate(
            circuit,
            placement,
            set(edl),
            cycles=CYCLES,
            seed=s,
            backend="event",
            injection=injection,
        )
        for s in seeds
    ]


def compiled_reports(circuit, placement, edl, seeds, injection=None):
    return estimate_error_rate_batched(
        circuit,
        placement,
        set(edl),
        cycles=CYCLES,
        seeds=seeds,
        injection=injection,
    )


def make_plan(circuit, scheme, placement, seed):
    return build_injection_plan(
        circuit.netlist,
        scheme,
        cycles=CYCLES,
        seed=seed,
        sigma=0.03,
        seu_rate=0.2,
        glitch_rate=0.2,
        placement=placement,
    )


def counters_of(call):
    collector = metrics.MetricsCollector()
    with metrics.collect_into(collector):
        call()
    return collector.counters


@pytest.fixture()
def fresh_native(monkeypatch, tmp_path):
    """An unloaded helper whose temp dir is ``tmp_path`` (no cached
    object); the real helper state is restored afterwards."""
    monkeypatch.setattr(_native, "_loaded", None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.delenv("REPRO_VECTOR_NATIVE", raising=False)
    return tmp_path


class TestVectorParity:
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.booleans(),
        st.sampled_from([1, 2, 5]),
        st.booleans(),
        st.sampled_from([vector.DEFAULT_LANE_BLOCK, 2]),
        st.booleans(),
    )
    @SLOW
    def test_matches_event_backend(
        self, seed, retimed, lanes, inject, lane_block, numpy_stage
    ):
        """Random circuit × placement × plan × lanes × lane block ×
        gate stage == event."""
        circuit, scheme, placement, edl = make_case(seed % 40, retimed)
        seeds = tuple(seed + 31 * k for k in range(lanes))
        plan = (
            make_plan(circuit, scheme, placement, seed) if inject else None
        )
        loaded = NUMPY_STAGE if numpy_stage else _native.load()
        with mock.patch.object(
            vector, "DEFAULT_LANE_BLOCK", lane_block
        ), mock.patch.object(_native, "_loaded", loaded):
            got = compiled_reports(
                circuit, placement, edl, seeds, injection=plan
            )
        assert got == event_reports(
            circuit, placement, edl, seeds, injection=plan
        )

    def test_ragged_final_batch(self, monkeypatch):
        """A 4-lane block over 6 seeds: a full block plus a ragged tail."""
        monkeypatch.setattr(vector, "DEFAULT_LANE_BLOCK", 4)
        circuit, _, placement, edl = make_case(3)
        seeds = tuple(100 + k for k in range(6))
        got = compiled_reports(circuit, placement, edl, seeds)
        assert len(got) == len(seeds)
        assert all(r.backend == "compiled" for r in got)
        assert got == event_reports(circuit, placement, edl, seeds)

    def test_numpy_fallback_matches_event(self, monkeypatch):
        """With the native helper disabled the pure-NumPy gate stage
        must produce the same reports (plain and injected)."""
        monkeypatch.setattr(_native, "_loaded", NUMPY_STAGE)
        circuit, scheme, placement, edl = make_case(5, retimed=True)
        seeds = (11, 12, 13)
        plan = make_plan(circuit, scheme, placement, 5)
        for injection in (None, plan):
            got = compiled_reports(
                circuit, placement, edl, seeds, injection=injection
            )
            assert got == event_reports(
                circuit, placement, edl, seeds, injection=injection
            )

    def test_native_env_switch(self, fresh_native, monkeypatch):
        """REPRO_VECTOR_NATIVE=0 forces the NumPy stage at load time,
        and the estimator says so."""
        monkeypatch.setenv("REPRO_VECTOR_NATIVE", "0")
        assert _native.load() == (None, "disabled")
        circuit, _, placement, edl = make_case(5)
        counters = counters_of(
            lambda: compiled_reports(circuit, placement, edl, (1, 2))
        )
        assert counters["sim.stage.numpy"] == 1
        assert counters["sim.stage.fallback.disabled"] == 1
        assert "sim.stage.native" not in counters

    def test_event_cap_overflow_parity(self):
        """A too-small event cap raises the same typed error as the
        event backend (same gate and count on a single lane)."""
        circuit, _, placement, edl = make_case(7)
        errors = {}
        for backend in SIM_BACKENDS:
            with pytest.raises(SimulationError) as excinfo:
                estimate_error_rate(
                    circuit,
                    placement,
                    set(edl),
                    cycles=CYCLES,
                    seed=42,
                    backend=backend,
                    max_events_per_net=1,
                )
            errors[backend] = str(excinfo.value)
        assert errors["compiled"] == errors["event"]


class TestVectorDispatch:
    def test_sim_backends_contents(self):
        assert SIM_BACKENDS == ("event", "compiled")

    def test_vector_name_rejected(self):
        """The lane engine runs under ``compiled``; there is no
        separate ``vector`` backend in either entry point."""
        circuit, _, placement, edl = make_case(9)
        with pytest.raises(ValueError, match="backend"):
            estimate_error_rate(
                circuit, placement, set(edl), cycles=1, backend="vector"
            )
        with pytest.raises(ValueError, match="backend"):
            estimate_error_rate_batched(
                circuit, placement, set(edl), cycles=1, backend="vector"
            )

    @pytest.mark.parametrize("cycles", [0, -5])
    @pytest.mark.parametrize("backend", SIM_BACKENDS)
    def test_non_positive_cycles_rejected(self, backend, cycles):
        """No report over zero or negative cycles, on either backend,
        and nothing is compiled or counted first."""
        circuit, _, placement, edl = make_case(9)
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector), mock.patch.object(
            batch, "CompiledSimulator"
        ) as compile_, mock.patch.object(batch, "_CycleLoop") as loop:
            with pytest.raises(ValueError, match="cycles must be"):
                estimate_error_rate_batched(
                    circuit, placement, set(edl), cycles=cycles,
                    seeds=(1, 2), backend=backend,
                )
        compile_.assert_not_called()
        loop.assert_not_called()
        assert collector.counters == {}

    def test_counter_contract(self):
        """Every estimator call counts one run and cycles × lanes
        lane-cycles, on both backends and through both entry points;
        a compiled call also names the gate stage that ran."""
        circuit, _, placement, edl = make_case(9)
        for backend in SIM_BACKENDS:
            single = counters_of(lambda: estimate_error_rate(
                circuit, placement, set(edl), cycles=CYCLES, seed=4,
                backend=backend,
            ))
            batched = counters_of(lambda: estimate_error_rate_batched(
                circuit, placement, set(edl), cycles=CYCLES,
                seeds=(4, 5, 6), backend=backend,
            ))
            for lanes, counters in ((1, single), (3, batched)):
                assert counters["sim.batched.runs"] == 1
                assert counters["sim.batched.lanes"] == lanes
                assert counters["sim.cycles"] == CYCLES * lanes
                assert counters[f"sim.backend.{backend}"] == 1
                stages = [
                    counters.get(f"sim.stage.{stage}", 0)
                    for stage in ("native", "numpy")
                ]
                expected = 1 if backend == "compiled" else 0
                assert sum(stages) == expected, counters

    def test_cycles_per_sec_none_semantics(self):
        """``None`` means unmeasured and never affects comparison."""
        assert ErrorRateReport.__dataclass_fields__[
            "cycles_per_sec"
        ].compare is False
        circuit, _, placement, edl = make_case(9)
        report = estimate_error_rate(
            circuit, placement, set(edl), cycles=CYCLES, seed=3
        )
        twin = estimate_error_rate(
            circuit, placement, set(edl), cycles=CYCLES, seed=3
        )
        report.cycles_per_sec = None
        twin.cycles_per_sec = 123.0
        assert report == twin

    def test_wide_gate_is_a_typed_compile_error(self, library):
        """The compile tabulates gates of up to 10 inputs; a wider
        gate is a NetlistError naming it."""
        builder = NetlistBuilder("wide", library)
        names = [f"i{k}" for k in range(11)]
        for name in names:
            builder.input(name)
        builder.gate("g1", "AND", names[:2])
        builder.flop("f1", "g1")
        builder.output("y", "g1")
        netlist = builder.build()
        _, circuit = prepare_circuit(netlist, library)
        object.__setattr__(circuit.netlist["g1"], "fanins", tuple(names))
        with pytest.raises(NetlistError, match="'g1': 11 inputs"):
            CompiledSimulator(circuit, SlavePlacement.initial())


class TestBatchedSimulation:
    """One batched call == one single-seed call per seed, in order."""

    def test_batched_matches_sequential(self, s1196_initial):
        circuit, placement, edl = s1196_initial
        seeds = [3, 14, 2017]
        sequential = [
            estimate_error_rate(
                circuit, placement, edl, cycles=24, seed=s
            )
            for s in seeds
        ]
        batched = estimate_error_rate_batched(
            circuit, placement, edl, cycles=24, seeds=seeds
        )
        assert batched == sequential

    def test_batched_event_backend(self, s1196_initial):
        circuit, placement, edl = s1196_initial
        seeds = [1, 2]
        sequential = [
            estimate_error_rate(
                circuit, placement, edl, cycles=8, seed=s, backend="event"
            )
            for s in seeds
        ]
        batched = estimate_error_rate_batched(
            circuit, placement, edl, cycles=8, seeds=seeds, backend="event"
        )
        assert batched == sequential

    def test_batched_with_injection(self, s1196_initial):
        circuit, placement, edl = s1196_initial
        flop = next(g.name for g in circuit.netlist.flops())
        comb = next(g.name for g in circuit.netlist.comb_gates())
        plan = InjectionPlan(
            label="corner",
            delay_scale={comb: 1.2},
            seu_flips={3: (flop,), 9: (flop,)},
        )
        seeds = [5, 6]
        sequential = [
            estimate_error_rate(
                circuit, placement, edl, cycles=16, seed=s, injection=plan
            )
            for s in seeds
        ]
        batched = estimate_error_rate_batched(
            circuit, placement, edl, cycles=16, seeds=seeds, injection=plan
        )
        assert batched == sequential

    def test_batched_metrics(self, s1196_initial):
        circuit, placement, edl = s1196_initial
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            estimate_error_rate_batched(
                circuit, placement, edl, cycles=4, seeds=[1, 2, 3]
            )
        assert collector.counters["sim.batched.runs"] == 1
        assert collector.counters["sim.batched.lanes"] == 3
        assert collector.counters["sim.cycles"] == 12
        assert collector.values["sim.wall_s"].count == 1

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=0.8, max_value=1.5),
    )
    @SLOW
    def test_batched_reports_bit_identical(self, seed, scale):
        spec = CloudSpec(
            name=f"batch{seed}",
            seed=seed,
            n_inputs=4,
            n_outputs=3,
            n_flops=6,
            n_gates=70,
            depth=5,
            critical_fraction=0.3,
        )
        netlist = generate_circuit(spec, LIBRARY)
        _, circuit = prepare_circuit(netlist, LIBRARY)
        placement = SlavePlacement.initial()
        edl = {g.name for g in circuit.netlist.endpoints()}
        comb = next(g.name for g in circuit.netlist.comb_gates())
        plan = InjectionPlan(
            label=f"corner{seed}", delay_scale={comb: scale}
        )
        seeds = [seed % 97, seed % 89 + 1]
        sequential = [
            estimate_error_rate(
                circuit, placement, edl, cycles=6, seed=s, injection=plan
            )
            for s in seeds
        ]
        batched = estimate_error_rate_batched(
            circuit, placement, edl, cycles=6, seeds=seeds, injection=plan
        )
        assert batched == sequential


class TestNativeHelper:
    def test_missing_compiler_falls_back(self, fresh_native, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert _native.load() == (None, "no-compiler")
        circuit, _, placement, edl = make_case(5)
        seeds = (1, 2)
        reports = []
        counters = counters_of(
            lambda: reports.extend(
                compiled_reports(circuit, placement, edl, seeds)
            )
        )
        assert counters["sim.stage.numpy"] == 1
        assert counters["sim.stage.fallback.no-compiler"] == 1
        assert reports == event_reports(circuit, placement, edl, seeds)

    @needs_compiler
    def test_failed_compile_falls_back(self, fresh_native, monkeypatch):
        monkeypatch.setattr(_native, "_SOURCE", "not C at all")
        assert _native.load() == (None, "compile-failed")

    @needs_compiler
    def test_builds_into_private_cache(self, fresh_native):
        lib, fallback = _native.load()
        assert lib is not None and fallback is None
        cache = fresh_native / f"repro-{os.getuid()}"
        assert stat.S_IMODE(os.lstat(cache).st_mode) == 0o700
        assert [p.suffix for p in cache.iterdir()] == [".so"]
        circuit, _, placement, edl = make_case(5)
        counters = counters_of(
            lambda: compiled_reports(circuit, placement, edl, (1,))
        )
        assert counters["sim.stage.native"] == 1
        assert "sim.stage.numpy" not in counters

    @needs_compiler
    @pytest.mark.parametrize("unsafe", ["symlink", "writable", "foreign"])
    def test_refuses_unsafe_cache_dir(self, fresh_native, monkeypatch,
                                      unsafe):
        """A planted cache directory is never used: the helper builds
        in a fresh private directory instead, and still loads."""
        elsewhere = fresh_native / "elsewhere"
        elsewhere.mkdir()
        cache = fresh_native / f"repro-{os.getuid()}"
        if unsafe == "symlink":
            cache.symlink_to(elsewhere, target_is_directory=True)
        elif unsafe == "writable":
            cache.mkdir()
            cache.chmod(0o777)
        else:
            # Another user's directory: the process claims a uid that
            # does not own the (existing) cache directory.
            cache = fresh_native / "repro-4242"
            cache.mkdir(mode=0o700)
            monkeypatch.setattr(os, "getuid", lambda: 4242)
        assert _native._private_dir(str(cache)) is None
        lib, fallback = _native.load()
        assert lib is not None and fallback is None
        planted = elsewhere if unsafe == "symlink" else cache
        assert list(planted.iterdir()) == []
        # The one-off build directory is gone once the object loaded.
        assert not list(fresh_native.glob("repro-veval-*"))
