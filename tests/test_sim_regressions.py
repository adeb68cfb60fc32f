"""Regression tests for the Table VIII simulator bug-fix PR.

Each test class pins one fix:

* :class:`TestEventCap` — ``_evaluate_gate`` used to *truncate* the
  candidate-event list to ``max_events_per_net`` (64), silently
  dropping the latest events — exactly the ones that land in the
  resiliency window.  It now keeps every event up to a generous hard
  cap and raises a typed :class:`SimulationError` past it.
* :class:`TestSettledCapture` — ``estimate_error_rate`` sampled the
  next-cycle flop state at ``window_close`` while claiming settled
  capture; it now uses the waveform's final value.
* :class:`TestMinDelayDiagnostics` — the min-delay (hold) DP, now
  :class:`TimingEngine`'s min arrivals, crashed with a bare
  ``min() arg is an empty sequence`` / ``KeyError`` on malformed
  netlists; it now raises :class:`TimingError` naming the gate.
* :class:`TestEndpointWithoutFanins` — ``run_cycle`` raised an opaque
  error for an endpoint with no fanins; both backends now raise
  :class:`NetlistError` naming the endpoint.
* :class:`TestBackendParity` — the compiled backend's acceptance
  gate: bit-identical :class:`ErrorRateReport` versus the event
  backend.
* :class:`TestWaveformInvariants` — randomized invariants of the
  waveform primitives both backends rely on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import metrics
from repro.cells import default_library
from repro.clocks.scheme import ClockScheme
from repro.errors import NetlistError, SimulationError, TimingError
from repro.flows import prepare_circuit, run_flow
from repro.latches import SlavePlacement
from repro.netlist import NetlistBuilder
from repro.retime import base_retime
from repro.sim import (
    MAX_EVENTS_PER_NET,
    CompiledSimulator,
    TimedSimulator,
    Waveform,
    estimate_error_rate,
)
from repro.sim.logicsim import _append_preempt
from repro.sim.vectors import VectorSource
from repro.sta import TimingEngine


def _tiny_netlist(library):
    """A fresh copy of the 6-gate/1-flop hand-checkable circuit.

    Built locally (not the session-scoped fixture) because several
    tests corrupt the netlist in place.
    """
    builder = NetlistBuilder("tiny", library)
    for name in ("a", "b", "c"):
        builder.input(name)
    builder.gate("g1", "NAND", ["a", "b"])
    builder.gate("g2", "XOR", ["g1", "c"])
    builder.gate("g3", "INV", ["g2"])
    builder.flop("f1", "g3")
    builder.gate("g4", "AND", ["f1", "a"])
    builder.output("y", "g4")
    return builder.build()


class TestEventCap:
    """The truncation bug: events past ``max_events_per_net`` vanished."""

    def test_long_event_train_keeps_final_value(self, library):
        """A >64-transition input must still settle to the correct
        output value.  The old code truncated the candidate list at 64
        — an odd/even alternation then settled on the *wrong* value."""
        netlist = _tiny_netlist(library)
        _, circuit = prepare_circuit(netlist, library)
        simulator = TimedSimulator(circuit)
        inverter = circuit.netlist["g3"]
        # 99 alternating transitions; truncating at 64 leaves the
        # input "stuck" at the 64th value (0) instead of the last (1).
        wave = Waveform(
            initial=0,
            events=[(0.001 * k, k % 2) for k in range(1, 100)],
        )
        assert wave.final == 1
        out = simulator._evaluate_gate(inverter, [wave])
        assert out.final == 0  # INV of the *true* final input

    def test_overflow_raises_typed_error_with_payload(self, library):
        netlist = _tiny_netlist(library)
        _, circuit = prepare_circuit(netlist, library)
        simulator = TimedSimulator(circuit, max_events_per_net=8)
        inverter = circuit.netlist["g3"]
        wave = Waveform(
            initial=0,
            events=[(0.001 * k, k % 2) for k in range(1, 40)],
        )
        with pytest.raises(SimulationError) as excinfo:
            simulator._evaluate_gate(inverter, [wave])
        error = excinfo.value
        assert "g3" in str(error)
        assert error.payload["gate"] == "g3"
        assert error.payload["n_events"] == 39
        assert error.payload["max_events_per_net"] == 8

    def test_overflow_counted_in_metrics(self, library):
        netlist = _tiny_netlist(library)
        _, circuit = prepare_circuit(netlist, library)
        simulator = TimedSimulator(circuit, max_events_per_net=8)
        inverter = circuit.netlist["g3"]
        wave = Waveform(
            initial=0,
            events=[(0.001 * k, k % 2) for k in range(1, 40)],
        )
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            with pytest.raises(SimulationError):
                simulator._evaluate_gate(inverter, [wave])
        assert collector.counters["sim.event_overflow.gates"] == 1
        assert collector.counters["sim.event_overflow.dropped_events"] == 31

    def test_default_cap_is_generous(self, small_prepared):
        """The cap is a modeling-envelope guard, not a perf budget: it
        must sit far above anything a real cycle produces."""
        _, circuit = small_prepared
        assert MAX_EVENTS_PER_NET >= 4096
        assert TimedSimulator(circuit).max_events_per_net == MAX_EVENTS_PER_NET

    def test_cli_maps_simulation_error_to_exit_code(self):
        from repro.cli import EXIT_SIM, _exit_code

        assert _exit_code(SimulationError("boom")) == EXIT_SIM == 8

    def test_compiled_kernel_enforces_same_cap(self, small_prepared):
        """The compiled backend honours ``max_events_per_net`` like the
        event backend: an absurdly small cap must raise, not truncate."""
        _, circuit = small_prepared
        placement = SlavePlacement.initial()
        endpoints = {g.name for g in circuit.netlist.endpoints()}
        errors = {}
        for backend in ("event", "compiled"):
            with pytest.raises(SimulationError) as excinfo:
                estimate_error_rate(
                    circuit, placement, endpoints, cycles=4,
                    backend=backend, max_events_per_net=1,
                )
            errors[backend] = excinfo.value.payload
        assert errors["compiled"]["max_events_per_net"] == 1
        assert errors["compiled"] == errors["event"]


class TestSettledCapture:
    """The capture-state bug: flop state sampled at ``window_close``
    instead of the settled (final) waveform value."""

    @pytest.fixture()
    def tight_circuit(self, library):
        """The tiny circuit under a clock so aggressive that data
        keeps arriving *after* the resiliency window closes — the
        regime where sampled and settled values diverge."""
        netlist = _tiny_netlist(library)
        from repro.sta import TimingEngine

        worst = TimingEngine(netlist.copy(), library).worst_arrival()
        tight = ClockScheme(
            phi1=0.1 * worst,
            gamma1=0.15 * worst,
            phi2=0.1 * worst,
            gamma2=0.15 * worst,
        )
        _, circuit = prepare_circuit(netlist, library, scheme=tight)
        return circuit

    def _reference_states(self, circuit, cycles, seed):
        """Lockstep event-driven rerun of ``estimate_error_rate``'s
        state recurrence, capturing both the settled (correct) and the
        window-close-sampled (buggy) flop sequences."""
        scheme = circuit.scheme
        placement = SlavePlacement.initial()
        simulator = TimedSimulator(circuit)
        source = VectorSource(
            [g.name for g in circuit.netlist.inputs()], seed=seed
        )
        flops = [g.name for g in circuit.netlist.flops()]
        settled = {name: 0 for name in flops}
        state = {}
        diverged = False
        for _ in range(cycles):
            launch = dict(settled)
            launch.update(source.next_vector())
            waves = simulator.run_cycle(launch, placement, state)
            for name in flops:
                wave = waves[f"{name}::d"]
                if wave.final != wave.value_at(scheme.window_close):
                    diverged = True
                settled[name] = wave.final
        return settled, state, diverged

    @pytest.mark.parametrize("backend", ["event", "compiled"])
    def test_next_cycle_state_is_settled_value(self, tight_circuit, backend):
        cycles, seed = 8, 3
        settled, latch_state, diverged = self._reference_states(
            tight_circuit, cycles, seed
        )
        # Guard: the scenario must actually exercise the divergence,
        # otherwise this test could pass against the old sampling code.
        assert diverged
        endpoints = {g.name for g in tight_circuit.netlist.endpoints()}
        report = estimate_error_rate(
            tight_circuit,
            SlavePlacement.initial(),
            endpoints,
            cycles=cycles,
            seed=seed,
            backend=backend,
        )
        assert report.final_flop_state == settled
        assert report.final_latch_state == latch_state

    def test_unknown_backend_rejected(self, tight_circuit):
        with pytest.raises(ValueError, match="backend"):
            estimate_error_rate(
                tight_circuit, SlavePlacement.initial(), set(),
                cycles=1, backend="quantum",
            )


class TestMinDelayDiagnostics:
    """Malformed netlists must produce a :class:`TimingError` naming
    the gate, not a bare ``min()``/``KeyError`` crash."""

    def test_comb_gate_without_fanins(self, library):
        netlist = _tiny_netlist(library)
        object.__setattr__(netlist["g2"], "fanins", ())
        analysis = TimingEngine(netlist, library)
        with pytest.raises(TimingError, match="g2"):
            analysis.min_endpoint_arrival("y")

    def test_comb_gate_reading_an_endpoint(self, library):
        """A fanin outside the combinational cloud (here: the PO
        ``y``) has no min arrival; the old DP died with a KeyError."""
        netlist = _tiny_netlist(library)
        object.__setattr__(netlist["g1"], "fanins", ("a", "y"))
        analysis = TimingEngine(netlist, library)
        with pytest.raises(TimingError, match="g1"):
            analysis.min_endpoint_arrival("y")

    def test_endpoint_without_fanins(self, library):
        netlist = _tiny_netlist(library)
        object.__setattr__(netlist["y"], "fanins", ())
        analysis = TimingEngine(netlist, library)
        with pytest.raises(TimingError, match="y"):
            analysis.min_endpoint_arrival("y")


class TestEndpointWithoutFanins:
    """Both simulation backends must reject an endpoint with no data
    input with a :class:`NetlistError` naming it."""

    @pytest.fixture()
    def corrupted_circuit(self, library):
        netlist = _tiny_netlist(library)
        _, circuit = prepare_circuit(netlist, library)
        # Corrupt *after* preparation: prepare_circuit's own STA
        # already rejects the malformed netlist up front.
        object.__setattr__(circuit.netlist["y"], "fanins", ())
        return circuit

    def test_event_backend(self, corrupted_circuit):
        simulator = TimedSimulator(corrupted_circuit)
        launch = {
            g.name: 1 for g in corrupted_circuit.netlist.sources()
        }
        with pytest.raises(NetlistError, match="y"):
            simulator.run_cycle(launch, SlavePlacement.initial(), {})

    def test_compiled_backend_rejects_at_compile_time(
        self, corrupted_circuit
    ):
        with pytest.raises(NetlistError, match="y"):
            CompiledSimulator(corrupted_circuit, SlavePlacement.initial())


class TestBackendParity:
    """The compiled backend's acceptance gate: bit-identical reports.

    ``ErrorRateReport.__eq__`` covers ``cycles``, ``error_cycles``,
    ``per_endpoint``, ``non_edl_violations`` and the final flop/latch
    state (``backend`` and ``cycles_per_sec`` are excluded from
    comparison by construction).
    """

    def _compare(self, circuit, placement, edl, cycles, seed):
        event = estimate_error_rate(
            circuit, placement, edl, cycles=cycles, seed=seed,
            backend="event",
        )
        compiled = estimate_error_rate(
            circuit, placement, edl, cycles=cycles, seed=seed,
            backend="compiled",
        )
        assert event.backend == "event"
        assert compiled.backend == "compiled"
        assert compiled == event
        # Equality spelled out, so a future compare=False regression
        # on a field cannot silently weaken this gate.
        assert compiled.error_cycles == event.error_cycles
        assert compiled.per_endpoint == event.per_endpoint
        assert compiled.non_edl_violations == event.non_edl_violations
        assert compiled.final_flop_state == event.final_flop_state
        assert compiled.final_latch_state == event.final_latch_state

    def test_parity_initial_placement(self, small_prepared):
        _, circuit = small_prepared
        placement = SlavePlacement.initial()
        edl = circuit.edl_endpoints(placement)
        self._compare(circuit, placement, edl, cycles=48, seed=2017)

    def test_parity_retimed_placement(self, small_prepared):
        _, circuit = small_prepared
        result = base_retime(circuit, overhead=1.0)
        edl = circuit.edl_endpoints(result.placement)
        self._compare(circuit, result.placement, edl, cycles=48, seed=11)

    def test_parity_suite_circuit_grar(self, s1196, library):
        """An EDL placement from the paper's own flow on a suite
        circuit — the configuration Table VIII actually measures."""
        outcome = run_flow("grar", s1196.copy(), library, overhead=1.0)
        self._compare(
            outcome.circuit,
            outcome.retiming.placement,
            outcome.edl_endpoints,
            cycles=24,
            seed=7,
        )

    def test_lockstep_waveforms_and_state(self, small_prepared):
        """Stronger than end-of-run parity: after every cycle, the
        error counts and the whole flop and latch state must match."""
        _, circuit = small_prepared
        placement = base_retime(circuit, overhead=1.0).placement
        edl = circuit.edl_endpoints(placement)
        for cycles in range(1, 13):
            event, compiled = (
                estimate_error_rate(
                    circuit, placement, edl, cycles=cycles, seed=23,
                    backend=backend,
                )
                for backend in ("event", "compiled")
            )
            assert compiled == event, cycles
            assert compiled.final_latch_state == event.final_latch_state


# -- randomized invariants of the waveform primitives ----------------------

_times = st.floats(
    min_value=0.0, max_value=10.0,
    allow_nan=False, allow_infinity=False,
)
_events = st.lists(
    st.tuples(_times, st.integers(min_value=0, max_value=1)),
    max_size=30,
)
#: Arbitrary order, but one event per time — the precondition under
#: which ``normalized()`` promises a strictly increasing output.
_unique_time_events = st.lists(
    st.tuples(_times, st.integers(min_value=0, max_value=1)),
    max_size=30,
    unique_by=lambda event: event[0],
)


@st.composite
def _sorted_unique_events(draw):
    times = sorted(draw(st.lists(_times, unique=True, max_size=20)))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=len(times), max_size=len(times),
        )
    )
    return list(zip(times, values))


class TestWaveformInvariants:
    """Hypothesis checks of the primitives both backends rely on."""

    @settings(max_examples=200, deadline=None)
    @given(
        initial=st.integers(min_value=0, max_value=1),
        events=_unique_time_events,
    )
    def test_normalized_is_minimal_and_alternating(self, initial, events):
        wave = Waveform(initial=initial, events=list(events))
        norm = wave.normalized()
        assert norm.initial == initial
        times = [t for t, _ in norm.events]
        assert times == sorted(times)
        assert len(set(times)) == len(times)  # strictly increasing
        value = initial
        for _, new_value in norm.events:
            assert new_value != value  # every event is a real change
            value = new_value
        # Idempotent: normalizing again changes nothing.
        again = norm.normalized()
        assert again.initial == norm.initial
        assert again.events == norm.events

    @settings(max_examples=200, deadline=None)
    @given(
        initial=st.integers(min_value=0, max_value=1),
        events=_sorted_unique_events(),
    )
    def test_normalized_preserves_semantics(self, initial, events):
        """For a well-formed (sorted, unique-time) event list, pruning
        null events must not change the signal anywhere."""
        wave = Waveform(initial=initial, events=list(events))
        norm = wave.normalized()
        assert norm.final == wave.final
        queries = [-1.0, 11.0]
        for when, _ in events:
            queries.extend((when - 1e-9, when, when + 1e-9))
        for when in queries:
            assert norm.value_at(when) == wave.value_at(when), when
        assert norm.transition_times() == wave.transition_times()

    @settings(max_examples=200, deadline=None)
    @given(schedule=_events)
    def test_append_preempt_keeps_strict_order(self, schedule):
        events = []
        for when, value in schedule:
            _append_preempt(events, when, value)
            assert events[-1] == (when, value)  # newest always lands
            times = [t for t, _ in events]
            assert all(a < b for a, b in zip(times, times[1:]))
        # Every surviving event predates the final appended time.
        if schedule:
            last_when = schedule[-1][0]
            assert all(t <= last_when for t, _ in events)
