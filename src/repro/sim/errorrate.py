"""Error-rate estimation (Table VIII).

Per the paper, the error rate is measured with random-input
simulation: a cycle is an *error cycle* when the data at any
error-detecting master transitions inside the timing-resiliency window
``(Pi, Pi + phi1]``.  Non-error-detecting masters must never toggle in
the window — the flows' constraints guarantee it, and the estimator
verifies it (``non_edl_violations``).

Two backends evaluate the cycles, both behind
:func:`~repro.sim.batch.estimate_error_rate_batched`:

* ``"event"`` — the reference :class:`~repro.sim.logicsim.TimedSimulator`,
  re-deriving delays and waveform lookups per cycle, one lane of
  per-seed state at a time (:class:`_CycleLoop`);
* ``"compiled"`` (default) — the cycle-invariant compile
  (:class:`~repro.sim.kernel.CompiledSimulator`) run by the lane
  engine (:mod:`repro.sim.vector`), which advances every seed per
  pass; its reports are comparison-identical to the event backend's
  (``tests/test_sim_vector.py`` is the acceptance gate).

:func:`estimate_error_rate` is the single-seed form of that call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.cells.edl import window_has_transition
from repro.errors import SimulationError
from repro.latches.placement import SlavePlacement
from repro.latches.resilient import TwoPhaseCircuit
from repro.netlist.netlist import GateType
from repro.scenarios.injectors import InjectionPlan
from repro.sim.logicsim import MAX_EVENTS_PER_NET, TimedSimulator
from repro.sim.vectors import VectorSource

#: Valid values of the ``backend`` switch.
SIM_BACKENDS = ("event", "compiled")


@dataclass
class ErrorRateReport:
    """Simulation outcome over N cycles."""

    cycles: int
    error_cycles: int
    #: error count per error-detecting master.
    per_endpoint: Dict[str, int] = field(default_factory=dict)
    #: window transitions observed at masters *not* marked EDL —
    #: should be zero for a correct design.
    non_edl_violations: int = 0
    #: flop state after the last cycle (settled capture values).
    final_flop_state: Dict[str, int] = field(default_factory=dict)
    #: latch/source state after the last cycle (``src:`` and
    #: ``latch:`` keys, as the simulator maintains them).
    final_latch_state: Dict[str, int] = field(default_factory=dict)
    #: which backend produced the report (not part of equality: all
    #: backends must produce comparison-identical reports).
    backend: str = field(default="event", compare=False)
    #: simulation throughput, for bench artifacts (not compared).
    #: ``None`` means unmeasured — a run too fast for the wall clock
    #: to resolve stays ``None`` instead of masquerading as 0.0.
    cycles_per_sec: Optional[float] = field(default=None, compare=False)

    @property
    def error_rate(self) -> float:
        """Fraction of cycles with at least one error, in percent."""
        if self.cycles == 0:
            return 0.0
        return 100.0 * self.error_cycles / self.cycles


def _check_plan_targets(
    netlist, plan: InjectionPlan, placement: SlavePlacement
) -> None:
    """Reject an injection plan naming nets/state the design lacks.

    A silently-ignored injection target would make a scenario look
    healthier than it is, so unknown names are a typed failure.  SEU
    targets may be flop names or ``latch:<driver>:<sink>`` state keys;
    the latter are validated against the placement's actual latch
    edges — a typo'd key would otherwise mutate phantom ``latch_state``
    entries no waveform ever reads.
    """
    if plan.empty:
        return
    known_nets = {g.name for g in netlist.comb_gates()}
    known_nets.update(g.name for g in netlist.sources())
    flop_names = {g.name for g in netlist.flops()}
    latch_keys = {
        f"latch:{driver}:{sink}"
        for driver, sink in placement.latch_edges(netlist)
    }
    bad = sorted(
        {
            spec.net
            for specs in plan.glitches.values()
            for spec in specs
            if spec.net not in known_nets
        }
    )
    bad += sorted(
        name for name in plan.delay_scale if name not in known_nets
    )
    bad += sorted(
        {
            target
            for targets in plan.seu_flips.values()
            for target in targets
            if target not in flop_names and target not in latch_keys
        }
    )
    if bad:
        raise SimulationError(
            f"injection plan names unknown targets: {bad[:8]}",
            payload={"unknown_targets": bad, "plan": plan.label},
        )


@dataclass
class _LaneState:
    """Mutable per-seed state of one simulation lane."""

    source: VectorSource
    report: ErrorRateReport
    latch_state: Dict[str, int]
    flop_values: Dict[str, int]


class _CycleLoop:
    """The event backend: one :class:`TimedSimulator` for a fixed
    (circuit, placement, plan), plus the per-cycle bookkeeping —
    window scan, settled-value capture and SEU flips — for each lane
    of mutable per-seed state.
    """

    def __init__(
        self,
        circuit: TwoPhaseCircuit,
        placement: SlavePlacement,
        edl_endpoints: Set[str],
        plan: InjectionPlan,
        max_events_per_net: int,
    ) -> None:
        netlist = circuit.netlist
        self.placement = placement
        self.plan = plan
        self.edl_endpoints = edl_endpoints
        scheme = circuit.scheme
        self.window_open = scheme.window_open
        self.window_close = scheme.window_close
        self.simulator = TimedSimulator(
            circuit,
            max_events_per_net=max_events_per_net,
            delay_scale=plan.delay_scale,
        )
        self.pi_names = [g.name for g in netlist.inputs()]
        # (endpoint name, waveform key) pairs, hoisted out of the loop.
        self.endpoint_keys = [
            (
                g.name,
                f"{g.name}::d" if g.gtype is GateType.DFF else g.name,
            )
            for g in netlist.endpoints()
        ]
        self.flop_keys = [(g.name, f"{g.name}::d") for g in netlist.flops()]
        self.flop_names = {name for name, _ in self.flop_keys}

    def run(
        self, cycles: int, seeds: Sequence[int], toggle_probability: float
    ) -> List[ErrorRateReport]:
        """One report per seed.  Cycle-major: glitch/SEU schedules
        index by cycle, and per-lane state keeps the lanes independent
        regardless of interleaving order."""
        lanes = [
            _LaneState(
                source=VectorSource(
                    self.pi_names,
                    seed=seed,
                    toggle_probability=toggle_probability,
                ),
                report=ErrorRateReport(cycles=cycles, error_cycles=0),
                latch_state={},
                flop_values={name: 0 for name, _ in self.flop_keys},
            )
            for seed in seeds
        ]
        for cycle in range(cycles):
            for lane in lanes:
                self._step(cycle, lane)
        for lane in lanes:
            lane.report.final_flop_state = dict(lane.flop_values)
            lane.report.final_latch_state = dict(lane.latch_state)
        return [lane.report for lane in lanes]

    def _step(self, cycle: int, lane: _LaneState) -> None:
        """Advance one lane through one cycle."""
        report = lane.report
        launch = dict(lane.flop_values)
        launch.update(lane.source.next_vector())
        waves = self.simulator.run_cycle(
            launch,
            self.placement,
            lane.latch_state,
            glitches=self.plan.glitches.get(cycle, ()),
        )

        cycle_error = False
        for name, wave_key in self.endpoint_keys:
            wave = waves[wave_key]
            times = wave.transition_times()
            if not window_has_transition(
                times, self.window_open, self.window_close
            ):
                continue
            if name in self.edl_endpoints:
                cycle_error = True
                report.per_endpoint[name] = (
                    report.per_endpoint.get(name, 0) + 1
                )
            else:
                report.non_edl_violations += 1
        if cycle_error:
            report.error_cycles += 1

        # Masters capture the *settled* value: an error stalls the
        # next stage in silicon until the time-borrowed transition has
        # landed, so the state carried into the next cycle is the
        # waveform's final value — not a sample at the window close,
        # which would lose any transition borrowed past it.
        for name, wave_key in self.flop_keys:
            lane.flop_values[name] = waves[wave_key].final

        # SEU capture flips strike the carried-over state *after* this
        # cycle's capture settles — a particle inverting the stored
        # bit.
        for target in self.plan.seu_flips.get(cycle, ()):
            if target in self.flop_names:
                lane.flop_values[target] = 1 - lane.flop_values[target]
            else:
                lane.latch_state[target] = 1 - lane.latch_state.get(
                    target, 0
                )


def estimate_error_rate(
    circuit: TwoPhaseCircuit,
    placement: SlavePlacement,
    edl_endpoints: Set[str],
    cycles: int = 256,
    seed: int = 2017,
    toggle_probability: float = 0.5,
    backend: str = "compiled",
    max_events_per_net: int = MAX_EVENTS_PER_NET,
    injection: Optional[InjectionPlan] = None,
) -> ErrorRateReport:
    """Random-input error-rate simulation of a retimed design.

    The single-seed form of
    :func:`~repro.sim.batch.estimate_error_rate_batched`: the same
    validation, dispatch and metrics, for ``seeds=(seed,)``.
    ``injection`` perturbs the run with a resolved
    :class:`~repro.scenarios.injectors.InjectionPlan` — delay-corner
    scaling, per-cycle glitch pulses, and SEU capture-state flips.
    Both backends honour the same plan identically.
    """
    # Resolved at call time: batch imports this module.
    from repro.sim.batch import estimate_error_rate_batched

    return estimate_error_rate_batched(
        circuit,
        placement,
        edl_endpoints,
        cycles=cycles,
        seeds=(seed,),
        toggle_probability=toggle_probability,
        backend=backend,
        max_events_per_net=max_events_per_net,
        injection=injection,
    )[0]
