"""The error-rate estimator: one call, any number of seeds.

:func:`estimate_error_rate_batched` is the one place that maps a
backend name to an implementation.  It validates the backend, the
cycle count and the injection plan, builds the backend's
cycle-invariant setup once for the whole seed sweep, runs every seed
through it, times the run and counts its metrics:

* ``"compiled"`` — the :class:`~repro.sim.kernel.CompiledSimulator`
  compile, run by the lane engine (:func:`repro.sim.vector.simulate`)
  on the C gate and latch stages of :func:`repro.sim._native.load`;
  when the helper does not load, the event oracle's loop runs instead;
* ``"event"`` — the reference event simulator, one lane of per-seed
  state at a time (:class:`~repro.sim.errorrate._CycleLoop`).

Each call counts the code that ran: ``sim.stage.native`` or
``sim.stage.event``, plus ``sim.stage.fallback.<reason>`` when
``"compiled"`` fell back.

Each seed's report is independent of the others in the sweep, so a
report is comparison-identical to a single-seed
:func:`~repro.sim.errorrate.estimate_error_rate` call, and the two
backends' reports are comparison-identical to each other
(``tests/test_sim_vector.py`` pins both).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Set

from repro import metrics
from repro.latches.placement import SlavePlacement
from repro.latches.resilient import TwoPhaseCircuit
from repro.scenarios.injectors import InjectionPlan
from repro.sim import _native, vector
from repro.sim.errorrate import (
    SIM_BACKENDS,
    ErrorRateReport,
    _check_plan_targets,
    _CycleLoop,
)
from repro.sim.kernel import CompiledSimulator
from repro.sim.logicsim import MAX_EVENTS_PER_NET


def estimate_error_rate_batched(
    circuit: TwoPhaseCircuit,
    placement: SlavePlacement,
    edl_endpoints: Set[str],
    cycles: int = 256,
    seeds: Sequence[int] = (2017,),
    toggle_probability: float = 0.5,
    backend: str = "compiled",
    max_events_per_net: int = MAX_EVENTS_PER_NET,
    injection: Optional[InjectionPlan] = None,
) -> List[ErrorRateReport]:
    """Error-rate reports for every seed, sharing one simulator setup.

    Returns one :class:`~repro.sim.errorrate.ErrorRateReport` per entry
    of ``seeds``, in order.  The ``cycles_per_sec`` field (excluded
    from report comparison) carries the *aggregate* throughput — total
    lane-cycles over the call's wall clock, setup included — since the
    per-lane split of a batched pass is not meaningful.
    """
    if backend not in SIM_BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; "
            f"expected one of {SIM_BACKENDS}"
        )
    if cycles < 1:
        raise ValueError(f"cycles must be at least 1, got {cycles}")
    plan = injection or InjectionPlan()
    _check_plan_targets(circuit.netlist, plan, placement)
    started = time.perf_counter()
    native = fallback = None
    if backend == "compiled":
        native, fallback = _native.load()
    if native is None:
        loop = _CycleLoop(
            circuit, placement, edl_endpoints, plan, max_events_per_net
        )
        reports = loop.run(cycles, seeds, toggle_probability)
        metrics.count("sim.stage.event")
        if fallback is not None:
            metrics.count(f"sim.stage.fallback.{fallback}")
    else:
        kernel = CompiledSimulator(
            circuit,
            placement,
            max_events_per_net=max_events_per_net,
            delay_scale=plan.delay_scale,
        )
        reports = vector.simulate(
            kernel,
            edl_endpoints,
            cycles,
            seeds,
            toggle_probability,
            plan,
            native,
        )
        metrics.count("sim.stage.native")
    wall_s = time.perf_counter() - started

    total_cycles = cycles * len(reports)
    throughput = total_cycles / wall_s if wall_s > 0.0 else None
    for report in reports:
        report.backend = backend
        report.cycles_per_sec = throughput

    metrics.count("sim.batched.runs")
    metrics.count("sim.batched.lanes", len(reports))
    metrics.count(f"sim.backend.{backend}")
    metrics.count("sim.cycles", total_cycles)
    # A wall-clock measurement is a gauge, not an event count — it
    # lives under "values" in bench artifacts, not "counters".
    metrics.record_value("sim.wall_s", wall_s)
    if not plan.empty and reports:
        counts = plan.counts()
        flips = sum(len(plan.seu_flips.get(c, ())) for c in range(cycles))
        metrics.count("sim.inject.runs", len(reports))
        metrics.count(
            "sim.inject.glitches", counts["glitches"] * len(reports)
        )
        metrics.count(
            "sim.inject.scaled_gates", counts["scaled_gates"] * len(reports)
        )
        if flips:
            metrics.count("sim.inject.seu_flips", flips * len(reports))
    return reports
