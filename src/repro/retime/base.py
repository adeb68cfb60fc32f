"""Base retiming: the resiliency-unaware commercial baseline.

The paper's comparison point is a leading synthesis tool's *built-in*
retiming run "subject to worst-case timing constraints" — a timing-
driven latch retimer that knows nothing about error-detection
overheads.  Presented with the two-phase latch design at period ``Pi``
and standard (non-EDL) latch setup, such a tool positions the slaves so
that every master it can satisfy receives its data before ``Pi``; only
masters whose combinational paths genuinely exceed ``Pi`` are left
violating (the resilient design absorbs them, and they are swapped to
error-detecting latches afterwards — Section VI-D: "master latches
whose input arrival times fall in the resiliency window are then
replaced with error-detecting counterparts").

Mechanically this is VL-RAR with every master typed non-EDL: one
:func:`~repro.retime.forced.solve_forced_cuts` call pins the cut set
``g(t)`` of every endpoint that *can* meet ``Pi`` to ``r = -1`` and
minimizes the latch count subject to those constraints.  The result
is what the paper's Table VI shows for "Base": EDL counts near the
near-critical-endpoint counts of Table I, and noticeably more slave
latches than G-RAR, which trades a few extra error-detecting masters
for far fewer latches.
"""

from __future__ import annotations

import time
from typing import Dict

from repro import metrics
from repro.latches.resilient import TwoPhaseCircuit
from repro.retime.compile import build_problem, compile_retiming
from repro.retime.forced import solve_forced_cuts
from repro.retime.result import RetimingResult


def base_retime(
    circuit: TwoPhaseCircuit,
    overhead: float,
    conflict_policy: str = "error",
    retime_cache: bool = True,
) -> RetimingResult:
    """Timing-driven min-latch retiming, EDL assigned post hoc.

    ``retime_cache`` reuses the compiled problem's regions and cut
    sets (both c-independent and shared with G-RAR on the same
    circuit); the baseline's own graph — forced ``Vm``, no pseudo
    nodes — is always built fresh.
    """
    if overhead < 0:
        raise ValueError("overhead must be non-negative")
    phases: Dict[str, float] = {}
    started = time.perf_counter()

    tick = time.perf_counter()
    problem = (
        compile_retiming if retime_cache and overhead > 0 else build_problem
    )(circuit, overhead, conflict_policy)
    phases["compile"] = time.perf_counter() - tick

    # Worst-case timing constraints: every master that can receive its
    # data before Pi must.
    cuts = solve_forced_cuts(
        circuit,
        problem.regions,
        problem.cut_sets,
        circuit.endpoint_names,
        phases,
    )

    tick = time.perf_counter()
    edl = circuit.edl_endpoints(cuts.placement)
    cost = circuit.sequential_cost(cuts.placement, overhead, edl)
    phases["apply"] = time.perf_counter() - tick

    comb_area = (
        circuit.netlist.comb_area(circuit.library)
        if circuit.library is not None
        else 0.0
    )
    runtime_s = time.perf_counter() - started
    metrics.count("retime.base.wall_s", runtime_s)
    return RetimingResult(
        method="base-flow",
        circuit_name=circuit.netlist.name,
        overhead=overhead,
        placement=cuts.placement,
        edl_endpoints=edl,
        cost=cost,
        objective=cuts.solution.objective,
        comb_area=comb_area,
        runtime_s=runtime_s,
        phase_runtimes=phases,
        solver_iterations=cuts.solution.iterations,
        notes={
            "unmet_endpoints": str(len(cuts.dropped)),
            "forced_gates": str(len(cuts.forced)),
            "solver_backend": cuts.solution.backend,
        },
    )
