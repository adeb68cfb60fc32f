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

Mechanically this is the same forced-cut machinery the VL flow uses:
for every endpoint that *can* meet ``Pi``, the gates of its cut set
``g(t)`` are pinned to ``r = -1``, and the latch count is minimized
subject to those constraints.  The result is what the paper's Table VI
shows for "Base": EDL counts near the near-critical-endpoint counts of
Table I, and noticeably more slave latches than G-RAR, which trades a
few extra error-detecting masters for far fewer latches.
"""

from __future__ import annotations

import time
from typing import Dict, Set

from repro import metrics
from repro.latches.resilient import TwoPhaseCircuit
from repro.retime.compile import compile_retiming
from repro.retime.cutset import EndpointClass, compute_cut_sets
from repro.retime.graph import build_retiming_graph
from repro.retime.grar import placement_from_r
from repro.retime.netflow import solve_retiming_flow
from repro.retime.regions import Regions, compute_regions
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

    compiled = None
    if retime_cache and overhead > 0:
        tick = time.perf_counter()
        compiled = compile_retiming(
            circuit, overhead, conflict_policy=conflict_policy
        )
        regions = compiled.regions
        phases["compile"] = time.perf_counter() - tick
    else:
        tick = time.perf_counter()
        regions = compute_regions(circuit, conflict_policy=conflict_policy)
        phases["regions"] = time.perf_counter() - tick

    # Worst-case timing constraints: every master that can receive its
    # data before Pi must.  Delegate the "can it" question to the cut
    # sets and force the feasible ones.
    tick = time.perf_counter()
    from repro.vl.flow import forceable_gates  # local: avoids a cycle

    cut_sets = (
        compiled.cut_sets
        if compiled is not None
        else compute_cut_sets(circuit, regions)
    )
    forceable = forceable_gates(circuit, regions)
    forced: Set[str] = set()
    unmet = 0
    for endpoint, cut in cut_sets.items():
        if cut.kind is not EndpointClass.TARGET:
            if cut.kind is EndpointClass.ALWAYS:
                unmet += 1
            continue
        if all(g in forceable for g in cut.gates):
            forced.update(cut.gates)
        else:
            unmet += 1
    timing_regions = Regions(
        vm=frozenset(regions.vm | forced),
        vn=regions.vn,
        vr=frozenset(regions.vr - forced),
    )
    phases["constraints"] = time.perf_counter() - tick

    tick = time.perf_counter()
    graph = build_retiming_graph(
        circuit, timing_regions, cut_sets=None, overhead=0.0
    )
    phases["graph"] = time.perf_counter() - tick

    tick = time.perf_counter()
    solution = solve_retiming_flow(graph)
    phases["solve"] = time.perf_counter() - tick

    tick = time.perf_counter()
    placement = placement_from_r(circuit, solution.r_values)
    edl = circuit.edl_endpoints(placement)
    cost = circuit.sequential_cost(placement, overhead)
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
        placement=placement,
        edl_endpoints=edl,
        cost=cost,
        objective=solution.objective,
        comb_area=comb_area,
        runtime_s=runtime_s,
        phase_runtimes=phases,
        solver_iterations=solution.iterations,
        notes={
            "unmet_endpoints": str(unmet),
            "forced_gates": str(len(forced)),
            "solver_backend": solution.backend,
        },
    )
