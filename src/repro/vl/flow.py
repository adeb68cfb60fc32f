"""The VL-RAR retiming flow (Section V).

The substrate tool's retiming command minimizes latch count under the
timing constraints the virtual library implies:

* an endpoint typed **non-EDL** carries the extended setup, so every
  slave in its fan-in cone must keep its arrival out of the resiliency
  window — encoded by *forcing* the cut set ``g(t)`` to be retimed
  through (the hard-constraint version of G-RAR's optional credit);
* an endpoint typed **EDL** only needs the window-close limit that any
  legal two-phase design satisfies.

Where a non-EDL constraint is unsatisfiable (the cut set is empty or
not forceable), the tool drops it — the paper observed the same and
patches the resulting violations by switching those masters to EDL
afterwards (:func:`repro.vl.swap.apply_required_upgrades`).

The latch *types* themselves are never reconsidered during retiming —
that is the decoupling the paper blames for VL-RAR's gap to G-RAR —
until the optional post-retiming swap step runs.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Set

from repro.latches.resilient import SequentialCost, TwoPhaseCircuit
from repro.netlist.netlist import GateType
from repro.retime.cutset import EndpointClass, compute_cut_sets
from repro.retime.graph import build_retiming_graph
from repro.retime.grar import placement_from_r
from repro.retime.netflow import solve_retiming_flow
from repro.retime.regions import Regions, compute_regions
from repro.retime.result import RetimingResult
from repro.vl.swap import (
    SwapReport,
    apply_required_upgrades,
    swap_unnecessary_edl,
)
from repro.vl.variants import VlVariant, initial_types


def forceable_gates(circuit: TwoPhaseCircuit, regions: Regions) -> Set[str]:
    """Gates whose forced retiming (``r = -1``) is feasible.

    ``r(g) = -1`` cascades to every transitive fanin through the
    zero-weight edges, so it is feasible iff no ancestor sits in Vn.
    """
    result: Set[str] = set()
    for name in circuit.netlist.topo_order():
        gate = circuit.netlist[name]
        if gate.is_source:
            result.add(name)
            continue
        if gate.gtype is not GateType.COMB:
            continue
        if name in regions.vn:
            continue
        if all(fanin in result for fanin in gate.fanins):
            result.add(name)
    return result


def vl_retime(
    circuit: TwoPhaseCircuit,
    overhead: float,
    variant: VlVariant = VlVariant.RVL,
    post_swap: bool = True,
    types: Optional[Dict[str, bool]] = None,
) -> RetimingResult:
    """Run one VL-RAR variant; returns a :class:`RetimingResult`.

    ``types`` lets the caller pin the initial latch typing (the flow
    layer computes it before its mandatory path speed-ups change the
    timing the RVL classification is based on).  The result's EDL set
    reflects the final latch *types* (what the virtual library
    instantiates), not the timing-derived need — the two differ
    exactly when the decoupling wastes area.
    """
    if overhead < 0:
        raise ValueError("overhead must be non-negative")
    phases: Dict[str, float] = {}
    started = time.perf_counter()

    tick = time.perf_counter()
    if types is None:
        types = initial_types(circuit, variant)
    regions = compute_regions(circuit)
    phases["typing"] = time.perf_counter() - tick

    # Hard constraints from non-EDL typings: each g(t) cut set is
    # forced into Vm so the slaves are retimed through it.  A constraint
    # the tool cannot meet that way (an always-EDL master, or a cut
    # through unforceable gates) is dropped.
    tick = time.perf_counter()
    forced: Set[str] = set()
    dropped: Set[str] = set()
    cut_sets = compute_cut_sets(circuit, regions)
    forceable = forceable_gates(circuit, regions)
    for endpoint, is_edl in types.items():
        if is_edl:
            continue
        cut = cut_sets[endpoint]
        if cut.kind is EndpointClass.NEVER:
            continue
        if cut.kind is EndpointClass.ALWAYS or not all(
            g in forceable for g in cut.gates
        ):
            dropped.add(endpoint)  # tool cannot meet this constraint
            continue
        forced.update(cut.gates)
    constrained_regions = Regions(
        vm=frozenset(regions.vm | forced),
        vn=regions.vn,
        vr=frozenset(regions.vr - forced),
    )
    phases["constraints"] = time.perf_counter() - tick

    tick = time.perf_counter()
    graph = build_retiming_graph(
        circuit, constrained_regions, cut_sets=None, overhead=0.0
    )
    phases["graph"] = time.perf_counter() - tick

    tick = time.perf_counter()
    solution = solve_retiming_flow(graph)
    phases["solve"] = time.perf_counter() - tick

    tick = time.perf_counter()
    placement = placement_from_r(circuit, solution.r_values)
    swap_report = SwapReport()
    types = apply_required_upgrades(circuit, placement, types, swap_report)
    if post_swap:
        types = swap_unnecessary_edl(circuit, placement, types, swap_report)
    n_edl = sum(1 for is_edl in types.values() if is_edl)
    cost = SequentialCost(
        n_slaves=placement.slave_count(circuit.netlist),
        n_masters=len(circuit.endpoint_names),
        n_edl=n_edl,
        overhead=overhead,
        latch_area=circuit.latch_area,
    )
    phases["apply"] = time.perf_counter() - tick

    comb_area = (
        circuit.netlist.comb_area(circuit.library)
        if circuit.library is not None
        else 0.0
    )
    edl_set = {name for name, is_edl in types.items() if is_edl}
    return RetimingResult(
        method=f"{variant.value}-rar" + ("" if post_swap else "-noswap"),
        circuit_name=circuit.netlist.name,
        overhead=overhead,
        placement=placement,
        edl_endpoints=edl_set,
        cost=cost,
        objective=solution.objective,
        comb_area=comb_area,
        runtime_s=time.perf_counter() - started,
        phase_runtimes=phases,
        solver_iterations=solution.iterations,
        notes={
            "dropped_constraints": str(len(dropped)),
            "forced_gates": str(len(forced)),
            "upgraded": str(len(swap_report.upgraded)),
            "downgraded": str(len(swap_report.downgraded)),
            "solver_backend": solution.backend,
        },
    )
