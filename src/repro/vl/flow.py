"""The VL-RAR retiming flow (Section V).

The substrate tool's retiming command minimizes latch count under the
timing constraints the virtual library implies:

* an endpoint typed **non-EDL** carries the extended setup, so every
  slave in its fan-in cone must keep its arrival out of the resiliency
  window — encoded by *forcing* the cut set ``g(t)`` to be retimed
  through (the hard-constraint version of G-RAR's optional credit,
  :func:`repro.retime.forced.solve_forced_cuts`, which the base
  retimer runs with every master typed non-EDL);
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
from typing import Dict, Optional

from repro.latches.resilient import TwoPhaseCircuit
from repro.retime.cutset import compute_cut_sets
from repro.retime.forced import solve_forced_cuts
from repro.retime.regions import compute_regions
from repro.retime.result import RetimingResult
from repro.vl.swap import (
    SwapReport,
    apply_required_upgrades,
    swap_unnecessary_edl,
)
from repro.vl.variants import VlVariant, initial_types


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
    cut_sets = compute_cut_sets(circuit, regions)
    phases["typing"] = time.perf_counter() - tick

    # Hard constraints from non-EDL typings: each g(t) cut set is
    # forced into Vm so the slaves are retimed through it.  A constraint
    # the tool cannot meet that way (an always-EDL master, or a cut
    # through unforceable gates) is dropped.
    cuts = solve_forced_cuts(
        circuit,
        regions,
        cut_sets,
        [endpoint for endpoint, is_edl in types.items() if not is_edl],
        phases,
    )

    tick = time.perf_counter()
    placement = cuts.placement
    swap_report = SwapReport()
    types = apply_required_upgrades(circuit, placement, types, swap_report)
    if post_swap:
        types = swap_unnecessary_edl(circuit, placement, types, swap_report)
    edl_set = {name for name, is_edl in types.items() if is_edl}
    cost = circuit.sequential_cost(placement, overhead, edl_set)
    phases["apply"] = time.perf_counter() - tick

    comb_area = (
        circuit.netlist.comb_area(circuit.library)
        if circuit.library is not None
        else 0.0
    )
    return RetimingResult(
        method=f"{variant.value}-rar" + ("" if post_swap else "-noswap"),
        circuit_name=circuit.netlist.name,
        overhead=overhead,
        placement=placement,
        edl_endpoints=edl_set,
        cost=cost,
        objective=cuts.solution.objective,
        comb_area=comb_area,
        runtime_s=time.perf_counter() - started,
        phase_runtimes=phases,
        solver_iterations=cuts.solution.iterations,
        notes={
            "dropped_constraints": str(len(cuts.dropped)),
            "forced_gates": str(len(cuts.forced)),
            "upgraded": str(len(swap_report.upgraded)),
            "downgraded": str(len(swap_report.downgraded)),
            "solver_backend": cuts.solution.backend,
        },
    )
