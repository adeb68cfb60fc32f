"""Forced-cut retiming: the hard-constraint form of G-RAR's credit.

Where G-RAR *offers* each target master ``t`` a ``-c`` credit for
retiming the slaves through its cut set ``g(t)``, a timing-driven tool
*demands* it: ``g(t)`` is forced into ``Vm`` and the latch count is
minimized on the plain retiming graph (no pseudo nodes, ``c = 0``).
The base retimer demands it of every master it can satisfy, VL-RAR
(Section V) of every master typed non-EDL; both solve here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Set

from repro.latches.placement import SlavePlacement
from repro.latches.resilient import TwoPhaseCircuit
from repro.netlist.netlist import GateType
from repro.retime.cutset import CutSet, EndpointClass
from repro.retime.graph import build_retiming_graph
from repro.retime.grar import placement_from_r
from repro.retime.netflow import FlowSolution, solve_retiming_flow
from repro.retime.regions import Regions


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


@dataclass
class ForcedCuts:
    """One forced-cut solve and the constraints it kept or dropped."""

    solution: FlowSolution
    placement: SlavePlacement
    #: Gates forced into ``Vm``.
    forced: Set[str]
    #: Wanted masters whose constraint cannot be met (an ``ALWAYS``
    #: master, or a cut through an unforceable gate).
    dropped: Set[str]


def solve_forced_cuts(
    circuit: TwoPhaseCircuit,
    regions: Regions,
    cut_sets: Dict[str, CutSet],
    masters: Iterable[str],
    phases: Dict[str, float],
) -> ForcedCuts:
    """Force each of ``masters``' ``g(t)`` into ``Vm`` and min-latch retime.

    A ``NEVER`` master needs nothing forced.  Timings land in
    ``phases`` under ``constraints``, ``graph`` and ``solve``.
    """
    tick = time.perf_counter()
    forceable = forceable_gates(circuit, regions)
    forced: Set[str] = set()
    dropped: Set[str] = set()
    for master in masters:
        cut = cut_sets[master]
        if cut.kind is EndpointClass.NEVER:
            continue
        if cut.kind is EndpointClass.ALWAYS or not cut.gates <= forceable:
            dropped.add(master)
        else:
            forced |= cut.gates
    constrained = Regions(
        vm=frozenset(regions.vm | forced),
        vn=regions.vn,
        vr=frozenset(regions.vr - forced),
    )
    phases["constraints"] = time.perf_counter() - tick

    tick = time.perf_counter()
    graph = build_retiming_graph(
        circuit, constrained, cut_sets=None, overhead=0.0
    )
    phases["graph"] = time.perf_counter() - tick

    tick = time.perf_counter()
    solution = solve_retiming_flow(graph)
    phases["solve"] = time.perf_counter() - tick
    return ForcedCuts(
        solution=solution,
        placement=placement_from_r(circuit, solution.r_values),
        forced=forced,
        dropped=dropped,
    )
