"""Eq. (14): the min-cost-flow dual of the retiming ILP.

Node demands come from the breadths (eq. 11/13): ``X(v) = -B(v)`` with
``B(v) = sum_out beta - sum_in beta`` over *all* edges (the pseudo-node
identities ``X(P(t)) = c`` and ``X(h) = -B(h) - c|V2|`` of the paper
fall out of this generic form).  Arc costs are the edge weights; the
[24] bound edges carry their ``U`` / ``-L`` costs.  The flow is solved
through :mod:`repro.retime.mincostflow`'s fallback chain (network
simplex → scipy → networkx); whichever backend answers, its integral
node potentials yield the retiming labels as
``r(v) = pot(v) - pot(host)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.errors import SolverError
from repro.latches.placement import HOST
from repro.retime.graph import RetimingGraph
from repro.retime.mincostflow import (
    DEFAULT_POLICY,
    BackendAttempt,
    SolverPolicy,
    solve_min_cost_flow,
)
from repro.retime.simplex import SimplexResult, WarmBasis


@dataclass
class FlowSolution:
    """Retiming labels and diagnostics from the flow solve."""

    r_values: Dict[str, int]
    objective: Fraction
    flow_objective: Fraction
    iterations: int
    simplex: Optional[SimplexResult] = None
    backend: str = "simplex"
    attempts: List[BackendAttempt] = field(default_factory=list)
    #: Optimal basis for warm-starting the next sweep point (simplex
    #: backend only; ``None`` from the fallback backends).
    basis: Optional[WarmBasis] = None

    def r(self, name: str) -> int:
        """The retiming label of ``name`` (0 for unknown nodes)."""
        return self.r_values.get(name, 0)


def build_demands(graph: RetimingGraph) -> Dict[str, Fraction]:
    """Node demands ``X(v) = -B(v)`` from the breadths."""
    demands: Dict[str, Fraction] = {name: Fraction(0) for name in graph.nodes}
    for edge in graph.edges:
        # X(v) = -B(v); B(v) = sum_out beta - sum_in beta, so every
        # edge adds +beta to its tail's demand and -beta to its head's.
        demands[edge.tail] -= edge.breadth
        demands[edge.head] += edge.breadth
    return demands


def build_demands_paper_form(graph: RetimingGraph) -> Dict[str, Fraction]:
    """The demands written exactly as eq. (14) states them.

    Used by tests to confirm the generic :func:`build_demands` agrees
    with the paper's per-node-type formulas.
    """
    from repro.retime.graph import EdgeKind

    b_e1: Dict[str, Fraction] = {name: Fraction(0) for name in graph.nodes}
    for edge in graph.edges:
        if edge.kind in (EdgeKind.CUT, EdgeKind.CREDIT):
            continue
        b_e1[edge.tail] += edge.breadth
        b_e1[edge.head] -= edge.breadth

    pseudo = set(graph.pseudo_nodes.values())
    demands: Dict[str, Fraction] = {}
    for name in graph.nodes:
        if name == HOST:
            demands[name] = -b_e1[name] - graph.overhead * len(pseudo)
        elif name in pseudo:
            demands[name] = Fraction(graph.overhead)
        else:
            demands[name] = -b_e1[name]
    return demands


def solve_retiming_flow(
    graph: RetimingGraph,
    policy: Optional[SolverPolicy] = None,
    warm_basis: Optional[WarmBasis] = None,
) -> FlowSolution:
    """Solve the retiming graph via the min-cost-flow dual.

    ``policy`` configures the solver-fallback chain; by default the
    in-house network simplex answers, with scipy and networkx standing
    by should it break down.  ``warm_basis`` — an optimal basis from a
    previous overhead of the *same compiled problem* — lets the
    simplex skip its artificial cold start; the returned solution
    carries the new optimal basis for the next sweep point.
    """
    demands = build_demands(graph)
    arcs: List[Tuple[str, str, int]] = [
        (edge.tail, edge.head, edge.weight) for edge in graph.edges
    ]
    result = solve_min_cost_flow(
        graph.nodes, arcs, demands, policy or DEFAULT_POLICY,
        warm_basis=warm_basis,
    )

    host_pot = result.potentials[HOST]
    r_values = {
        name: result.potentials[name] - host_pot for name in graph.nodes
    }

    violated = graph.check_feasible(r_values)
    if violated:
        raise SolverError(
            f"flow solution violates {len(violated)} retiming constraints; "
            f"first: {violated[0]}",
            payload={"backend": result.backend},
        )
    out_of_bounds = {
        name: r_values[name]
        for name, (lo, hi) in graph.bounds.items()
        if not lo <= r_values[name] <= hi
    }
    if out_of_bounds:
        raise SolverError(
            f"flow potentials escape their bounds: "
            f"{dict(list(out_of_bounds.items())[:5])}",
            payload={"backend": result.backend},
        )
    objective = graph.objective_value(r_values)
    return FlowSolution(
        r_values=r_values,
        objective=objective,
        flow_objective=result.objective,
        iterations=result.iterations,
        backend=result.backend,
        attempts=result.attempts,
        basis=result.basis,
    )
