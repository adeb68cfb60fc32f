"""G-RAR: graph-based resiliency-aware retiming (Section IV)."""

from __future__ import annotations

import time
from typing import Dict

from repro import metrics
from repro.latches.placement import SlavePlacement
from repro.latches.resilient import TwoPhaseCircuit
from repro.retime.compile import build_problem, compile_retiming
from repro.retime.ilp import solve_retiming_lp
from repro.retime.netflow import solve_retiming_flow
from repro.retime.result import RetimingResult


def placement_from_r(
    circuit: TwoPhaseCircuit, r_values: Dict[str, int]
) -> SlavePlacement:
    """Project solver labels onto the netlist nodes.

    Mirror, pseudo, and endpoint-role nodes are solver-internal; only
    sources and combinational gates carry physical retiming moves.
    """
    physical = set(circuit.source_names) | {
        g.name for g in circuit.netlist.comb_gates()
    }
    return SlavePlacement.from_r(
        {name: r_values.get(name, 0) for name in physical}
    )


def grar_retime(
    circuit: TwoPhaseCircuit,
    overhead: float,
    solver: str = "flow",
    conflict_policy: str = "error",
    retime_cache: bool = True,
) -> RetimingResult:
    """Run the full G-RAR pipeline on one circuit.

    ``solver`` is ``"flow"`` (network simplex, the paper's approach) or
    ``"lp"`` (scipy/HiGHS on eq. (10), the reference oracle).

    With ``retime_cache`` on (the default), regions, cut sets and the
    graph skeleton come from the compiled-problem cache keyed by the
    circuit's content fingerprint, and the flow solve warm-starts from
    the previous sweep point's optimal basis.  ``retime_cache=False``
    builds the problem afresh and cold-starts — the bit-parity oracle.
    """
    if overhead < 0:
        raise ValueError("overhead must be non-negative")
    phases: Dict[str, float] = {}
    started = time.perf_counter()

    cached = retime_cache and overhead > 0
    tick = time.perf_counter()
    problem = (compile_retiming if cached else build_problem)(
        circuit, overhead, conflict_policy
    )
    phases["compile"] = time.perf_counter() - tick

    tick = time.perf_counter()
    graph = problem.graph_for(overhead)
    phases["graph"] = time.perf_counter() - tick

    tick = time.perf_counter()
    if solver == "flow":
        solution = solve_retiming_flow(graph, warm_basis=problem.last_basis)
        if solution.basis is not None:
            problem.last_basis = solution.basis
        r_values = solution.r_values
        objective = solution.objective
        iterations = solution.iterations
        backend = solution.backend
    elif solver == "lp":
        lp = solve_retiming_lp(graph)
        r_values = lp.r_values
        objective = lp.objective
        iterations = 0
        backend = "lp"
    else:
        raise ValueError(f"unknown solver {solver!r}")
    phases["solve"] = time.perf_counter() - tick

    tick = time.perf_counter()
    placement = placement_from_r(circuit, r_values)
    credited = {
        endpoint
        for endpoint, pseudo in graph.pseudo_nodes.items()
        if r_values.get(pseudo, 0) == -1
    }
    edl = circuit.edl_endpoints(placement)
    cost = circuit.sequential_cost(placement, overhead, edl)
    phases["apply"] = time.perf_counter() - tick

    comb_area = (
        circuit.netlist.comb_area(circuit.library)
        if circuit.library is not None
        else 0.0
    )
    runtime_s = time.perf_counter() - started
    metrics.count("retime.grar.wall_s", runtime_s)
    return RetimingResult(
        method=f"grar-{solver}",
        circuit_name=circuit.netlist.name,
        overhead=overhead,
        placement=placement,
        edl_endpoints=edl,
        cost=cost,
        objective=objective,
        comb_area=comb_area,
        runtime_s=runtime_s,
        phase_runtimes=phases,
        solver_iterations=iterations,
        credited_endpoints=credited,
        notes={
            "solver_backend": backend,
            "retime_cache": "on" if cached else "off",
        },
    )
