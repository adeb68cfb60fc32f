"""Multi-backend min-cost-flow with a resilient fallback chain.

The retiming dual (eq. 14) is solved by the in-house network simplex.
Production runs cannot afford a single solver breakdown (an exhausted
iteration budget, the int64 overflow guard) killing a whole table
suite, so this module wraps three interchangeable backends behind one
entry point, :func:`solve_min_cost_flow`:

* ``simplex`` — :class:`repro.retime.simplex.NetworkSimplex`, exact
  Fraction arithmetic, returns dual potentials directly;
* ``scipy`` — ``scipy.optimize.linprog`` (HiGHS) on the arc-flow LP;
  the conservation matrix is totally unimodular, so vertex solutions
  are integral in scaled units;
* ``networkx`` — ``networkx.network_simplex`` on a ``MultiDiGraph``.

The chain tries backends in that order; genuine *problem* verdicts
(infeasible / unbounded) propagate immediately — a different backend
cannot fix an infeasible instance — while *solver* breakdowns fall
through to the next backend.  Every attempt is recorded in the result
for diagnosis.

Backends that only return a flow (scipy, networkx) recover the dual
potentials by a Bellman-Ford pass over the residual graph: at
optimality the residual has no negative cycle, so shortest distances
exist, are integral (integer costs), and satisfy both dual
feasibility and complementary slackness.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro import metrics
from repro.errors import (
    InfeasibleFlowError,
    SolverError,
    UnboundedFlowError,
)
from repro.retime.simplex import (
    _MAX_SCALE,
    Arc,
    NetworkSimplex,
    Node,
    WarmBasis,
)

try:  # pragma: no cover - import guard
    from scipy.optimize import linprog as _linprog
    from scipy.sparse import csr_matrix as _csr_matrix

    _HAS_SCIPY = True
except ImportError:  # pragma: no cover - scipy is baked into the image
    _HAS_SCIPY = False

try:  # pragma: no cover - import guard
    import networkx as _nx

    _HAS_NETWORKX = True
except ImportError:  # pragma: no cover
    _HAS_NETWORKX = False


@dataclass
class BackendAttempt:
    """Record of one backend invocation inside the chain."""

    backend: str
    status: str  # "ok" | "failed"
    time_s: float = 0.0
    error: Optional[str] = None
    error_type: Optional[str] = None
    objective: Optional[Fraction] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form for failure reports."""
        return {
            "backend": self.backend,
            "status": self.status,
            "time_s": round(self.time_s, 6),
            "error": self.error,
            "error_type": self.error_type,
            "objective": (
                str(self.objective) if self.objective is not None else None
            ),
        }


@dataclass
class MinCostFlowResult:
    """Optimal flow, potentials and provenance of the answer."""

    flows: Dict[int, Fraction]
    potentials: Dict[Node, int]
    objective: Fraction
    backend: str
    iterations: int = 0
    attempts: List[BackendAttempt] = field(default_factory=list)
    #: Optimal spanning-tree basis (simplex backend only) — feed it to
    #: the next solve of a structurally identical problem to warm-start.
    basis: Optional[WarmBasis] = None


def _scaled_demands(
    nodes: Sequence[Node], demands: Dict[Node, Fraction]
) -> Tuple[int, Dict[Node, int]]:
    """Scale (possibly fractional) demands to integers.

    The common denominator is the lcm of the fanout degrees in the
    retiming use case, hence small; anything beyond ``_MAX_SCALE`` is
    rejected rather than silently rounded.
    """
    total = Fraction(0)
    raw = {node: Fraction(demands.get(node, 0)) for node in nodes}
    scale = 1
    for value in raw.values():
        total += value
        scale = math.lcm(scale, value.denominator)
        if scale > _MAX_SCALE:
            raise SolverError(
                "demand denominators exceed the integer-scaling limit "
                f"({_MAX_SCALE})"
            )
    if total != 0:
        raise InfeasibleFlowError(f"demands do not balance (sum = {total})")
    return scale, {node: int(value * scale) for node, value in raw.items()}


def _potentials_from_flow(
    nodes: Sequence[Node],
    arcs: Sequence[Arc],
    flows: Dict[int, int],
) -> Dict[Node, int]:
    """Recover *canonical* optimal dual potentials from an optimal flow.

    Queue-based Bellman-Ford (SPFA) shortest distances from an
    implicit super-source over the residual graph (all distances start
    at 0).  Optimality of the flow means no negative residual cycle,
    so the distances exist and are integral; ``pi(v) = -dist(v)`` then
    satisfies the reduced-cost conditions exactly.

    These potentials are canonical: the optimal-dual set of a min-cost
    flow is the same for every optimal primal flow (complementary
    slackness pins the tight constraints), and the shortest distances
    are its unique pointwise-extreme element — so the result does not
    depend on which backend produced the flow, whether the simplex was
    warm-started, or which of several optimal bases it stopped at.
    Every backend routes its potentials through here, which is what
    makes sweep-cached solves bit-identical to the cold oracle.
    """
    dist = {node: 0 for node in nodes}
    adjacency: Dict[Node, List[Tuple[Node, int]]] = {
        node: [] for node in nodes
    }
    for index, (tail, head, cost) in enumerate(arcs):
        adjacency[tail].append((head, int(cost)))
        if flows.get(index, 0) > 0:
            adjacency[head].append((tail, -int(cost)))

    queue = deque(nodes)
    queued = {node: True for node in nodes}
    enqueues = {node: 1 for node in nodes}
    limit = len(nodes) + 1
    while queue:
        u = queue.popleft()
        queued[u] = False
        du = dist[u]
        for v, cost in adjacency[u]:
            candidate = du + cost
            if candidate < dist[v]:
                dist[v] = candidate
                if not queued[v]:
                    enqueues[v] += 1
                    if enqueues[v] > limit:
                        raise SolverError(
                            "potential recovery found a negative residual "
                            "cycle — the claimed-optimal flow is not optimal"
                        )
                    queued[v] = True
                    queue.append(v)
    return {node: -dist[node] for node in nodes}


def verify_solution(
    nodes: Sequence[Node],
    arcs: Sequence[Arc],
    demands: Dict[Node, Fraction],
    result: MinCostFlowResult,
) -> List[str]:
    """Primal/dual certificate check; empty list means certified."""
    problems: List[str] = []
    balance: Dict[Node, Fraction] = {node: Fraction(0) for node in nodes}
    total = Fraction(0)
    for index, value in result.flows.items():
        tail, head, cost = arcs[index]
        if value < 0:
            problems.append(f"arc {index} has negative flow {value}")
        balance[tail] -= value
        balance[head] += value
        total += value * cost
    for node in nodes:
        expected = Fraction(demands.get(node, 0))
        if balance[node] != expected:
            problems.append(
                f"node {node!r}: balance {balance[node]} != demand "
                f"{expected}"
            )
    if total != result.objective:
        problems.append(
            f"objective {result.objective} != recomputed cost {total}"
        )
    for index, (tail, head, cost) in enumerate(arcs):
        rc = cost - result.potentials[tail] + result.potentials[head]
        if rc < 0:
            problems.append(f"arc {index} has negative reduced cost {rc}")
        if rc > 0 and result.flows.get(index, Fraction(0)) != 0:
            problems.append(f"arc {index} violates complementary slackness")
    return problems


# -- backends ---------------------------------------------------------------


def _solve_simplex(
    nodes: Sequence[Node],
    arcs: Sequence[Arc],
    demands: Dict[Node, Fraction],
    warm_basis: Optional[WarmBasis] = None,
) -> MinCostFlowResult:
    simplex = NetworkSimplex(nodes, arcs, demands, warm_basis=warm_basis)
    result = simplex.solve()
    # Canonicalize the duals: a warm start (or any alternative optimal
    # basis) may stop at a different vertex than a cold start; routing
    # through the residual-graph shortest distances makes the returned
    # potentials a function of the *problem*, not the solve path.
    potentials = _potentials_from_flow(nodes, arcs, result.flows)
    return MinCostFlowResult(
        flows=result.flows,
        potentials=potentials,
        objective=result.objective,
        backend="simplex",
        iterations=result.iterations,
        basis=simplex.export_basis(),
    )


def _solve_scipy(
    nodes: Sequence[Node],
    arcs: Sequence[Arc],
    demands: Dict[Node, Fraction],
    warm_basis: Optional[WarmBasis] = None,
) -> MinCostFlowResult:
    if not _HAS_SCIPY:
        raise SolverError("scipy backend unavailable")
    scale, scaled = _scaled_demands(nodes, demands)
    index = {node: i for i, node in enumerate(nodes)}
    n, m = len(nodes), len(arcs)

    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    costs: List[float] = []
    for j, (tail, head, cost) in enumerate(arcs):
        rows.extend((index[tail], index[head]))
        cols.extend((j, j))
        data.extend((-1.0, 1.0))
        costs.append(float(cost))
    a_eq = _csr_matrix((data, (rows, cols)), shape=(n, max(m, 1)))
    b_eq = [float(scaled[node]) for node in nodes]
    outcome = _linprog(
        c=costs or [0.0],
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not outcome.success:
        if outcome.status == 2:
            raise InfeasibleFlowError(
                f"scipy/HiGHS: infeasible ({outcome.message})"
            )
        if outcome.status == 3:
            raise UnboundedFlowError(
                f"scipy/HiGHS: unbounded ({outcome.message})"
            )
        raise SolverError(f"scipy/HiGHS failed: {outcome.message}")

    int_flows: Dict[int, int] = {}
    for j in range(m):
        value = float(outcome.x[j])
        snapped = round(value)
        if abs(value - snapped) > 1e-6:
            raise SolverError(
                f"scipy/HiGHS returned fractional flow {value} on arc "
                f"{j} — total unimodularity violated"
            )
        if snapped:
            int_flows[j] = snapped
    potentials = _potentials_from_flow(nodes, arcs, int_flows)
    flows = {
        j: Fraction(value, scale) for j, value in int_flows.items()
    }
    objective = sum(
        (value * arcs[j][2] for j, value in flows.items()), Fraction(0)
    )
    return MinCostFlowResult(
        flows=flows,
        potentials=potentials,
        objective=objective,
        backend="scipy",
        iterations=int(getattr(outcome, "nit", 0) or 0),
    )


def _solve_networkx(
    nodes: Sequence[Node],
    arcs: Sequence[Arc],
    demands: Dict[Node, Fraction],
    warm_basis: Optional[WarmBasis] = None,
) -> MinCostFlowResult:
    if not _HAS_NETWORKX:
        raise SolverError("networkx backend unavailable")
    scale, scaled = _scaled_demands(nodes, demands)
    graph = _nx.MultiDiGraph()
    for node in nodes:
        graph.add_node(node, demand=scaled[node])
    for j, (tail, head, cost) in enumerate(arcs):
        graph.add_edge(tail, head, key=j, weight=int(cost))
    try:
        _, flow_dict = _nx.network_simplex(graph)
    except _nx.NetworkXUnfeasible as exc:
        raise InfeasibleFlowError(f"networkx: infeasible ({exc})") from exc
    except _nx.NetworkXUnbounded as exc:
        raise UnboundedFlowError(f"networkx: unbounded ({exc})") from exc
    except _nx.NetworkXError as exc:
        raise SolverError(f"networkx failed: {exc}") from exc

    int_flows: Dict[int, int] = {}
    for tail, sinks in flow_dict.items():
        for head, keyed in sinks.items():
            for key, value in keyed.items():
                if value:
                    int_flows[key] = int(value)
    potentials = _potentials_from_flow(nodes, arcs, int_flows)
    flows = {
        j: Fraction(value, scale) for j, value in int_flows.items()
    }
    objective = sum(
        (value * arcs[j][2] for j, value in flows.items()), Fraction(0)
    )
    return MinCostFlowResult(
        flows=flows,
        potentials=potentials,
        objective=objective,
        backend="networkx",
    )


# -- the chain --------------------------------------------------------------


def solve_min_cost_flow(
    nodes: Sequence[Node],
    arcs: Sequence[Arc],
    demands: Dict[Node, Fraction],
    warm_basis: Optional[WarmBasis] = None,
) -> MinCostFlowResult:
    """Solve with the fallback chain described in the module docstring.

    ``warm_basis`` (a previous solve's optimal basis over the *same*
    arc list) is honored by the simplex backend and silently ignored
    by the flow-only fallbacks — every backend's potentials are
    canonicalized, so the answer is warm/cold-invariant either way.

    Raises :class:`InfeasibleFlowError` / :class:`UnboundedFlowError`
    as soon as any backend proves the *problem* is bad, and
    :class:`SolverError` (with every attempt recorded in its payload)
    when all backends break down.
    """
    chain_started = time.perf_counter()
    attempts: List[BackendAttempt] = []
    for backend, func in (
        ("simplex", _solve_simplex),
        ("scipy", _solve_scipy),
        ("networkx", _solve_networkx),
    ):
        started = time.perf_counter()
        try:
            result = func(nodes, arcs, demands, warm_basis)
        except (InfeasibleFlowError, UnboundedFlowError) as exc:
            # A verdict about the problem itself: retrying with a
            # different backend cannot change it.
            metrics.count(f"mcf.verdict.{type(exc).__name__}")
            exc.payload.setdefault(
                "attempts", [a.to_dict() for a in attempts]
            )
            exc.payload.setdefault("backend", backend)
            raise
        except SolverError as exc:
            metrics.count(f"mcf.attempt.{backend}.failed")
            attempts.append(
                BackendAttempt(
                    backend=backend,
                    status="failed",
                    time_s=time.perf_counter() - started,
                    error=str(exc),
                    error_type=type(exc).__name__,
                )
            )
            continue
        metrics.count(f"mcf.attempt.{backend}.ok")
        attempts.append(
            BackendAttempt(
                backend=backend,
                status="ok",
                time_s=time.perf_counter() - started,
                objective=result.objective,
            )
        )
        metrics.count(f"mcf.solved.{backend}")
        metrics.count("mcf.solves")
        metrics.count("mcf.wall_s", time.perf_counter() - chain_started)
        result.attempts = attempts
        return result
    raise SolverError(
        "all min-cost-flow backends failed: "
        + "; ".join(f"{a.backend}: {a.error}" for a in attempts),
        payload={"attempts": [a.to_dict() for a in attempts]},
    )
