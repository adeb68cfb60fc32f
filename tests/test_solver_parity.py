"""Solver parity: simplex / scipy / networkx agree on min-cost flow.

The solver-fallback chain is only safe if every backend returns the
same optimum (objective *and* dual certificate) — these tests pin that
down on randomized instances with fixed seeds, calling each backend
directly, then exercise the fallback chain itself.
"""

import random
from fractions import Fraction

import pytest

from repro.errors import (
    InfeasibleFlowError,
    SolverError,
    SolverTimeoutError,
)
from repro.retime import mincostflow
from repro.retime.mincostflow import (
    _solve_networkx,
    _solve_scipy,
    _solve_simplex,
    solve_min_cost_flow,
    verify_solution,
)
from repro.retime.simplex import NetworkSimplex

#: Every backend's solver, in the chain's order.
BACKENDS = {
    "simplex": _solve_simplex,
    "scipy": _solve_scipy,
    "networkx": _solve_networkx,
}


def _broken(*args, **kwargs):
    raise SolverError("backend down")


def random_instance(seed, n_nodes=8, n_extra=12, fractional=False):
    """A feasible uncapacitated min-cost-flow instance.

    A bidirected ring guarantees feasibility for any balanced demand
    vector; extra random arcs add alternative optima.  Costs are
    non-negative, so no instance is unbounded.
    """
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(n_nodes)]
    arcs = []
    for i in range(n_nodes):
        j = (i + 1) % n_nodes
        arcs.append((nodes[i], nodes[j], rng.randint(0, 9)))
        arcs.append((nodes[j], nodes[i], rng.randint(0, 9)))
    for _ in range(n_extra):
        tail, head = rng.sample(nodes, 2)
        arcs.append((tail, head, rng.randint(0, 9)))

    denominators = (2, 3) if fractional else (1,)
    demands = {}
    total = Fraction(0)
    for node in nodes[:-1]:
        value = Fraction(rng.randint(-6, 6), rng.choice(denominators))
        demands[node] = value
        total += value
    demands[nodes[-1]] = -total
    return nodes, arcs, demands


class TestBackendParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_integral_instances_agree(self, seed):
        nodes, arcs, demands = random_instance(seed)
        results = {}
        for backend, solve in BACKENDS.items():
            result = solve(nodes, arcs, demands)
            assert verify_solution(nodes, arcs, demands, result) == []
            results[backend] = result
        objectives = {r.objective for r in results.values()}
        assert len(objectives) == 1, objectives
        for result in results.values():
            # Integral problem => integral optimum (total unimodularity).
            for value in result.flows.values():
                assert value.denominator == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_fractional_demands_agree(self, seed):
        nodes, arcs, demands = random_instance(seed + 100, fractional=True)
        results = [solve(nodes, arcs, demands) for solve in BACKENDS.values()]
        for result in results:
            assert verify_solution(nodes, arcs, demands, result) == []
        assert len({r.objective for r in results}) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_dual_certificates_verify(self, seed):
        nodes, arcs, demands = random_instance(seed + 200)
        for backend, solve in BACKENDS.items():
            result = solve(nodes, arcs, demands)
            assert result.backend == backend
            assert verify_solution(nodes, arcs, demands, result) == []


class TestFallbackChain:
    def test_simplex_budget_falls_through_to_scipy(self, monkeypatch):
        nodes, arcs, demands = random_instance(3, n_nodes=10)

        def capped(nodes, arcs, demands, warm_basis=None):
            return NetworkSimplex(
                nodes, arcs, demands, max_iterations=1
            ).solve()

        monkeypatch.setattr(mincostflow, "_solve_simplex", capped)
        result = solve_min_cost_flow(nodes, arcs, demands)
        assert result.backend == "scipy"
        attempts = {a.backend: a for a in result.attempts}
        assert attempts["simplex"].status == "failed"
        assert attempts["simplex"].error_type == "SolverTimeoutError"
        # The fallback answer is still the true optimum.
        reference = _solve_networkx(nodes, arcs, demands)
        assert result.objective == reference.objective

    def test_single_capped_backend_raises_timeout(self):
        nodes, arcs, demands = random_instance(3, n_nodes=10)
        simplex = NetworkSimplex(nodes, arcs, demands, max_iterations=1)
        with pytest.raises(SolverTimeoutError, match="iteration budget"):
            simplex.solve()

    def test_all_backends_failing_reports_attempts(self, monkeypatch):
        nodes, arcs, demands = random_instance(5)
        for backend in BACKENDS:
            monkeypatch.setattr(mincostflow, f"_solve_{backend}", _broken)
        with pytest.raises(SolverError) as info:
            solve_min_cost_flow(nodes, arcs, demands)
        attempts = info.value.payload["attempts"]
        assert [a["backend"] for a in attempts] == list(BACKENDS)
        assert {a["status"] for a in attempts} == {"failed"}
        assert "all min-cost-flow backends failed" in str(info.value)

    def test_infeasible_propagates_without_fallback(self):
        nodes = ["a", "b"]
        arcs = [("a", "b", 1)]
        demands = {"a": Fraction(1), "b": Fraction(1)}
        with pytest.raises(InfeasibleFlowError):
            solve_min_cost_flow(nodes, arcs, demands)

    def test_deadline_is_enforced(self):
        nodes, arcs, demands = random_instance(9, n_nodes=12, n_extra=30)
        simplex = NetworkSimplex(nodes, arcs, demands, deadline_s=0.0)
        with pytest.raises(SolverTimeoutError, match="deadline"):
            simplex.solve()


class TestRetimingParity:
    def test_retiming_flow_matches_lp_under_every_backend(
        self, fig4, monkeypatch
    ):
        from repro.retime.graph import build_retiming_graph
        from repro.retime.ilp import solve_retiming_lp
        from repro.retime.netflow import solve_retiming_flow
        from repro.retime.regions import compute_regions

        regions = compute_regions(fig4)
        graph = build_retiming_graph(fig4, regions, overhead=2.0)
        reference = solve_retiming_lp(graph).objective
        order = list(BACKENDS)
        for backend in order:
            # Break every backend ahead of this one in the chain.
            with monkeypatch.context() as patch:
                for earlier in order[: order.index(backend)]:
                    patch.setattr(mincostflow, f"_solve_{earlier}", _broken)
                solution = solve_retiming_flow(graph)
            assert solution.objective == reference
            assert solution.backend == backend

    def test_flow_solution_records_attempts(self, fig4):
        from repro.retime.graph import build_retiming_graph
        from repro.retime.netflow import solve_retiming_flow
        from repro.retime.regions import compute_regions

        regions = compute_regions(fig4)
        graph = build_retiming_graph(fig4, regions, overhead=2.0)
        solution = solve_retiming_flow(graph)
        assert solution.backend == "simplex"
        assert [a.backend for a in solution.attempts] == ["simplex"]
        assert solution.attempts[0].status == "ok"
