"""Tests for the network-simplex min-cost-flow solver."""

import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, SolverError
from repro.retime.mincostflow import _solve_simplex, solve_min_cost_flow
from repro.retime.simplex import (
    InfeasibleFlowError,
    NetworkSimplex,
    UnboundedFlowError,
    WarmBasis,
)


def solve(nodes, arcs, demands):
    simplex = NetworkSimplex(nodes, arcs, demands)
    result = simplex.solve()
    assert simplex.verify(result) == []
    return result


class TestBasics:
    def test_single_arc(self):
        result = solve(
            ["s", "t"], [("s", "t", 3)], {"s": Fraction(-2), "t": Fraction(2)}
        )
        assert result.objective == 6
        assert list(result.flows.values()) == [Fraction(2)]

    def test_two_routes_picks_cheap(self):
        nodes = ["s", "a", "b", "t"]
        arcs = [
            ("s", "a", 1), ("a", "t", 1),
            ("s", "b", 5), ("b", "t", 5),
        ]
        demands = {"s": Fraction(-1), "t": Fraction(1)}
        result = solve(nodes, arcs, demands)
        assert result.objective == 2

    def test_zero_demand_zero_flow(self):
        result = solve(["a", "b"], [("a", "b", 1)], {})
        assert result.objective == 0
        assert result.flows == {}

    def test_unbalanced_rejected(self):
        with pytest.raises(InfeasibleFlowError):
            NetworkSimplex(["a"], [], {"a": Fraction(1)})

    def test_disconnected_infeasible(self):
        simplex = NetworkSimplex(
            ["a", "b"], [], {"a": Fraction(-1), "b": Fraction(1)}
        )
        with pytest.raises(InfeasibleFlowError):
            simplex.solve()

    def test_negative_cycle_unbounded(self):
        simplex = NetworkSimplex(
            ["a", "b"],
            [("a", "b", -1), ("b", "a", -1)],
            {},
        )
        with pytest.raises(UnboundedFlowError):
            simplex.solve()

    def test_negative_cost_arc_ok(self):
        """Negative costs without negative cycles are fine (the
        retiming graph's Vm bound edges have cost -1)."""
        result = solve(
            ["s", "t"],
            [("s", "t", -2), ("t", "s", 5)],
            {"s": Fraction(-1), "t": Fraction(1)},
        )
        assert result.objective == -2

    def test_fractional_demands(self):
        result = solve(
            ["s", "a", "t"],
            [("s", "a", 1), ("a", "t", 1), ("s", "t", 3)],
            {
                "s": Fraction(-3, 2),
                "a": Fraction(1, 2),
                "t": Fraction(1),
            },
        )
        # s->a carries 3/2? a absorbs 1/2 and forwards 1 to t.
        assert result.objective == Fraction(3, 2) + 1

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            NetworkSimplex(["a", "a"], [], {})

    def test_potentials_integral(self):
        result = solve(
            ["s", "m", "t"],
            [("s", "m", 2), ("m", "t", 7), ("s", "t", 11)],
            {"s": Fraction(-2), "m": Fraction(0), "t": Fraction(2)},
        )
        for value in result.potentials.values():
            assert isinstance(value, int)


class TestTransportation:
    def test_classic_instance(self):
        """2 suppliers x 3 consumers transportation problem, checked
        against networkx."""
        nodes = ["s1", "s2", "c1", "c2", "c3"]
        arcs = [
            ("s1", "c1", 4), ("s1", "c2", 2), ("s1", "c3", 5),
            ("s2", "c1", 3), ("s2", "c2", 6), ("s2", "c3", 1),
        ]
        demands = {
            "s1": Fraction(-30), "s2": Fraction(-20),
            "c1": Fraction(15), "c2": Fraction(20), "c3": Fraction(15),
        }
        result = solve(nodes, arcs, demands)

        graph = nx.DiGraph()
        for node, demand in demands.items():
            graph.add_node(node, demand=int(demand))
        for tail, head, cost in arcs:
            graph.add_edge(tail, head, weight=cost)
        expected = nx.min_cost_flow_cost(graph)
        assert result.objective == expected


@st.composite
def flow_instances(draw):
    """Random connected min-cost-flow instances with integer demands."""
    n = draw(st.integers(min_value=2, max_value=7))
    nodes = [f"n{i}" for i in range(n)]
    # A spanning chain guarantees connectivity both ways.
    arcs = []
    for i in range(n - 1):
        arcs.append((nodes[i], nodes[i + 1], draw(st.integers(0, 9))))
        arcs.append((nodes[i + 1], nodes[i], draw(st.integers(0, 9))))
    extra = draw(st.integers(min_value=0, max_value=8))
    for _ in range(extra):
        a = draw(st.sampled_from(nodes))
        b = draw(st.sampled_from(nodes))
        if a != b:
            arcs.append((a, b, draw(st.integers(0, 9))))
    supplies = [draw(st.integers(-5, 5)) for _ in range(n - 1)]
    supplies.append(-sum(supplies))
    demands = {node: Fraction(s) for node, s in zip(nodes, supplies)}
    return nodes, arcs, demands


class TestAgainstNetworkx:
    @given(flow_instances())
    @settings(max_examples=60, deadline=None)
    def test_objective_matches_networkx(self, instance):
        nodes, arcs, demands = instance
        result = solve(nodes, arcs, demands)

        graph = nx.MultiDiGraph()
        for node, demand in demands.items():
            graph.add_node(node, demand=int(demand))
        for tail, head, cost in arcs:
            graph.add_edge(tail, head, weight=cost)
        expected = nx.min_cost_flow_cost(graph)
        assert result.objective == expected


TRANSPORT = dict(
    nodes=["s1", "s2", "c1", "c2", "c3"],
    arcs=[
        ("s1", "c1", 4), ("s1", "c2", 2), ("s1", "c3", 5),
        ("s2", "c1", 3), ("s2", "c2", 6), ("s2", "c3", 1),
    ],
)


def _transport_demands(scale=1):
    return {
        "s1": Fraction(-30 * scale), "s2": Fraction(-20 * scale),
        "c1": Fraction(15 * scale), "c2": Fraction(20 * scale),
        "c3": Fraction(15 * scale),
    }


class TestWarmStart:
    def test_identical_demands_take_zero_pivots(self):
        cold = NetworkSimplex(**TRANSPORT, demands=_transport_demands())
        first = cold.solve()
        basis = cold.export_basis()
        assert basis is not None and basis.real_arcs

        warm = NetworkSimplex(
            **TRANSPORT, demands=_transport_demands(), warm_basis=basis
        )
        second = warm.solve()
        assert warm.basis_reused
        assert second.iterations == 0
        assert second.objective == first.objective
        assert second.flows == first.flows
        assert warm.verify(second) == []

    def test_changed_demands_repair_to_the_same_optimum(self):
        cold = NetworkSimplex(**TRANSPORT, demands=_transport_demands())
        cold.solve()
        basis = cold.export_basis()

        warm = NetworkSimplex(
            **TRANSPORT, demands=_transport_demands(scale=2),
            warm_basis=basis,
        )
        result = warm.solve()
        assert warm.basis_reused
        assert warm.verify(result) == []
        oracle = solve(
            TRANSPORT["nodes"], TRANSPORT["arcs"], _transport_demands(2)
        )
        assert result.objective == oracle.objective

    def test_corrupt_basis_falls_back_to_cold_start(self):
        # A cycle (not a forest) must be rejected, not trusted.
        bad = WarmBasis(n=5, m=6, real_arcs=(0, 1, 3, 4))
        warm = NetworkSimplex(
            **TRANSPORT, demands=_transport_demands(), warm_basis=bad
        )
        result = warm.solve()
        assert not warm.basis_reused
        assert warm.verify(result) == []
        oracle = solve(
            TRANSPORT["nodes"], TRANSPORT["arcs"], _transport_demands()
        )
        assert result.objective == oracle.objective

    def test_mismatched_shape_falls_back(self):
        stale = WarmBasis(n=3, m=2, real_arcs=(0,))
        warm = NetworkSimplex(
            **TRANSPORT, demands=_transport_demands(), warm_basis=stale
        )
        result = warm.solve()
        assert not warm.basis_reused
        assert warm.verify(result) == []

    @given(flow_instances(), flow_instances())
    @settings(max_examples=40, deadline=None)
    def test_warm_start_matches_cold_on_random_pairs(self, first, second):
        """Solve A cold, then reuse A's basis on B's demands whenever
        the instances share a shape — the warm objective must equal the
        cold one."""
        nodes, arcs, demands_a = first
        _, _, demands_b = second
        if len(demands_b) != len(demands_a):
            demands_b = demands_a
        try:
            cold_a = solve(nodes, arcs, demands_a)
        except InfeasibleFlowError:
            return
        simplex_a = NetworkSimplex(nodes, arcs, demands_a)
        simplex_a.solve()
        basis = simplex_a.export_basis()

        demands_b = dict(zip(nodes, demands_b.values()))
        try:
            oracle = solve(nodes, arcs, demands_b)
        except InfeasibleFlowError:
            return
        warm = NetworkSimplex(nodes, arcs, demands_b, warm_basis=basis)
        result = warm.solve()
        assert warm.verify(result) == []
        assert result.objective == oracle.objective


# -- pricing: the vectorized pass against the per-arc loop -------------------


def _loop_find_entering(self, cursor, bland):
    """The per-arc pricing loop the vectorized pass replaced: the
    oracle for the entering arc of every pivot."""
    m = self.m
    tail, head, cost, pot, in_tree = (
        self.tail, self.head, self.cost, self.pot, self.in_tree
    )

    def eligible(arc):
        return not in_tree[arc] and (
            cost[arc] - pot[tail[arc]] + pot[head[arc]] < 0
        )

    if bland:
        return next((arc for arc in range(m) if eligible(arc)), None)
    if self.pivot_chaos is not None:
        candidates = [arc for arc in range(m) if eligible(arc)]
        return self.pivot_chaos.choice(candidates) if candidates else None
    block = max(64, m // 40)
    scanned, position = 0, cursor
    while scanned < m:
        best, best_rc = None, 0
        upper = min(block, m - scanned)
        for offset in range(upper):
            arc = (position + offset) % m
            if in_tree[arc]:
                continue
            rc = cost[arc] - pot[tail[arc]] + pot[head[arc]]
            if rc < best_rc:
                best_rc, best = rc, arc
        if best is not None:
            return best
        scanned += upper
        position = (position + upper) % m
    return None


@st.composite
def priced_instances(draw):
    """Instances past one pricing block (more than 64 arcs): integer
    costs with negative ones, fractional demands, and a second demand
    vector for a warm start."""
    n = draw(st.integers(min_value=6, max_value=24))
    nodes = [f"v{i}" for i in range(n)]
    arcs = []
    for i in range(n - 1):
        arcs.append((nodes[i], nodes[i + 1], draw(st.integers(0, 12))))
        arcs.append((nodes[i + 1], nodes[i], draw(st.integers(0, 12))))
    for _ in range(draw(st.integers(min_value=64, max_value=160))):
        a, b = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        if a != b:
            arcs.append((a, b, draw(st.integers(-3, 12))))
    fraction = st.builds(
        Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6])
    )

    def demand_vector():
        values = [draw(fraction) for _ in range(n - 1)]
        return dict(zip(nodes, values + [-sum(values)]))

    return nodes, arcs, demand_vector(), demand_vector()


def _run(nodes, arcs, demands, **kwargs):
    """A solve's observable trace: the result or the raised error."""
    chaos_seed = kwargs.pop("chaos_seed", None)
    if chaos_seed is not None:
        kwargs["pivot_chaos"] = random.Random(chaos_seed)
    simplex = NetworkSimplex(nodes, arcs, demands, **kwargs)
    try:
        result = simplex.solve()
    except ReproError as exc:
        return ("raised", type(exc).__name__, str(exc), exc.payload)
    return (
        result.iterations,
        result.degenerate_pivots,
        result.bland_used,
        result.flows,
        result.potentials,
        result.objective,
        simplex.export_basis(),
    )


class TestVectorizedPricing:
    """The vectorized pricing picks the loop's entering arc at every
    pivot, so every solve traces identically."""

    @given(
        priced_instances(),
        st.sampled_from(["cold", "warm", "bland", "chaos"]),
        st.integers(2, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_pivots_as_the_per_arc_loop(self, instance, mode, knob):
        nodes, arcs, demands, other = instance
        kwargs = {}
        if mode == "warm":
            seed = NetworkSimplex(nodes, arcs, other)
            try:
                seed.solve()
            except ReproError:
                return
            kwargs["warm_basis"] = seed.export_basis()
        elif mode == "bland":
            # Bland's rule takes over after max_iterations // 2 pivots.
            kwargs["max_iterations"] = knob
        elif mode == "chaos":
            kwargs["chaos_seed"] = knob
        vectorized = _run(nodes, arcs, demands, **kwargs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                NetworkSimplex, "_find_entering", _loop_find_entering
            )
            looped = _run(nodes, arcs, demands, **kwargs)
        assert vectorized == looped

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_basis_state_prices_like_the_loop(self, data):
        """Pricing alone, on arbitrary potentials and tree masks with
        sparse eligible arcs, so windows often come up empty and the
        scan wraps around the arc list."""
        n = data.draw(st.integers(2, 6))
        m = data.draw(st.integers(1, 300))
        nodes = [f"v{i}" for i in range(n)]

        def column(values):
            return data.draw(st.lists(values, min_size=m, max_size=m))

        arcs = [
            (nodes[tail], nodes[head], cost)
            for tail, head, cost in zip(
                column(st.integers(0, n - 1)),
                column(st.integers(0, n - 1)),
                column(st.integers(0, 200)),
            )
        ]
        simplex = NetworkSimplex(nodes, arcs, {})
        simplex._build_initial_tree()
        simplex.pot[:] = data.draw(
            st.lists(st.integers(-4, 4), min_size=n + 1, max_size=n + 1)
        )
        simplex.in_tree[:m] = data.draw(
            st.lists(st.integers(0, 1), min_size=m, max_size=m)
        )
        cursor = data.draw(st.integers(0, m - 1))
        for bland in (False, True):
            assert simplex._find_entering(cursor, bland) == (
                _loop_find_entering(simplex, cursor, bland)
            )
        chaos = data.draw(st.integers(0, 99))
        simplex.pivot_chaos = random.Random(chaos)
        vectorized = simplex._find_entering(cursor, False)
        simplex.pivot_chaos = random.Random(chaos)
        assert vectorized == _loop_find_entering(simplex, cursor, False)

    def test_forced_bland_switch_solves_identically(self):
        nodes, arcs, demands = _bland_instance()
        vectorized = _run(nodes, arcs, demands, max_iterations=40)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                NetworkSimplex, "_find_entering", _loop_find_entering
            )
            looped = _run(nodes, arcs, demands, max_iterations=40)
        assert vectorized == looped
        iterations, _, bland_used = vectorized[:3]
        assert iterations > 20 and bland_used is True


def _bland_instance():
    """A fixed instance needing more than 20 pivots from a cold start,
    so ``max_iterations=40`` switches to Bland's rule mid-solve."""
    rng = random.Random(5)
    nodes = [f"v{i}" for i in range(16)]
    arcs = [
        (nodes[i], nodes[j], rng.randint(0, 9))
        for i in range(16)
        for j in range(16)
        if i != j and rng.random() < 0.4
    ]
    supplies = [Fraction(rng.randint(-6, 6), 2) for _ in range(15)]
    demands = dict(zip(nodes, supplies + [-sum(supplies)]))
    return nodes, arcs, demands


class TestInt64Guard:
    """Potentials that could overflow int64 are refused with a typed
    error, and the fallback chain answers instead."""

    SCALE = 2**58  # costs still fit int64; (n + 1) * big-M does not

    def _scaled(self):
        arcs = [
            (tail, head, cost * self.SCALE)
            for tail, head, cost in TRANSPORT["arcs"]
        ]
        return TRANSPORT["nodes"], arcs, _transport_demands()

    def test_constructor_raises_solver_error(self):
        nodes, arcs, demands = self._scaled()
        with pytest.raises(SolverError, match="int64"):
            NetworkSimplex(nodes, arcs, demands)

    def test_fallback_answers_with_scaled_canonical_potentials(self):
        nodes, arcs, demands = self._scaled()
        result = solve_min_cost_flow(nodes, arcs, demands)
        assert result.backend == "scipy"
        assert [a.backend for a in result.attempts] == ["simplex", "scipy"]
        small = _solve_simplex(nodes, TRANSPORT["arcs"], demands)
        # Canonical potentials are shortest residual distances, which
        # scale with the costs; the optimal flows are the same set.
        assert result.potentials == {
            node: value * self.SCALE
            for node, value in small.potentials.items()
        }
        assert result.objective == small.objective * self.SCALE
