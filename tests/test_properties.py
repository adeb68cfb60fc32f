"""Cross-cutting property-based tests on randomly generated circuits.

These hammer the invariants that make the reproduction trustworthy:
solver exactness (simplex == LP), retiming legality, credit soundness,
and arrival-model consistency, across a family of random FSM clouds.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cells import default_library
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.flows import prepare_circuit
from repro.latches import SlavePlacement
from repro.latches.resilient import EPS
from repro.retime import (
    base_retime,
    build_retiming_graph,
    compute_cut_sets,
    compute_regions,
    grar_retime,
    solve_retiming_flow,
    solve_retiming_lp,
)

LIBRARY = default_library()


def make_circuit(seed, flops=8, gates=90, depth=6, fraction=0.3):
    spec = CloudSpec(
        name=f"prop{seed}",
        seed=seed,
        n_inputs=4,
        n_outputs=3,
        n_flops=flops,
        n_gates=gates,
        depth=depth,
        critical_fraction=fraction,
    )
    netlist = generate_circuit(spec, LIBRARY)
    _, circuit = prepare_circuit(netlist, LIBRARY)
    return circuit


SEEDS = st.integers(min_value=1, max_value=10**6)
SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSolverExactness:
    @given(SEEDS, st.sampled_from([0.5, 1.0, 2.0]))
    @SLOW
    def test_simplex_matches_lp(self, seed, overhead):
        circuit = make_circuit(seed)
        regions = compute_regions(circuit)
        cuts = compute_cut_sets(circuit, regions)
        graph = build_retiming_graph(circuit, regions, cuts, overhead)
        flow = solve_retiming_flow(graph)
        lp = solve_retiming_lp(graph)
        assert flow.objective == lp.objective

    @given(SEEDS)
    @SLOW
    def test_labels_within_bounds(self, seed):
        circuit = make_circuit(seed)
        regions = compute_regions(circuit)
        graph = build_retiming_graph(circuit, regions)
        flow = solve_retiming_flow(graph)
        for name, (lo, hi) in graph.bounds.items():
            assert lo <= flow.r_values[name] <= hi


class TestRetimingInvariants:
    @given(SEEDS, st.sampled_from([0.5, 2.0]))
    @SLOW
    def test_grar_placement_legal(self, seed, overhead):
        circuit = make_circuit(seed)
        result = grar_retime(circuit, overhead=overhead)
        report = circuit.check_legality(result.placement)
        assert report.ok, report.summary()

    @given(SEEDS)
    @SLOW
    def test_credits_sound(self, seed):
        """Every credit the solver takes must be a real non-EDL master."""
        circuit = make_circuit(seed)
        result = grar_retime(circuit, overhead=2.0)
        edl = circuit.edl_endpoints(result.placement)
        assert not (result.credited_endpoints & edl)

    @given(SEEDS)
    @SLOW
    def test_grar_cost_never_above_base(self, seed):
        circuit = make_circuit(seed)
        grar = grar_retime(circuit, overhead=1.0)
        # The resiliency-unaware *min-area* objective is an upper
        # bound for the G-RAR objective: any min-area labeling extends
        # to the credit graph with only non-positive credit terms.
        # (Realized latch_units can tie-break either way — masters may
        # be non-EDL without an earned credit — so only the objectives
        # are comparable exactly.)
        regions = compute_regions(circuit)
        graph = build_retiming_graph(circuit, regions)
        plain = solve_retiming_flow(graph)
        assert grar.objective <= plain.objective

    @given(SEEDS)
    @SLOW
    def test_arrival_dp_matches_per_endpoint(self, seed):
        """The one-pass arrival DP equals the per-endpoint eq. (5)
        oracle on every placement kind, unretimed flop Q slaves and
        FSM Q->D loops included, and the legality check's window
        overflows are exactly the oracle's."""
        circuit = make_circuit(seed)
        window_close = circuit.scheme.window_close
        placements = (
            SlavePlacement.initial(),
            SlavePlacement(retimed=circuit.region_vm()),
            base_retime(circuit, overhead=1.0).placement,
            grar_retime(circuit, overhead=1.0).placement,
        )
        for placement in placements:
            bulk = circuit.endpoint_arrivals(placement)
            oracle = {
                endpoint: circuit.endpoint_arrival(placement, endpoint)
                for endpoint in circuit.endpoint_names
            }
            for endpoint, arrival in oracle.items():
                assert bulk[endpoint] == pytest.approx(arrival)
            overflows = circuit.check_legality(placement).window_overflows
            assert set(overflows) == {
                endpoint
                for endpoint, arrival in oracle.items()
                if arrival - window_close > EPS
            }

    @given(SEEDS)
    @SLOW
    def test_initial_placement_slave_count(self, seed):
        """Before retiming there is one slave per source."""
        circuit = make_circuit(seed)
        placement = SlavePlacement.initial()
        assert placement.slave_count(circuit.netlist) == len(
            circuit.source_names
        )
