"""Tests for placements and the two-phase resilient circuit model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import metrics
from repro.circuits.fig4 import fig4_circuit
from repro.flows import prepare_circuit
from repro.latches import HOST, SlavePlacement, TwoPhaseCircuit
from repro.latches.conversion import flop_resilient_area, original_flop_report
from repro.netlist.netlist import GateType


def cut2_placement():
    """The paper's Cut2: slaves after G4, G5, G6."""
    return SlavePlacement(
        retimed={"I1", "I2", "G3", "G4", "G5", "G6"}
    )


def cut1_placement():
    """The paper's Cut1: slaves after G3 and I2."""
    return SlavePlacement(retimed={"I1", "I2", "G3"})


class TestSlavePlacement:
    def test_initial_all_host_edges(self, fig4):
        placement = SlavePlacement.initial()
        edges = set(placement.latch_edges(fig4.netlist))
        assert edges == {(HOST, "I1"), (HOST, "I2")}

    def test_r_accessors(self):
        placement = SlavePlacement.initial()
        placement.set_r("x", -1)
        assert placement.r("x") == -1
        placement.set_r("x", 0)
        assert placement.r("x") == 0
        with pytest.raises(ValueError):
            placement.set_r("x", 1)

    def test_from_r_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SlavePlacement.from_r({"a": -2})

    def test_cut1_edges_and_sites(self, fig4):
        placement = cut1_placement()
        edges = set(placement.latch_edges(fig4.netlist))
        assert edges == {("G3", "G4"), ("G3", "G6"), ("I2", "G4"), ("I2", "G5")}
        sites = placement.latch_sites(fig4.netlist)
        # Fanout sharing: one latch at G3, one at I2 (paper: 2 slaves).
        assert placement.slave_count(fig4.netlist) == 2
        assert {s for s, _ in sites} == {"G3", "I2"}

    def test_cut2_three_latches(self, fig4):
        placement = cut2_placement()
        assert placement.slave_count(fig4.netlist) == 3
        sites = {s for s, _ in placement.latch_sites(fig4.netlist)}
        assert sites == {"G4", "G5", "G6"}

    def test_host_edges_not_shared(self, fig4):
        """Each master's slave is distinct: two host latches = 2."""
        placement = SlavePlacement.initial()
        assert placement.slave_count(fig4.netlist) == 2

    def test_negative_edge_detection(self, fig4):
        # Retiming G6 without its fanin G3 starves edge (G3, G6).
        placement = SlavePlacement(retimed={"G6"})
        bad = placement.check_nonnegative(fig4.netlist)
        assert ("G3", "G6") in bad

    def test_dff_sink_role_fixed(self, tiny_netlist):
        """Edges into a flop's D pin always use r = 0 for the sink."""
        placement = SlavePlacement(retimed={"f1"})
        # Host edge to f1's Q side reflects the move...
        assert placement.edge_weight_after(tiny_netlist, HOST, "f1") == 0
        # ...but the D-side edge g3 -> f1 does not see r(f1).
        assert placement.edge_weight_after(tiny_netlist, "g3", "f1") == 0

    def test_copy_and_eq(self):
        a = SlavePlacement(retimed={"x"})
        b = a.copy()
        assert a == b
        b.set_r("y", -1)
        assert a != b


class TestFig4Timing:
    def test_paper_a_values(self, fig4):
        """Eq. (5) arrivals quoted in Section IV-A."""
        assert fig4.arrival_through("G6", "G7", "O9") == pytest.approx(9)
        assert fig4.arrival_through("G3", "G6", "O9") == pytest.approx(12)
        assert fig4.arrival_through("G5", "G7", "O9") == pytest.approx(7)
        assert fig4.arrival_through("I2", "G5", "O9") == pytest.approx(12)

    def test_cut1_arrival_12(self, fig4):
        assert fig4.endpoint_arrival(
            cut1_placement(), "O9"
        ) == pytest.approx(12)

    def test_cut2_arrival_9(self, fig4):
        assert fig4.endpoint_arrival(
            cut2_placement(), "O9"
        ) == pytest.approx(9)

    def test_cut1_edl_cut2_not(self, fig4):
        assert fig4.is_edl(cut1_placement(), "O9")
        assert not fig4.is_edl(cut2_placement(), "O9")
        assert not fig4.is_edl(cut1_placement(), "O10")
        assert not fig4.is_edl(cut2_placement(), "O10")

    def test_paper_unit_costs(self, fig4):
        """Cut1 costs 5 units, Cut2 costs 4 at c = 2 (plus the O10
        master both cuts pay equally)."""
        cost1 = fig4.sequential_cost(cut1_placement(), overhead=2.0)
        cost2 = fig4.sequential_cost(cut2_placement(), overhead=2.0)
        # Paper counts only O9's master; both placements add O10's.
        assert cost1.latch_units == pytest.approx(5 + 1)
        assert cost2.latch_units == pytest.approx(4 + 1)
        assert cost2.latch_units < cost1.latch_units

    def test_arrivals_dp_matches_per_endpoint(self, fig4):
        for placement in (
            SlavePlacement.initial(), cut1_placement(), cut2_placement()
        ):
            bulk = fig4.endpoint_arrivals(placement)
            for endpoint in fig4.endpoint_names:
                assert bulk[endpoint] == pytest.approx(
                    fig4.endpoint_arrival(placement, endpoint)
                )

    def test_regions_match_paper(self, fig4):
        assert fig4.region_vm() == {"I1"}
        assert fig4.region_vn() == {"G7", "G8"}
        assert fig4.region_vr() == {"I2", "G3", "G4", "G5", "G6"}

    def test_legality_cut2(self, fig4):
        report = fig4.check_legality(cut2_placement())
        assert report.ok
        assert not report.window_overflows

    def test_initial_placement_violates_backward(self, fig4):
        """The initial position breaks constraint (7) through I1."""
        report = fig4.check_legality(SlavePlacement.initial())
        assert report.backward_violations
        assert report.needs_sizing

    def test_retimed_po_flagged(self, fig4):
        placement = cut2_placement()
        placement.set_r("O9", -1)
        report = fig4.check_legality(placement)
        assert "O9" in report.retimed_endpoints
        assert not report.ok


class TestLegalityCost:
    def test_check_legality_builds_no_backward_tables(self, s1196, library):
        """Window overflows come from the one arrival DP: the check
        builds no per-endpoint ``D^b`` table."""
        _, circuit = prepare_circuit(s1196.copy(), library)
        placement = SlavePlacement(retimed=circuit.region_vm())
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            circuit.check_legality(placement)
        assert collector.counters.get("sta.backward_to.compute", 0) == 0


class TestCircuitQueries:
    def test_df_host_is_zero(self, fig4):
        assert fig4.df(HOST) == 0.0

    def test_always_edl_uses_plain_arrival(self, fig4):
        # O9's longest path is 9 < Pi = 10: not forced.
        assert fig4.always_edl_endpoints() == set()

    def test_latch_area_unit_without_library(self, fig4):
        assert fig4.latch_area == 1.0

    def test_sequential_cost_fields(self, fig4):
        cost = fig4.sequential_cost(cut2_placement(), overhead=0.5)
        assert cost.n_slaves == 3
        assert cost.n_masters == 2
        assert cost.n_edl == 0
        assert cost.latch_units == pytest.approx(5.0)

    def test_total_area_requires_library(self, fig4):
        with pytest.raises(ValueError):
            fig4.total_area(cut2_placement(), 1.0)


class TestConversion:
    def test_flop_report(self, small_prepared, small_netlist, library):
        scheme, _ = small_prepared
        report = original_flop_report(small_netlist, scheme, library)
        assert report.n_flops == 10
        assert report.total_area == pytest.approx(
            report.comb_area + report.flop_area
        )
        assert 0 <= report.n_near_critical <= 14
        assert report.worst_arrival <= scheme.max_path_delay + 1e-9

    def test_flop_resilient_area_scales_with_overhead(
        self, small_prepared, small_netlist, library
    ):
        scheme, _ = small_prepared
        report = original_flop_report(small_netlist, scheme, library)
        low = flop_resilient_area(report, library, 0.5)
        high = flop_resilient_area(report, library, 2.0)
        assert high >= low >= report.total_area


class TestPlacementProperties:
    @given(st.sets(st.sampled_from(
        ["I1", "I2", "G3", "G4", "G5", "G6"]
    )))
    @settings(max_examples=40, deadline=None)
    def test_path_latch_count_invariant(self, retimed):
        """Any legal placement keeps exactly one latch per path.

        Retiming preserves path weights: for every source-to-endpoint
        path, the number of latched edges is exactly one whenever no
        edge weight went negative.
        """
        circuit = fig4_circuit()
        netlist = circuit.netlist
        placement = SlavePlacement(retimed=set(retimed))
        if placement.check_nonnegative(netlist):
            return  # illegal move; not a valid retiming
        latched = set(placement.latch_edges(netlist))

        def count_paths(node, crossed):
            gate = netlist[node]
            if gate.is_source:
                host_crossed = crossed + (
                    1 if (HOST, node) in latched else 0
                )
                assert host_crossed == 1
                return
            for driver in gate.fanins:
                edge_crossed = crossed + (
                    1 if (driver, node) in latched else 0
                )
                assert edge_crossed <= 1
                count_paths(driver, edge_crossed)

        for endpoint in circuit.endpoint_names:
            count_paths(endpoint, 0)
