"""Tests for the engine's min-delay (hold) arrivals and hold fixing."""

import pytest

from repro.circuits.fig4 import FIG4_DELAYS, fig4_netlist
from repro.errors import TimingError
from repro.sta import FixedDelayCalculator, TimingEngine
from repro.synth.hold_fix import fix_hold


@pytest.fixture()
def analysis(small_netlist, library):
    return TimingEngine(small_netlist.copy(), library)


class TestMinDelay:
    def test_min_bounded_by_max(self, small_netlist, library):
        """Minimum arrivals can never exceed maximum arrivals."""
        netlist = small_netlist.copy()
        engine = TimingEngine(netlist, library)
        for gate in netlist.endpoints():
            assert (
                engine.min_endpoint_arrival(gate.name)
                <= engine.endpoint_arrival(gate.name) + 1e-9
            )

    def test_sources_at_zero(self, analysis):
        for gate in analysis.netlist.sources():
            assert analysis.min_arrival(gate.name) == 0.0

    def test_min_edge_delay_positive(self, analysis):
        gate = analysis.netlist.comb_gates()[0]
        for driver in gate.fanins:
            assert analysis.min_edge_delay(driver, gate.name) > 0

    def test_trace_min_path_connected(self, analysis):
        endpoint = analysis.netlist.endpoints()[0].name
        path = analysis.trace_min_path(endpoint)
        assert path[-1] == endpoint
        assert analysis.netlist[path[0]].is_source
        for driver, sink in zip(path, path[1:]):
            assert driver in analysis.netlist[sink].fanins

    def test_hold_violations_monotone_in_bound(self, analysis):
        few = analysis.hold_violations(0.001)
        many = analysis.hold_violations(1.0)
        assert set(few) <= set(many)

    def test_endpoint_guard(self, analysis):
        with pytest.raises(ValueError):
            analysis.min_endpoint_arrival(
                analysis.netlist.comb_gates()[0].name
            )

    def test_needs_a_cell_library(self):
        """An engine built from a calculator alone (Fig. 4's fixed
        delays) has no min-mode arcs: a typed error, not a crash."""
        netlist = fig4_netlist()
        engine = TimingEngine(
            netlist, None,
            calculator=FixedDelayCalculator(netlist, FIG4_DELAYS),
        )
        with pytest.raises(TimingError, match="cell library"):
            engine.min_endpoint_arrival("O9")


class TestHoldFix:
    def test_fixes_violations(self, small_netlist, library):
        netlist = small_netlist.copy()
        analysis = TimingEngine(netlist, library)
        # A bound just above the current shortest endpoint path.
        shortest = min(
            analysis.min_endpoint_arrival(g.name)
            for g in netlist.endpoints()
        )
        bound = shortest + 0.03
        before = analysis.hold_violations(bound)
        assert before  # something to fix
        report = fix_hold(netlist, library, bound)
        assert report.n_buffers > 0
        assert not report.unresolved
        assert set(report.fixed_endpoints) == set(before)
        after = TimingEngine(netlist, library)
        assert not after.hold_violations(bound)

    def test_restricted_endpoints(self, small_netlist, library):
        netlist = small_netlist.copy()
        analysis = TimingEngine(netlist, library)
        shortest_ep = min(
            (g.name for g in netlist.endpoints()),
            key=analysis.min_endpoint_arrival,
        )
        bound = analysis.min_endpoint_arrival(shortest_ep) + 0.02
        report = fix_hold(
            netlist, library, bound, endpoints={shortest_ep}
        )
        assert not report.unresolved
        # Other endpoints were not in scope (may still violate).
        check = TimingEngine(netlist, library)
        assert check.min_endpoint_arrival(shortest_ep) >= bound - 1e-9

    def test_no_op_when_clean(self, small_netlist, library):
        netlist = small_netlist.copy()
        report = fix_hold(netlist, library, required_min=0.0)
        assert report.n_buffers == 0
        assert report.area_delta == 0.0

    def test_buffers_preserve_function(self, small_netlist, library):
        """Inserted buffers must not change logic values."""
        netlist = small_netlist.copy()
        analysis = TimingEngine(netlist, library)
        shortest = min(
            analysis.min_endpoint_arrival(g.name)
            for g in netlist.endpoints()
        )
        fix_hold(netlist, library, shortest + 0.02)

        def evaluate(target, values):
            for name in target.topo_order():
                gate = target[name]
                if gate.is_comb:
                    cell = library[gate.cell]
                    values[name] = cell.evaluate(
                        [values[f] for f in gate.fanins]
                    )
            return {
                g.name: values[g.fanins[0]]
                for g in target.endpoints()
            }

        launch = {
            g.name: (hash(g.name) >> 3) & 1
            for g in small_netlist.sources()
        }
        original = evaluate(small_netlist, dict(launch))
        padded = evaluate(netlist, dict(launch))
        assert original == padded

    def test_max_delay_impact_is_local(self, small_netlist, library):
        """Padding short paths must not blow up the critical path."""
        netlist = small_netlist.copy()
        before = TimingEngine(netlist, library).worst_arrival()
        analysis = TimingEngine(netlist, library)
        shortest = min(
            analysis.min_endpoint_arrival(g.name)
            for g in netlist.endpoints()
        )
        fix_hold(netlist, library, shortest + 0.02)
        after = TimingEngine(netlist, library).worst_arrival()
        assert after <= before * 1.10
