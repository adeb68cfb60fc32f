"""Tests for the static-timing substrate."""

import math

import pytest

from repro.sta import (
    FixedDelayCalculator,
    GateBasedCalculator,
    PathBasedCalculator,
    LoadModel,
    TimingEngine,
    make_calculator,
    worst_path,
)
from repro.sta.engine import NEG_INF
from repro.sta.paths import critical_paths
from repro.circuits.fig4 import FIG4_DELAYS, fig4_netlist


class TestLoadModel:
    def test_net_load_counts_pins_and_wires(self, tiny_netlist, library):
        model = LoadModel(wire_cap_per_fanout=0.4)
        # 'a' drives g1 pin A (NAND2) and g4 pin A/B (AND2).
        load = model.net_load(tiny_netlist, library, "a")
        nand = library[tiny_netlist["g1"].cell]
        and2 = library[tiny_netlist["g4"].cell]
        expected = 0.4 + nand.pin_cap("A") + 0.4 + and2.pin_cap("B")
        assert load == pytest.approx(expected)

    def test_same_driver_two_pins(self, library):
        from repro.netlist import Netlist, Gate, GateType

        netlist = Netlist("dp")
        netlist.add(Gate("a", GateType.INPUT))
        netlist.add(
            Gate("g", GateType.COMB, ("a", "a"), cell="NAND2_X1")
        )
        netlist.add(Gate("y", GateType.OUTPUT, ("g",)))
        model = LoadModel(wire_cap_per_fanout=0.0)
        cell = library["NAND2_X1"]
        assert model.net_load(netlist, library, "a") == pytest.approx(
            cell.pin_cap("A") + cell.pin_cap("B")
        )

    def test_flop_load_uses_cell_cap(self, tiny_netlist, library):
        model = LoadModel(wire_cap_per_fanout=0.0)
        load = model.net_load(tiny_netlist, library, "g3")
        assert load == pytest.approx(library["DFF_X1"].input_cap)

    def test_output_pad_cap(self, tiny_netlist, library):
        model = LoadModel(wire_cap_per_fanout=0.0, output_pin_cap=2.5)
        assert model.net_load(tiny_netlist, library, "g4") == pytest.approx(2.5)


class TestCalculators:
    def test_gate_model_is_pessimistic(self, tiny_netlist, library):
        gate = GateBasedCalculator(tiny_netlist, library)
        path = PathBasedCalculator(tiny_netlist, library)
        for driver, sink in (("a", "g1"), ("g1", "g2"), ("g2", "g3")):
            assert gate.edge_delay(driver, sink) >= path.edge_delay(
                driver, sink
            )

    def test_gate_model_ignores_load(self, tiny_netlist, library):
        gate = GateBasedCalculator(tiny_netlist, library)
        d1 = gate.edge_delay("g1", "g2")
        dup = tiny_netlist.copy()
        dup.replace_cell("g3", "INV_X4")  # heavier load on g2
        gate2 = GateBasedCalculator(dup, library)
        assert gate2.edge_delay("g1", "g2") == pytest.approx(d1)

    def test_path_model_sees_load(self, tiny_netlist, library):
        path = PathBasedCalculator(tiny_netlist, library)
        d1 = path.edge_delay("g1", "g2")
        dup = tiny_netlist.copy()
        dup.replace_cell("g3", "INV_X4")
        path2 = PathBasedCalculator(dup, library)
        assert path2.edge_delay("g1", "g2") > d1

    def test_transition_edges_unate(self, tiny_netlist, library):
        calc = PathBasedCalculator(tiny_netlist, library)
        # INV (g3) is negative-unate: rise pairs with fall.
        triples = calc.transition_edges("g2", "g3")
        pairs = {(i, o) for i, o, _ in triples}
        assert pairs == {(True, False), (False, True)}

    def test_transition_edges_nonunate_xor(self, tiny_netlist, library):
        calc = PathBasedCalculator(tiny_netlist, library)
        triples = calc.transition_edges("g1", "g2")
        assert len(triples) == 4

    def test_edge_delay_requires_connection(self, tiny_netlist, library):
        calc = PathBasedCalculator(tiny_netlist, library)
        with pytest.raises(KeyError):
            calc.edge_delay("a", "g3")

    def test_invalidate_refreshes(self, tiny_netlist, library):
        dup = tiny_netlist.copy()
        calc = PathBasedCalculator(dup, library)
        before = calc.edge_delay("g2", "g3")
        dup.replace_cell("g3", "INV_LVT_X1")
        calc.invalidate()
        assert calc.edge_delay("g2", "g3") < before

    def test_factory(self, tiny_netlist, library):
        assert make_calculator("gate", tiny_netlist, library).name == "gate"
        assert make_calculator("path", tiny_netlist, library).name == "path"
        with pytest.raises(ValueError):
            make_calculator("magic", tiny_netlist, library)


class TestFixedDelays:
    def test_fig4_forward_arrivals_match_paper(self):
        """The published D^f column of Fig. 4."""
        netlist = fig4_netlist()
        engine = TimingEngine(
            netlist, None,
            calculator=FixedDelayCalculator(netlist, FIG4_DELAYS),
        )
        expected = {
            "I1": 0, "I2": 0, "G3": 2, "G4": 3,
            "G5": 5, "G6": 7, "G7": 8, "G8": 9,
        }
        for gate, value in expected.items():
            assert engine.forward_arrival(gate) == pytest.approx(value)
        assert engine.endpoint_arrival("O9") == pytest.approx(9)
        assert engine.endpoint_arrival("O10") == pytest.approx(3)

    def test_fig4_backward_delays_match_paper(self):
        """The published D^b(., O9) column of Fig. 4."""
        netlist = fig4_netlist()
        engine = TimingEngine(
            netlist, None,
            calculator=FixedDelayCalculator(netlist, FIG4_DELAYS),
        )
        expected = {
            "I1": 9, "I2": 7, "G3": 7, "G5": 2,
            "G6": 2, "G7": 1, "G8": 0,
        }
        for gate, value in expected.items():
            assert engine.backward_delay(gate, "O9") == pytest.approx(value)
        # G4 has no path to O9.
        assert engine.backward_delay("G4", "O9") == NEG_INF

    def test_max_backward_over_endpoints(self):
        netlist = fig4_netlist()
        engine = TimingEngine(
            netlist, None,
            calculator=FixedDelayCalculator(netlist, FIG4_DELAYS),
        )
        # I2 reaches O9 (7) and O10 (via G5? no - via G4: d(G4)=1).
        assert engine.max_backward("I2") == pytest.approx(7)
        assert engine.max_backward("G4") == pytest.approx(0)


class TestEngine:
    def test_endpoint_arrival_requires_endpoint(self, tiny_netlist, library):
        engine = TimingEngine(tiny_netlist, library)
        with pytest.raises(ValueError):
            engine.endpoint_arrival("g1")

    def test_rise_fall_dp_never_pessimistic(self, small_netlist, library):
        """The two-state DP prunes invalid rise/fall pairings, so its
        arrivals are bounded by a scalar max-delay DP."""
        engine = TimingEngine(small_netlist, library, model="path")
        calc = engine.calculator
        scalar = {}
        for name in small_netlist.topo_order():
            gate = small_netlist[name]
            if gate.is_source:
                scalar[name] = 0.0
            elif gate.gtype.value == "output":
                continue
            else:
                scalar[name] = max(
                    scalar[d] + calc.edge_delay(d, name)
                    for d in gate.fanins
                )
        for name, bound in scalar.items():
            assert engine.forward_arrival(name) <= bound + 1e-9

    def test_worst_arrival_and_violations(self, small_prepared):
        scheme, circuit = small_prepared
        engine = circuit.engine
        worst = engine.worst_arrival()
        assert worst > 0
        assert engine.violations(worst) == {}
        assert len(engine.violations(0.0)) == len(engine.endpoints())

    def test_invalidate_after_sizing(self, tiny_netlist, library):
        dup = tiny_netlist.copy()
        engine = TimingEngine(dup, library)
        before = engine.endpoint_arrival("f1")
        dup.replace_cell("g2", "XOR2_LVT_X1")
        engine.invalidate()
        assert engine.endpoint_arrival("f1") < before

    def test_backward_consistency(self, small_netlist, library):
        """max over endpoints of D^b(v, t) equals max_backward(v)."""
        engine = TimingEngine(small_netlist, library)
        endpoints = [g.name for g in small_netlist.endpoints()]
        for name in list(small_netlist.gates)[:40]:
            gate = small_netlist[name]
            if gate.gtype.value == "output":
                continue
            per_endpoint = max(
                (engine.backward_delay(name, t) for t in endpoints),
                default=NEG_INF,
            )
            assert engine.max_backward(name) == pytest.approx(
                per_endpoint
            ) or (
                engine.max_backward(name) == NEG_INF
                and per_endpoint == NEG_INF
            )


class TestPaths:
    def test_worst_path_arrival_consistent(self, small_prepared):
        _, circuit = small_prepared
        engine = circuit.engine
        arrivals = engine.endpoint_arrivals()
        endpoint = max(arrivals, key=arrivals.get)
        path = worst_path(engine, endpoint)
        assert path.endpoint == endpoint
        assert path.arrival == pytest.approx(arrivals[endpoint])
        assert circuit.netlist[path.startpoint].is_source

    def test_path_is_connected(self, small_prepared):
        _, circuit = small_prepared
        engine = circuit.engine
        endpoint = engine.endpoints()[0].name
        path = worst_path(engine, endpoint)
        for driver, sink in zip(path.gates, path.gates[1:]):
            assert driver in circuit.netlist[sink].fanins

    def test_critical_paths_sorted(self, small_prepared):
        _, circuit = small_prepared
        paths = critical_paths(circuit.engine, count=4)
        arrivals = [p.arrival for p in paths]
        assert arrivals == sorted(arrivals, reverse=True)

    def test_pretty_render(self, small_prepared):
        _, circuit = small_prepared
        engine = circuit.engine
        endpoint = engine.endpoints()[0].name
        text = worst_path(engine, endpoint).pretty(engine)
        assert endpoint in text
