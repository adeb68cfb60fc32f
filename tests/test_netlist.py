"""Tests for the netlist model, builder, bench I/O and validation."""

import io

import pytest
from hypothesis import (
    HealthCheck,
    assume,
    given,
    settings as hyp_settings,
    strategies as st,
)

from repro.netlist import (
    Gate,
    GateType,
    Netlist,
    NetlistBuilder,
    NetlistError,
    parse_bench,
    validate,
    write_bench,
)
from repro.cells import default_library
from repro.netlist.bench import BenchParseError, bench_text
from repro.netlist.validate import dangling_gates

_BENCH_LIBRARY = default_library()


class TestGate:
    def test_input_with_fanin_rejected(self):
        with pytest.raises(ValueError):
            Gate("a", GateType.INPUT, ("b",))

    def test_output_needs_one_fanin(self):
        with pytest.raises(ValueError):
            Gate("y", GateType.OUTPUT, ("a", "b"))

    def test_flop_needs_one_fanin(self):
        with pytest.raises(ValueError):
            Gate("f", GateType.DFF, ())

    def test_comb_needs_cell(self):
        with pytest.raises(ValueError):
            Gate("g", GateType.COMB, ("a",))

    def test_roles(self):
        assert Gate("a", GateType.INPUT).is_source
        assert Gate("f", GateType.DFF, ("a",)).is_source
        assert Gate("f", GateType.DFF, ("a",)).is_flop
        assert not Gate("y", GateType.OUTPUT, ("a",)).is_source

    def test_with_cell(self):
        gate = Gate("g", GateType.COMB, ("a",), cell="INV_X1")
        swapped = gate.with_cell("INV_X2")
        assert swapped.cell == "INV_X2"
        assert swapped.fanins == gate.fanins


class TestNetlist:
    def test_duplicate_name_rejected(self, tiny_netlist):
        with pytest.raises(ValueError):
            tiny_netlist.add(Gate("a", GateType.INPUT))

    def test_missing_driver_detected(self, library):
        netlist = Netlist("bad")
        netlist.add(Gate("g", GateType.COMB, ("ghost",), cell="INV_X1"))
        with pytest.raises(KeyError):
            netlist.topo_order()

    def test_fanouts(self, tiny_netlist):
        assert set(tiny_netlist.fanouts("a")) == {"g1", "g4"}
        assert tiny_netlist.fanouts("y") == ()

    def test_topo_order_sources_first(self, tiny_netlist):
        order = tiny_netlist.topo_order()
        for source in ("a", "b", "c", "f1"):
            assert order.index(source) < order.index("g4")
        assert order.index("g1") < order.index("g2") < order.index("g3")

    def test_comb_cycle_detected(self, library):
        netlist = Netlist("loop")
        netlist.add(Gate("a", GateType.INPUT))
        netlist.add(Gate("g1", GateType.COMB, ("a", "g2"), cell="NAND2_X1"))
        netlist.add(Gate("g2", GateType.COMB, ("g1",), cell="INV_X1"))
        with pytest.raises(ValueError, match="cycle"):
            netlist.topo_order()

    def test_flop_breaks_cycle(self, library):
        """Feedback through a flop is a legal FSM, not a comb loop."""
        netlist = Netlist("fsm")
        netlist.add(Gate("a", GateType.INPUT))
        netlist.add(Gate("g1", GateType.COMB, ("a", "f"), cell="NAND2_X1"))
        netlist.add(Gate("f", GateType.DFF, ("g1",), cell="DFF_X1"))
        netlist.topo_order()  # must not raise

    def test_sources_endpoints(self, tiny_netlist):
        assert {g.name for g in tiny_netlist.sources()} == {
            "a", "b", "c", "f1",
        }
        assert {g.name for g in tiny_netlist.endpoints()} == {"f1", "y"}

    def test_fanin_cone_stops_at_stage_boundary(self, tiny_netlist):
        cone = tiny_netlist.fanin_cone("y")
        assert "g4" in cone and "f1" in cone and "a" in cone
        # The cone must not cross the flop into the previous stage.
        assert "g3" not in cone

    def test_fanout_cone(self, tiny_netlist):
        cone = tiny_netlist.fanout_cone("g1")
        assert {"g1", "g2", "g3", "f1"} <= cone
        assert "g4" not in cone  # behind the flop

    def test_fanout_cones_is_the_union(self, tiny_netlist):
        # f1 is g1's boundary (its D pin) and a seed of its own (its Q
        # drives g4): one walk must still expand it.
        names = ["g1", "f1", "c"]
        union = set().union(*(tiny_netlist.fanout_cone(n) for n in names))
        assert tiny_netlist.fanout_cones(names) == union
        assert "g4" in union
        assert tiny_netlist.fanout_cones([]) == set()

    def test_remove_in_use_rejected(self, tiny_netlist):
        with pytest.raises(ValueError):
            tiny_netlist.copy().remove("g1")

    def test_remove_many_rejects_broken_refs(self, tiny_netlist):
        dup = tiny_netlist.copy()
        with pytest.raises(ValueError):
            dup.remove_many(["g1"])  # g2 still reads g1

    def test_remove_many_closed_set(self, library):
        netlist = Netlist("n")
        netlist.add(Gate("a", GateType.INPUT))
        netlist.add(Gate("g1", GateType.COMB, ("a",), cell="INV_X1"))
        netlist.add(Gate("g2", GateType.COMB, ("g1",), cell="INV_X1"))
        netlist.add(Gate("y", GateType.OUTPUT, ("a",)))
        netlist.remove_many(["g1", "g2"])
        assert len(netlist) == 2

    def test_replace_cell_keeps_connectivity(self, tiny_netlist):
        dup = tiny_netlist.copy()
        before = dup.fanouts("g1")
        dup.replace_cell("g1", "NAND2_X4")
        assert dup["g1"].cell == "NAND2_X4"
        assert dup.fanouts("g1") == before

    def test_areas(self, tiny_netlist, library):
        comb = tiny_netlist.comb_area(library)
        flop = tiny_netlist.flop_area(library)
        assert comb > 0 and flop == pytest.approx(
            library.default_flip_flop().area
        )
        assert tiny_netlist.total_area(library) == pytest.approx(comb + flop)

    def test_copy_is_independent(self, tiny_netlist):
        dup = tiny_netlist.copy("dup")
        dup.replace_cell("g1", "NAND2_X2")
        assert tiny_netlist["g1"].cell != "NAND2_X2"

    def test_stats(self, tiny_netlist):
        stats = tiny_netlist.stats()
        assert stats == {
            "inputs": 3,
            "outputs": 1,
            "flops": 1,
            "comb_gates": 4,
            "gates": 9,
        }


class TestBuilder:
    def test_tree_decomposition_wide_and(self, library):
        builder = NetlistBuilder("wide", library)
        names = [builder.input(f"i{k}") for k in range(7)]
        builder.gate("w", "AND", names)
        builder.output("y", "w")
        netlist = builder.build()
        # All helper gates feed the tree; functionality preserved.
        validate(netlist, library)
        assert len(netlist.comb_gates()) >= 3

    def test_tree_functionality(self, library):
        """A decomposed wide NAND must equal the boolean NAND."""
        from repro.cells.cell import evaluate_function

        builder = NetlistBuilder("func", library)
        names = [builder.input(f"i{k}") for k in range(5)]
        builder.gate("w", "NAND", names)
        builder.output("y", "w")
        netlist = builder.build()

        def simulate(values):
            signals = dict(zip(names, values))
            for gate_name in netlist.topo_order():
                gate = netlist[gate_name]
                if not gate.is_comb:
                    continue
                cell = library[gate.cell]
                signals[gate_name] = cell.evaluate(
                    [signals[f] for f in gate.fanins]
                )
            return signals["w"]

        for pattern in range(32):
            bits = [(pattern >> k) & 1 for k in range(5)]
            assert simulate(bits) == evaluate_function("NAND", bits)

    def test_width_without_standard_vt_cell_is_decomposed(self, library):
        """A width the library has at LVT only is not a mapping target:
        the builder reduces through the narrower standard-Vt cells
        instead of asking for a cell technology mapping cannot pick."""
        from repro.cells.cell import evaluate_function
        from repro.cells.library import Library

        lvt_nand3 = Library(
            "lvt-nand3",
            cells={
                name: cell
                for name, cell in library.cells.items()
                if not name.startswith("NAND3_X")
            },
        )
        assert lvt_nand3.input_widths("NAND")[0] == 3
        assert not lvt_nand3.comb_by_function("NAND", 3)
        builder = NetlistBuilder("narrow", lvt_nand3)
        names = [builder.input(k) for k in "abc"]
        builder.gate("g", "NAND", names)
        builder.output("y", "g")
        netlist = builder.build()
        validate(netlist, lvt_nand3)
        cells = [lvt_nand3[gate.cell] for gate in netlist.comb_gates()]
        assert all(cell.vt == "svt" for cell in cells)
        assert lvt_nand3[netlist["g"].cell].function == "NAND"
        for pattern in range(8):
            bits = [(pattern >> k) & 1 for k in range(3)]
            signals = dict(zip(names, bits))
            for gate_name in netlist.topo_order():
                gate = netlist[gate_name]
                if gate.is_comb:
                    signals[gate_name] = lvt_nand3[gate.cell].evaluate(
                        [signals[f] for f in gate.fanins]
                    )
            assert signals["g"] == evaluate_function("NAND", bits)

    def test_single_input_variadic_becomes_buffer(self, library):
        builder = NetlistBuilder("buf", library)
        builder.input("a")
        builder.gate("g", "AND", ["a"])
        builder.output("y", "g")
        netlist = builder.build()
        assert library[netlist["g"].cell].function == "BUF"

    def test_unknown_function_rejected(self, library):
        builder = NetlistBuilder("bad", library)
        builder.input("a")
        with pytest.raises(ValueError):
            builder.gate("g", "FROB", ["a"])

    def test_builder_closes_after_build(self, library):
        builder = NetlistBuilder("done", library)
        builder.input("a")
        builder.output("y", "a")
        builder.build()
        with pytest.raises(RuntimeError):
            builder.input("b")

    def test_inv_arity_checked(self, library):
        builder = NetlistBuilder("bad", library)
        builder.input("a")
        builder.input("b")
        with pytest.raises(ValueError):
            builder.gate("g", "INV", ["a", "b"])


class TestBench:
    BENCH = """
# sample
INPUT(G0)
INPUT(G1)
OUTPUT(G7)
G5 = DFF(G7)
G6 = NAND(G0, G1)
G7 = NOR(G6, G5)
"""

    def test_parse(self, library):
        netlist = parse_bench(self.BENCH, library, name="sample")
        stats = netlist.stats()
        assert stats["inputs"] == 2
        assert stats["flops"] == 1
        assert stats["comb_gates"] == 2
        assert stats["outputs"] == 1

    def test_parse_from_stream(self, library):
        netlist = parse_bench(io.StringIO(self.BENCH), library)
        assert "G6" in netlist

    def test_roundtrip(self, library):
        netlist = parse_bench(self.BENCH, library, name="rt")
        text = bench_text(netlist)
        again = parse_bench(text, library, name="rt2")
        assert again.stats() == netlist.stats()
        assert {g.name for g in again.comb_gates()} == {
            g.name for g in netlist.comb_gates()
        }

    def test_wide_gates_decomposed(self, library):
        text = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n" \
               "OUTPUT(w)\nw = AND(a, b, c, d, e)\n"
        netlist = parse_bench(text, library)
        validate(netlist, library)

    def test_parse_error_reported_with_line(self, library):
        with pytest.raises(BenchParseError, match="line 2"):
            parse_bench("INPUT(a)\nWHAT IS THIS\n", library)

    def test_unknown_function(self, library):
        with pytest.raises(BenchParseError, match="unknown function"):
            parse_bench("INPUT(a)\ny = FOO(a)\n", library)

    def test_not_maps_to_inv(self, library):
        netlist = parse_bench(
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", library
        )
        assert library[netlist["y"].cell].function == "INV"


class TestBenchRegressions:
    """Declare-then-resolve parsing: any line order, typed errors."""

    def test_non_topological_order_accepted(self, library):
        # Distribution ISCAS89 files reference gates before defining
        # them; a single-pass parser choked here.
        text = (
            "OUTPUT(y)\n"
            "y = NOT(g2)\n"
            "g2 = NAND(a, f1)\n"
            "f1 = DFF(g2)\n"
            "INPUT(a)\n"
        )
        netlist = parse_bench(text, library)
        assert netlist.stats()["flops"] == 1
        validate(netlist, library)

    def test_shuffled_source_parses_identically(self, library):
        import random

        reference = parse_bench(TestBench.BENCH, library, name="s")
        lines = [
            line
            for line in TestBench.BENCH.splitlines()
            if line.split("#", 1)[0].strip()
        ]
        rng = random.Random(99)
        for _ in range(8):
            rng.shuffle(lines)
            shuffled = parse_bench("\n".join(lines), library, name="s")
            assert shuffled.stats() == reference.stats()
            assert {
                (g.name, g.gtype, g.fanins) for g in shuffled
            } == {(g.name, g.gtype, g.fanins) for g in reference}

    def test_continuation_lines_joined(self, library):
        # Wide gates in the distributed files wrap their fanin lists
        # across physical lines.
        text = (
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(w)\n"
            "w = AND(a,\n"
            "        b,\n"
            "        c)\n"
        )
        netlist = parse_bench(text, library)
        assert netlist.stats()["inputs"] == 3
        validate(netlist, library)

    def test_error_in_continuation_reports_first_line(self, library):
        text = "INPUT(a)\nw = AND(a,\n  b\n"  # unbalanced at EOF
        with pytest.raises(BenchParseError, match="line 2"):
            parse_bench(text, library)

    def test_duplicate_input(self, library):
        with pytest.raises(
            BenchParseError,
            match=r"line 2: INPUT\(a\) already declared at line 1",
        ):
            parse_bench("INPUT(a)\nINPUT(a)\n", library)

    def test_input_redefined_as_gate(self, library):
        with pytest.raises(
            BenchParseError,
            match="gate 'a' redefines the INPUT declared at line 1",
        ):
            parse_bench("INPUT(a)\na = NOT(a)\n", library)

    def test_gate_redefined_as_input(self, library):
        with pytest.raises(
            BenchParseError,
            match=r"INPUT\(g\) conflicts with the gate defined at line 2",
        ):
            parse_bench("INPUT(a)\ng = NOT(a)\nINPUT(g)\n", library)

    def test_duplicate_gate(self, library):
        text = "INPUT(a)\ng = NOT(a)\ng = NOT(a)\n"
        with pytest.raises(
            BenchParseError,
            match="line 3: gate 'g' already defined at line 2",
        ):
            parse_bench(text, library)

    def test_repeated_output_marker(self, library):
        text = "INPUT(a)\nOUTPUT(a)\nOUTPUT(a)\n"
        with pytest.raises(
            BenchParseError,
            match=r"line 3: OUTPUT\(a\) already declared at line 2",
        ):
            parse_bench(text, library)

    def test_undefined_reference_named(self, library):
        with pytest.raises(
            BenchParseError,
            match="gate 'g' reads 'ghost', which is never defined",
        ):
            parse_bench("INPUT(a)\ng = NAND(a, ghost)\n", library)

    def test_undefined_output_named(self, library):
        with pytest.raises(
            BenchParseError, match=r"OUTPUT\(ghost\) names a net"
        ):
            parse_bench("INPUT(a)\nOUTPUT(ghost)\n", library)

    def test_flop_arity_checked(self, library):
        with pytest.raises(
            BenchParseError, match="flop 'f' needs one fanin, got 2"
        ):
            parse_bench("INPUT(a)\nINPUT(b)\nf = DFF(a, b)\n", library)

    def test_empty_fanin_rejected(self, library):
        with pytest.raises(BenchParseError, match="has no fanin"):
            parse_bench("g = AND()\n", library)


class TestBenchRoundTripHypothesis:
    @given(st.integers(min_value=1, max_value=10**6))
    @hyp_settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_write_parse_idempotent(self, seed):
        # .bench cannot express AOI/OAI/MUX cells or drive strengths;
        # over the expressible subset, write∘parse is the identity on
        # structure and a fixpoint on text.
        from repro.circuits.generator import CloudSpec, generate_circuit

        spec = CloudSpec(
            name=f"hb{seed}",
            seed=seed,
            n_inputs=4,
            n_outputs=3,
            n_flops=6,
            n_gates=60,
            depth=5,
            critical_fraction=0.25,
        )
        netlist = generate_circuit(spec, _BENCH_LIBRARY)
        # Two PO markers on one net collapse to a single OUTPUT line,
        # which the reader rightly rejects as a duplicate.
        po_drivers = [g.fanins[0] for g in netlist.outputs()]
        assume(len(set(po_drivers)) == len(po_drivers))
        for gate in netlist.comb_gates():
            base = gate.cell.rsplit("_X", 1)[0]
            if base in ("AOI21", "OAI21", "MUX2"):
                netlist.replace_cell(gate.name, "NAND3_X1")
        text = bench_text(netlist)
        back = parse_bench(text, library=_BENCH_LIBRARY, name=netlist.name)
        assert back.stats() == netlist.stats()
        assert {(g.name, g.fanins) for g in back.comb_gates()} == {
            (g.name, g.fanins) for g in netlist.comb_gates()
        }
        assert {(g.name, g.fanins) for g in back.flops()} == {
            (g.name, g.fanins) for g in netlist.flops()
        }
        assert bench_text(back) == text


class TestValidate:
    def test_clean_netlist(self, tiny_netlist, library):
        validate(tiny_netlist, library)

    def test_missing_cell(self, library):
        netlist = Netlist("bad")
        netlist.add(Gate("a", GateType.INPUT))
        netlist.add(Gate("g", GateType.COMB, ("a",), cell="GHOST_X1"))
        with pytest.raises(NetlistError, match="not in library"):
            validate(netlist, library)

    def test_pin_arity_mismatch(self, library):
        netlist = Netlist("bad")
        netlist.add(Gate("a", GateType.INPUT))
        netlist.add(Gate("g", GateType.COMB, ("a",), cell="NAND2_X1"))
        with pytest.raises(NetlistError, match="pins"):
            validate(netlist, library)

    def test_output_as_driver_rejected(self, library):
        netlist = Netlist("bad")
        netlist.add(Gate("a", GateType.INPUT))
        netlist.add(Gate("y", GateType.OUTPUT, ("a",)))
        netlist.add(Gate("g", GateType.COMB, ("y",), cell="INV_X1"))
        with pytest.raises(NetlistError, match="output marker"):
            validate(netlist, library)

    def test_dangling_gates(self, library):
        netlist = Netlist("d")
        netlist.add(Gate("a", GateType.INPUT))
        netlist.add(Gate("g", GateType.COMB, ("a",), cell="INV_X1"))
        netlist.add(Gate("y", GateType.OUTPUT, ("a",)))
        assert dangling_gates(netlist) == ["g"]


class TestTopoOrderCaching:
    """``topo_order()`` returns the cached immutable tuple directly."""

    def test_returns_same_tuple(self, tiny_netlist):
        first = tiny_netlist.topo_order()
        assert isinstance(first, tuple)
        assert tiny_netlist.topo_order() is first

    def test_rebuilds_after_mutation(self, library):
        netlist = Netlist("t")
        netlist.add(Gate("a", GateType.INPUT))
        netlist.add(Gate("g", GateType.COMB, ("a",), cell="INV_X1"))
        netlist.add(Gate("y", GateType.OUTPUT, ("g",)))
        before = netlist.topo_order()
        netlist.add(Gate("h", GateType.COMB, ("g",), cell="INV_X1"))
        after = netlist.topo_order()
        assert after is not before
        assert "h" in after and "h" not in before

    def test_counts_copies_avoided(self, tiny_netlist):
        from repro import metrics

        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            tiny_netlist.topo_order()
            tiny_netlist.topo_order()
        assert collector.counters["netlist.topo.copies_avoided"] == 2
