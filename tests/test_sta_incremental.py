"""Incremental STA: change events, cone-scoped repair, and parity.

The contract under test is strict: for any sequence of netlist
mutations, an incremental engine's arrivals, backward delays and
violation sets must be *bit-identical* to a full recompute (the
``incremental=False`` parity oracle) — and the repair must actually be
scoped (a local change must not recompute the whole netlist).
"""

import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import metrics
from repro.cells import default_library
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.flows import run_flow
from repro.netlist import (
    CellSwapped,
    ChangeLog,
    FaninRewired,
    Gate,
    GateAdded,
    GateRemoved,
    GateType,
)
from repro.sta import TimingEngine
from repro.sta.delay_models import make_calculator
from repro.sta.engine import NEG_INF
from repro.sta.min_delay import MinDelayAnalysis

LIBRARY = default_library()


def _generated(seed, gates=60, flops=6):
    spec = CloudSpec(
        name=f"inc{seed}",
        seed=seed,
        n_inputs=4,
        n_outputs=3,
        n_flops=flops,
        n_gates=gates,
        depth=5,
        critical_fraction=0.3,
    )
    return generate_circuit(spec, LIBRARY)


def _same_float(a, b):
    return a == b or (a != a and b != b)  # NaN-tolerant exact equality


# -- event layer ------------------------------------------------------------


class TestChangeEvents:
    def test_replace_cell_emits_cell_swapped(self, tiny_netlist):
        netlist = tiny_netlist.copy()
        log = ChangeLog()
        netlist.subscribe(log)
        old = netlist["g1"].cell
        netlist.replace_cell("g1", "NAND2_X2")
        assert len(log) == 1
        event = log.events[0]
        assert isinstance(event, CellSwapped)
        assert event.gate == "g1"
        assert event.old_cell == old
        assert event.new_cell == "NAND2_X2"
        assert not event.structural
        # Dirty set: the gate's own arcs plus its drivers' loads.
        assert event.dirty_gates(netlist) == {"g1", "a", "b"}

    def test_rewire_fanin_preserves_gate_fields(self, library):
        # Satellite regression: rewire_fanin used to rebuild the gate
        # positionally, which could scramble the non-fanin fields; it
        # must behave exactly like with_cell's dataclasses.replace.
        netlist = _generated(3)
        log = ChangeLog()
        netlist.subscribe(log)
        sink = next(g for g in netlist.comb_gates() if len(g.fanins) >= 2)
        old_driver = sink.fanins[0]
        buf_cell = library.pick_comb("BUF", 1).name
        netlist.add(Gate("buf0", GateType.COMB, (old_driver,), cell=buf_cell))
        netlist.rewire_fanin(sink.name, old_driver, "buf0")
        rebuilt = netlist[sink.name]
        assert rebuilt.cell == sink.cell
        assert rebuilt.gtype == sink.gtype
        assert rebuilt.fanins == tuple(
            "buf0" if f == old_driver else f for f in sink.fanins
        )
        assert isinstance(log.events[-2], GateAdded)
        rewired = log.events[-1]
        assert isinstance(rewired, FaninRewired)
        assert rewired.dirty_gates(netlist) == {
            sink.name, old_driver, "buf0"
        }

    def test_remove_records_surviving_fanins(self, library):
        netlist = _generated(4)
        log = ChangeLog()
        netlist.subscribe(log)
        sink = next(g for g in netlist.comb_gates() if len(g.fanins) >= 1)
        driver = sink.fanins[0]
        buf_cell = library.pick_comb("BUF", 1).name
        netlist.add(Gate("buf1", GateType.COMB, (driver,), cell=buf_cell))
        netlist.rewire_fanin(sink.name, driver, "buf1")
        netlist.rewire_fanin(sink.name, "buf1", driver)
        netlist.remove("buf1")
        event = log.events[-1]
        assert isinstance(event, GateRemoved)
        assert event.removed_gates() == ("buf1",)
        # The buffer's driver survives and its load shrank.
        assert event.dirty_gates(netlist) == {driver}

    def test_remove_many_batches_into_one_event(self, library):
        netlist = _generated(5)
        log = ChangeLog()
        netlist.subscribe(log)
        sink = next(g for g in netlist.comb_gates() if len(g.fanins) >= 1)
        driver = sink.fanins[0]
        buf_cell = library.pick_comb("BUF", 1).name
        netlist.add(Gate("b_a", GateType.COMB, (driver,), cell=buf_cell))
        netlist.add(Gate("b_b", GateType.COMB, ("b_a",), cell=buf_cell))
        log.clear()
        netlist.remove_many(["b_a", "b_b"])
        assert len(log) == 1
        event = log.events[0]
        assert isinstance(event, GateRemoved)
        assert set(event.removed_gates()) == {"b_a", "b_b"}
        assert event.dirty_gates(netlist) == {driver}

    def test_subscriber_protocol_is_checked(self, tiny_netlist):
        with pytest.raises(TypeError):
            tiny_netlist.copy().subscribe(object())

    def test_subscribers_are_weak_and_unsubscribable(self, tiny_netlist):
        netlist = tiny_netlist.copy()
        log = ChangeLog()
        netlist.subscribe(log)
        netlist.subscribe(log)  # deduplicated
        netlist.replace_cell("g1", "NAND2_X2")
        assert len(log) == 1
        netlist.unsubscribe(log)
        netlist.replace_cell("g1", "NAND2_X1")
        assert len(log) == 1
        gone = ChangeLog()
        netlist.subscribe(gone)
        del gone  # weakref: dead subscribers must not break emission
        netlist.replace_cell("g1", "NAND2_X2")

    def test_netlist_pickles_without_subscribers(self, library, tiny_netlist):
        netlist = tiny_netlist.copy()
        engine = TimingEngine(netlist, library)
        engine.forward_arrival("g3")
        clone = pickle.loads(pickle.dumps(netlist))
        assert clone._subscribers == []
        # The clone is fully functional (the parallel-worker path).
        clone.replace_cell("g1", "NAND2_X2")
        fresh = TimingEngine(clone, library)
        assert math.isfinite(fresh.forward_arrival("g3"))

    def test_copies_do_not_share_subscribers(self, tiny_netlist):
        netlist = tiny_netlist.copy()
        log = ChangeLog()
        netlist.subscribe(log)
        dup = netlist.copy()
        dup.replace_cell("g1", "NAND2_X2")
        assert len(log) == 0


# -- parity: incremental vs full oracle -------------------------------------


def _assert_engine_parity(netlist, inc, full):
    limit = None
    for name in netlist.topo_order():
        if netlist[name].gtype is GateType.OUTPUT:
            continue
        a = inc.forward_arrival(name)
        b = full.forward_arrival(name)
        assert _same_float(a, b), f"forward mismatch at {name}: {a} != {b}"
        if limit is None or (b == b and b > limit):
            limit = b
    endpoints = [g.name for g in netlist.endpoints()]
    probes = [
        g.name for g in netlist
        if g.gtype is not GateType.OUTPUT
    ][:: max(1, len(netlist) // 10)]
    for endpoint in endpoints:
        for name in probes:
            a = inc.backward_delay(name, endpoint)
            b = full.backward_delay(name, endpoint)
            assert _same_float(a, b), (
                f"backward mismatch {name}->{endpoint}: {a} != {b}"
            )
        assert _same_float(inc.max_backward(endpoint),
                           full.max_backward(endpoint))
        assert _same_float(inc.endpoint_arrival(endpoint),
                           full.endpoint_arrival(endpoint))
    threshold = (limit or 1.0) * 0.8
    assert inc.violations(threshold) == full.violations(threshold)


def _apply_op(netlist, op, seed, buffers, counter):
    """One random mutation; returns the updated buffer-name list."""
    comb = netlist.comb_gates()
    if not comb:
        return counter
    pick = comb[seed % len(comb)]
    if op == "swap":
        cell = LIBRARY[pick.cell]
        candidate = LIBRARY.next_drive_up(cell) or LIBRARY.vt_variant(
            cell, "lvt"
        )
        if candidate is not None and candidate.name != pick.cell:
            netlist.replace_cell(pick.name, candidate.name)
    elif op == "buffer":
        driver = pick.fanins[seed % len(pick.fanins)]
        name = f"pbuf{counter}"
        counter += 1
        buf_cell = LIBRARY.pick_comb("BUF", 1).name
        netlist.add(Gate(name, GateType.COMB, (driver,), cell=buf_cell))
        netlist.rewire_fanin(pick.name, driver, name)
        buffers.append((name, driver, pick.name))
    elif op == "unbuffer" and buffers:
        name, driver, sink = buffers.pop(seed % len(buffers))
        if sink in netlist and name in netlist[sink].fanins:
            netlist.rewire_fanin(sink, name, driver)
        if name in netlist and not netlist.fanouts(name):
            netlist.remove(name)
    return counter


class TestMutationParity:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 30),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["swap", "buffer", "unbuffer"]),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_random_mutations_bit_identical(self, seed, ops):
        netlist = _generated(seed)
        inc = TimingEngine(netlist, LIBRARY, incremental=True)
        full = TimingEngine(netlist, LIBRARY, incremental=False)
        _assert_engine_parity(netlist, inc, full)
        buffers, counter = [], 0
        for index, (op, pick) in enumerate(ops):
            counter = _apply_op(netlist, op, pick, buffers, counter)
            # Compare mid-sequence every few ops and always at the end,
            # so both freshly-flushed and batched event paths are hit.
            if index % 3 == 0 or index == len(ops) - 1:
                _assert_engine_parity(netlist, inc, full)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 20),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["swap", "buffer", "unbuffer"]),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_min_delay_repair_matches_fresh_analysis(self, seed, ops):
        netlist = _generated(seed, gates=50)
        analysis = MinDelayAnalysis(netlist, LIBRARY)
        endpoints = [g.name for g in netlist.endpoints()]
        analysis.min_endpoint_arrival(endpoints[0])  # warm the caches
        buffers, counter = [], 0
        for op, pick in ops:
            counter = _apply_op(netlist, op, pick, buffers, counter)
        oracle = MinDelayAnalysis(netlist, LIBRARY)
        for name in netlist.topo_order():
            if netlist[name].gtype is GateType.OUTPUT:
                continue
            assert _same_float(
                analysis.min_arrival(name), oracle.min_arrival(name)
            )

    def test_gate_model_parity_after_swaps(self):
        netlist = _generated(9)
        inc = TimingEngine(netlist, LIBRARY, model="gate", incremental=True)
        full = TimingEngine(netlist, LIBRARY, model="gate", incremental=False)
        _assert_engine_parity(netlist, inc, full)
        buffers, counter = [], 0
        for index in range(6):
            counter = _apply_op(
                netlist, ("swap", "buffer")[index % 2], index * 37,
                buffers, counter,
            )
        _assert_engine_parity(netlist, inc, full)


class TestEdgeCacheEviction:
    """After any interleaving of cell swaps and structural edits, every
    arc delay a calculator still caches, and every transition delay it
    derives, equals a fresh calculator's."""

    @staticmethod
    def _assert_cache_fresh(netlist, calc, model):
        calc.load(netlist.topo_order()[0])  # drain pending events
        fresh = make_calculator(model, netlist.copy(), LIBRARY)
        for (driver, sink), value in list(calc._edge_cache.items()):
            assert driver in netlist[sink].fanins, (driver, sink)
            assert value == fresh.edge_delay(driver, sink), (driver, sink)
        for sink in netlist.topo_order():
            for driver in set(netlist[sink].fanins):
                assert calc.edge_delay(driver, sink) == fresh.edge_delay(
                    driver, sink
                ), (driver, sink)
                if model == "path":
                    assert calc.transition_edges(
                        driver, sink
                    ) == fresh.transition_edges(driver, sink)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 30),
        model=st.sampled_from(["path", "gate"]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["swap", "swap", "buffer", "unbuffer"]),
                st.integers(0, 10**6),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_cached_delays_match_a_fresh_calculator(self, seed, model, ops):
        netlist = _generated(seed, gates=40)
        calc = make_calculator(model, netlist, LIBRARY)
        self._assert_cache_fresh(netlist, calc, model)
        buffers, counter = [], 0
        for index, (op, pick, check) in enumerate(ops):
            counter = _apply_op(netlist, op, pick, buffers, counter)
            # Unchecked steps batch their events into the next check.
            if check or index == len(ops) - 1:
                self._assert_cache_fresh(netlist, calc, model)


# -- scoping and counters ----------------------------------------------------


class TestScopedRepair:
    def test_local_swap_repairs_a_strict_subset(self):
        netlist = _generated(11, gates=120, flops=10)
        engine = TimingEngine(netlist, LIBRARY, incremental=True)
        engine.worst_arrival()  # warm
        total = sum(
            1 for g in netlist if g.gtype is not GateType.OUTPUT
        )
        gate = netlist.comb_gates()[0]
        cell = LIBRARY[gate.cell]
        candidate = LIBRARY.next_drive_up(cell) or LIBRARY.vt_variant(
            cell, "lvt"
        )
        assert candidate is not None
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            netlist.replace_cell(gate.name, candidate.name)
            engine.worst_arrival()
        assert collector.counters["sta.incremental.events"] == 1
        recomputed = collector.counters["sta.incremental.nodes_recomputed"]
        assert 0 < recomputed < total
        # And no full forward recompute happened.
        assert collector.counters.get("sta.full_recompute", 0) == 0

    def test_rejected_trial_move_never_full_recomputes(self):
        # A rejected sizing move (swap, evaluate, swap back) must cost
        # two cone repairs and zero full recomputes, never a
        # whole-engine invalidation.
        netlist = _generated(12, gates=100, flops=8)
        engine = TimingEngine(netlist, LIBRARY, incremental=True)
        before = {
            name: engine.forward_arrival(name)
            for name in netlist.topo_order()
            if netlist[name].gtype is not GateType.OUTPUT
        }
        gate = netlist.comb_gates()[3]
        cell = LIBRARY[gate.cell]
        candidate = LIBRARY.next_drive_up(cell) or LIBRARY.vt_variant(
            cell, "lvt"
        )
        assert candidate is not None
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            netlist.replace_cell(gate.name, candidate.name)
            engine.worst_arrival()  # evaluate the trial
            netlist.replace_cell(gate.name, cell.name)  # reject it
            after = {
                name: engine.forward_arrival(name)
                for name in netlist.topo_order()
                if netlist[name].gtype is not GateType.OUTPUT
            }
        assert collector.counters.get("sta.full_recompute", 0) == 0
        assert collector.counters.get("sta.invalidate", 0) == 0
        assert collector.counters["sta.incremental.events"] == 2
        # The undo restores the exact pre-trial arrivals.
        assert after == before

    def test_full_mode_invalidates_per_event(self):
        netlist = _generated(13, gates=60)
        engine = TimingEngine(netlist, LIBRARY, incremental=False)
        engine.worst_arrival()
        gate = netlist.comb_gates()[0]
        cell = LIBRARY[gate.cell]
        candidate = LIBRARY.next_drive_up(cell) or LIBRARY.vt_variant(
            cell, "lvt"
        )
        assert candidate is not None
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            netlist.replace_cell(gate.name, candidate.name)
            engine.worst_arrival()
        assert collector.counters["sta.invalidate"] == 1
        assert collector.counters["sta.full_recompute"] == 1
        assert "sta.incremental.events" not in collector.counters

    def test_explicit_invalidate_still_recovers(self):
        netlist = _generated(14, gates=60)
        engine = TimingEngine(netlist, LIBRARY, incremental=True)
        worst = engine.worst_arrival()
        engine.invalidate()
        assert engine.worst_arrival() == worst

    def test_backward_tables_outside_cone_survive(self):
        netlist = _generated(15, gates=100, flops=10)
        engine = TimingEngine(netlist, LIBRARY, incremental=True)
        endpoints = [g.name for g in netlist.endpoints()]
        for endpoint in endpoints:
            engine.backward_delay(endpoint, endpoint)
        cached_before = set(engine._backward_to)
        gate = netlist.comb_gates()[0]
        # A cell swap dirties the gate AND its fanins (their loads
        # change), so the affected region is the union of their cones.
        cone = set()
        for name in {gate.name, *gate.fanins}:
            cone |= netlist.fanout_cone(name)
        untouched = cached_before - cone
        if not untouched:
            pytest.skip("every endpoint in the mutated cone")
        cell = LIBRARY[gate.cell]
        candidate = LIBRARY.next_drive_up(cell) or LIBRARY.vt_variant(
            cell, "lvt"
        )
        assert candidate is not None
        netlist.replace_cell(gate.name, candidate.name)
        engine.forward_arrival(gate.name)  # flush
        assert untouched <= set(engine._backward_to)
        oracle = TimingEngine(
            netlist.copy(), LIBRARY, incremental=False
        )
        for endpoint in endpoints:
            assert _same_float(
                engine.backward_delay(gate.name, endpoint),
                oracle.backward_delay(gate.name, endpoint),
            )


# -- flow-level parity -------------------------------------------------------


class TestFlowParity:
    @pytest.mark.parametrize(
        "method", ["base", "grar", "grar-gate", "evl", "nvl", "rvl"]
    )
    def test_flow_outcomes_identical_across_modes(
        self, method, library, s1196
    ):
        outcomes = {}
        for mode in ("incremental", "full"):
            outcome = run_flow(
                method, s1196, library, 1.0, sta_mode=mode
            )
            arrivals = outcome.circuit.endpoint_arrivals(
                outcome.retiming.placement
            )
            outcomes[mode] = (
                outcome.n_slaves,
                outcome.n_edl,
                outcome.sequential_area,
                outcome.comb_area,
                sorted(outcome.edl_endpoints),
                outcome.sizing.resized if outcome.sizing else None,
                arrivals,
            )
        assert outcomes["incremental"] == outcomes["full"]
