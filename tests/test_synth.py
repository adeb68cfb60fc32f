"""Tests for the synthesis-tool substrate: sizing and recovery."""

import pytest

from repro.flows import prepare_circuit
from repro.latches import TwoPhaseCircuit
from repro.retime import base_retime
from repro.synth import size_only_compile, sizing
from repro.synth.recovery import recover_area, required_times
from repro.synth.sizing import rescue_paths, speed_paths


@pytest.fixture()
def sized_case(small_netlist, library):
    """A fresh circuit plus a base placement, private per test."""
    scheme, circuit = prepare_circuit(small_netlist.copy(), library)
    result = base_retime(circuit, overhead=1.0)
    return scheme, circuit, result.placement


class TestSizeOnlyCompile:
    def test_fixes_window_overflows(self, sized_case):
        scheme, circuit, placement = sized_case
        limits = {
            name: scheme.window_close for name in circuit.endpoint_names
        }
        report = size_only_compile(circuit, placement, limits)
        arrivals = circuit.endpoint_arrivals(placement)
        for name, limit in limits.items():
            if name not in report.unresolved:
                assert arrivals[name] <= limit + 1e-7

    def test_only_resizes_never_rewires(self, sized_case):
        _, circuit, placement = sized_case
        before = {g.name: g.fanins for g in circuit.netlist}
        limits = {
            name: circuit.scheme.window_close
            for name in circuit.endpoint_names
        }
        size_only_compile(circuit, placement, limits)
        after = {g.name: g.fanins for g in circuit.netlist}
        assert before == after

    def test_area_delta_matches_resizes(self, sized_case):
        _, circuit, placement = sized_case
        library = circuit.library
        before = circuit.netlist.comb_area(library)
        limits = {
            name: circuit.scheme.window_close
            for name in circuit.endpoint_names
        }
        report = size_only_compile(circuit, placement, limits)
        assert report.area_delta == pytest.approx(
            circuit.netlist.comb_area(library) - before
        )

    def test_impossible_limit_reported_unresolved(self, sized_case):
        _, circuit, placement = sized_case
        victim = circuit.endpoint_names[0]
        report = size_only_compile(circuit, placement, {victim: 1e-6})
        assert victim in report.unresolved
        assert not report.clean

    def test_stops_once_no_endpoint_is_left(self, sized_case, monkeypatch):
        """One snapshot per pass plus the final check: the pass that
        drops the last endpoint ends the loop without another DP."""
        _, circuit, placement = sized_case
        real = TwoPhaseCircuit.arrival_details
        calls = []

        def counted(self, placement):
            calls.append(placement)
            return real(self, placement)

        monkeypatch.setattr(TwoPhaseCircuit, "arrival_details", counted)
        victim = circuit.endpoint_names[0]
        report = size_only_compile(circuit, placement, {victim: 1e-6})
        assert victim in report.unresolved
        assert report.passes >= 1
        assert len(calls) == report.passes + 1


class TestSpeedPaths:
    def test_speeds_below_target(self, small_netlist, library):
        scheme, circuit = prepare_circuit(small_netlist.copy(), library)
        engine = circuit.engine
        worst = engine.worst_arrival()
        target = worst * 0.8
        endpoint = max(
            circuit.endpoint_names, key=engine.endpoint_arrival
        )
        report = speed_paths(circuit, {endpoint: target})
        if endpoint not in report.unresolved:
            assert engine.endpoint_arrival(endpoint) <= target + 1e-9
            assert report.area_delta > 0

    def test_no_op_when_already_met(self, small_netlist, library):
        scheme, circuit = prepare_circuit(small_netlist.copy(), library)
        worst = circuit.engine.worst_arrival()
        report = speed_paths(
            circuit,
            {circuit.endpoint_names[0]: worst * 10},
        )
        assert report.n_resized == 0
        assert report.area_delta == 0

    def test_internal_gate_limit(self, small_netlist, library, monkeypatch):
        """The constraint (6) clean-up limits slave-latch drivers, which
        are internal gates: measured at their output arrival D^f and
        traced from themselves."""
        _, circuit = prepare_circuit(small_netlist.copy(), library)
        engine = circuit.engine
        endpoints = set(circuit.endpoint_names)
        gate = max(
            (
                g.name
                for g in circuit.netlist.comb_gates()
                if g.name not in endpoints
            ),
            key=engine.forward_arrival,
        )
        limit = 0.9 * engine.forward_arrival(gate)
        real = sizing._upsize_moves
        traced = []

        def spy(circuit_, path):
            traced.append(list(path))
            return real(circuit_, path)

        monkeypatch.setattr(sizing, "_upsize_moves", spy)
        report = speed_paths(circuit, {gate: limit})
        assert traced and all(path[0] == gate for path in traced)
        final = engine.forward_arrival(gate)
        if gate in report.unresolved:
            assert report.unresolved[gate] == pytest.approx(final - limit)
        else:
            assert final <= limit + 1e-9
            assert report.fixed_endpoints == 1


class TestRescuePaths:
    def test_zero_budget_abandons_all(self, small_netlist, library):
        _, circuit = prepare_circuit(small_netlist.copy(), library)
        candidates = circuit.endpoint_names[:3]
        report = rescue_paths(circuit, candidates, target=0.1, budget_per_endpoint=0.0)
        assert set(report.abandoned) == set(candidates)
        assert not report.resized

    def test_unprofitable_rescue_reverted(self, small_netlist, library):
        """With a microscopic budget, the netlist must be untouched."""
        _, circuit = prepare_circuit(small_netlist.copy(), library)
        cells_before = {g.name: g.cell for g in circuit.netlist}
        engine = circuit.engine
        worst = engine.worst_arrival()
        candidates = [
            n
            for n in circuit.endpoint_names
            if engine.endpoint_arrival(n) > 0.8 * worst
        ]
        report = rescue_paths(
            circuit, candidates, target=0.7 * worst,
            budget_per_endpoint=1e-9,
        )
        if not report.rescued:
            cells_after = {g.name: g.cell for g in circuit.netlist}
            assert cells_before == cells_after

    def test_generous_budget_rescues(self, small_netlist, library):
        scheme, circuit = prepare_circuit(small_netlist.copy(), library)
        engine = circuit.engine
        target = scheme.window_open * 0.97
        candidates = [
            n
            for n in circuit.endpoint_names
            if engine.endpoint_arrival(n) > target
        ]
        report = rescue_paths(
            circuit, candidates, target=target, budget_per_endpoint=1e9
        )
        assert report.rescued
        for endpoint in report.rescued:
            assert engine.endpoint_arrival(endpoint) <= target + 1e-9


class TestRecovery:
    def test_respects_limits(self, sized_case):
        scheme, circuit, placement = sized_case
        limits = {
            name: scheme.window_close for name in circuit.endpoint_names
        }
        size_only_compile(circuit, placement, limits)
        recover_area(circuit, placement, limits)
        arrivals = circuit.endpoint_arrivals(placement)
        for name, limit in limits.items():
            assert arrivals[name] <= limit + 1e-6

    def test_saves_area_with_loose_limits(self, sized_case):
        scheme, circuit, placement = sized_case
        library = circuit.library
        before = circuit.netlist.comb_area(library)
        limits = {
            name: scheme.window_close * 10
            for name in circuit.endpoint_names
        }
        report = recover_area(circuit, placement, limits)
        assert report.area_saved > 0
        assert circuit.netlist.comb_area(library) < before

    def test_required_times_monotone(self, sized_case):
        """A driver's requirement is never looser than what its
        fanouts allow."""
        scheme, circuit, placement = sized_case
        limits = {
            name: scheme.window_close for name in circuit.endpoint_names
        }
        req = required_times(circuit, placement, limits)
        netlist = circuit.netlist
        for gate in netlist.comb_gates():
            for user in netlist.fanouts(gate.name):
                user_gate = netlist[user]
                if not user_gate.is_comb:
                    continue
                if placement.edge_weight_after(netlist, gate.name, user) == 1:
                    continue  # decoupled by the slave latch
                bound = req.get(user, float("inf")) - circuit.edge_delay(
                    gate.name, user
                )
                assert req.get(gate.name, float("inf")) <= bound + 1e-9
