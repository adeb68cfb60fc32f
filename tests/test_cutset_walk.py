"""The fused cut-set walk against its eq. (5) oracle.

``compute_cut_sets`` walks each endpoint's fan-in cone once, filling
``D^b(v, t)`` and the safe region ``R`` in local tables.  The oracle is
the per-endpoint form the walk replaced: the quick accept, else
``compute_cut_set`` (eq. (5) through ``arrival_through`` and the timing
engine's per-endpoint ``D^b`` tables), run endpoint by endpoint on a
fresh circuit built from the same netlist.  The generated FSM clouds
loop some flop's Q back to its own D, the case where the walk must keep
``t``'s own Q out of ``R``.
"""

import random

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro import metrics
from repro.cells import default_library
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.flows import prepare_circuit, run_flow
from repro.latches.resilient import EPS, TwoPhaseCircuit
from repro.retime.cutset import (
    CutSet,
    EndpointClass,
    compute_cut_set,
    compute_cut_sets,
)
from repro.retime.regions import compute_regions

LIBRARY = default_library()


def _spec(seed):
    return CloudSpec(
        name=f"walk{seed}",
        seed=seed,
        n_inputs=4,
        n_outputs=3,
        n_flops=8,
        n_gates=90,
        depth=6,
        critical_fraction=0.5,
    )


def _circuit(seed, model, swaps):
    """A prepared generated circuit with ``swaps`` random drive/Vt swaps."""
    netlist = generate_circuit(_spec(seed), LIBRARY)
    scheme, circuit = prepare_circuit(netlist, LIBRARY, model=model)
    rng = random.Random(seed)
    gates = circuit.netlist.comb_gates()
    for gate in rng.sample(gates, min(swaps, len(gates))):
        cell = LIBRARY[gate.cell]
        if rng.random() < 0.5:
            other = LIBRARY.next_drive_up(cell)
        else:
            other = LIBRARY.vt_variant(cell, "lvt")
        if other is not None:
            circuit.netlist.replace_cell(gate.name, other.name)
    return scheme, circuit


def _own_q_loops(netlist):
    """Flops whose Q reaches their own D through the cloud."""
    loops = []
    for flop in netlist.flops():
        seen = set()
        stack = list(flop.fanins)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            if not netlist[name].is_source:
                stack.extend(netlist[name].fanins)
        if flop.name in seen:
            loops.append(flop.name)
    return loops


def _limits(scheme):
    """The default bound (``Pi``), ``0.9 Pi`` and the window close."""
    return (None, 0.9 * scheme.window_open, scheme.window_close)


def _oracle(circuit, regions, limit):
    """Quick accept, else ``compute_cut_set``, one endpoint at a time."""
    floor = circuit.scheme.slave_open + circuit.latch_ck_q
    if limit is None:
        limit = circuit.scheme.window_open
    limit = limit + EPS
    cuts = {}
    for endpoint in circuit.endpoint_names:
        plain = circuit.engine.endpoint_arrival(endpoint)
        if max(floor + plain, plain + circuit.latch_d_q) <= limit:
            cuts[endpoint] = CutSet(
                endpoint, EndpointClass.NEVER, frozenset()
            )
        else:
            cuts[endpoint] = compute_cut_set(
                circuit, regions, endpoint, limit=limit - EPS
            )
    return cuts


class TestWalkMatchesOracle:
    @given(
        seed=st.integers(min_value=1, max_value=10**6),
        model=st.sampled_from(["path", "gate"]),
        swaps=st.integers(min_value=0, max_value=30),
    )
    # Fixed cases where t's own Q, the quick accept and Vm each decide
    # some endpoint's cut set (a walk that gets one wrong fails here).
    @example(seed=35, model="path", swaps=18)
    @example(seed=37, model="gate", swaps=18)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cut_sets_match_oracle(self, seed, model, swaps):
        scheme, circuit = _circuit(seed, model, swaps)
        assume(_own_q_loops(circuit.netlist))
        policy = "prefer-vm" if model == "gate" else "error"
        regions = compute_regions(circuit, conflict_policy=policy)
        for limit in _limits(scheme):
            cuts = compute_cut_sets(circuit, regions, limit=limit)
            assert not circuit.engine._backward_to
            fresh = TwoPhaseCircuit(
                circuit.netlist.copy(), scheme, LIBRARY, model=model
            )
            assert cuts == _oracle(fresh, regions, limit)


class TestNoBackwardTables:
    def test_grar_flow_builds_no_backward_table(self):
        netlist = generate_circuit(_spec(35), LIBRARY)
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            outcome = run_flow("grar", netlist, LIBRARY, overhead=1.0)
        assert not outcome.circuit.engine._backward_to
        assert collector.counters.get("sta.backward_to.compute", 0) == 0
        assert collector.counters.get("retime.compile.misses", 0) >= 1
