"""The sizing memo: repeated sizing inputs replay the stored outcome.

* a replay leaves the same cells, report and timing as the run it
  replays, for each of the three memoized entry points, over generated
  circuits, limits and placements, under both delay models;
* the key reads everything the run reads (limit order included);
* other calculators and the cache-off flow never touch the namespace;
* the namespace is memory-only, with its own fixed capacity.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import metrics
from repro.cells import default_library
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.faults import sabotaged_circuit
from repro.flows import prepare_circuit, run_flow
from repro.latches import SlavePlacement
from repro.netlist.netlist import GateType
from repro.sta import TimingEngine
from repro.store import ArtifactStore, sizing_fingerprint, use_store
from repro.store.store import MEMORY_ONLY
from repro.synth.memo import NAMESPACE, use_sizing_memo
from repro.synth.recovery import recover_area
from repro.synth.sizing import size_only_compile, speed_paths

LIBRARY = default_library()

SEEDS = st.integers(min_value=1, max_value=10**6)
MODELS = st.sampled_from(["path", "gate"])
SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_circuit(seed, model="path"):
    spec = CloudSpec(
        name=f"memo{seed}",
        seed=seed,
        n_inputs=4,
        n_outputs=3,
        n_flops=8,
        n_gates=80,
        depth=6,
        critical_fraction=0.3,
    )
    _, circuit = prepare_circuit(
        generate_circuit(spec, LIBRARY), LIBRARY, model=model
    )
    return circuit


def cells(circuit):
    return {gate.name: gate.cell for gate in circuit.netlist}


def restore(circuit, snapshot):
    for name, cell in snapshot.items():
        if circuit.netlist[name].cell != cell:
            circuit.netlist.replace_cell(name, cell)


def timing(engine, circuit):
    """Every node's max and min arrival plus every endpoint's arrival;
    querying them also makes the engine repair all three tables from
    here on."""
    names = [
        gate.name
        for gate in circuit.netlist
        if gate.gtype is not GateType.OUTPUT
    ]
    return (
        {name: engine.forward_arrival(name) for name in names},
        {name: engine.min_arrival(name) for name in names},
        {
            name: engine.endpoint_arrival(name)
            for name in circuit.endpoint_names
        },
    )


def fresh_timing(circuit, model):
    netlist = circuit.netlist.copy()
    return timing(TimingEngine(netlist, LIBRARY, model=model), circuit)


def plain_limits(circuit, rng):
    """Limits below the current arrival of a random subset of
    endpoints and internal gates, in a random order."""
    engine = circuit.engine
    endpoints = set(circuit.endpoint_names)
    nodes = list(circuit.endpoint_names) + [
        gate.name for gate in circuit.netlist.comb_gates()
        if gate.name not in endpoints
    ]
    chosen = rng.sample(nodes, rng.randint(1, min(8, len(nodes))))
    return {
        node: rng.uniform(0.7, 1.02) * (
            engine.endpoint_arrival(node)
            if node in endpoints
            else engine.forward_arrival(node)
        )
        for node in chosen
    }


def legal_placement(circuit, rng):
    """Random labels closed under fanin: a gate is retimed only when
    every driver is, so each path still crosses exactly one slave."""
    retimed = set()
    for name in circuit.netlist.topo_order():
        gate = circuit.netlist[name]
        if gate.gtype is GateType.OUTPUT:
            continue
        if gate.is_source or all(d in retimed for d in gate.fanins):
            if rng.random() < 0.5:
                retimed.add(name)
    return SlavePlacement(retimed=retimed)


def placed_limits(circuit, placement, rng):
    """Per-endpoint limits: the window edges or a tightened arrival."""
    scheme = circuit.scheme
    arrivals = circuit.endpoint_arrivals(placement)
    names = list(circuit.endpoint_names)
    rng.shuffle(names)
    return {
        name: rng.choice(
            (
                scheme.window_open,
                scheme.window_close,
                rng.uniform(0.8, 1.0) * arrivals[name],
            )
        )
        for name in names
    }


def assert_replays(circuit, model, run):
    """Run once, restore the cells, run again: the second run must be
    a memo hit that leaves what the first left."""
    pristine = cells(circuit)
    timing(circuit.engine, circuit)
    collector = metrics.MetricsCollector()
    with metrics.collect_into(collector):
        first = run()
        sized = cells(circuit)
        after = timing(circuit.engine, circuit)
        restore(circuit, pristine)
        timing(circuit.engine, circuit)
        second = run()
    assert collector.counters["store.sizing.hits"] == 1
    assert second == first
    assert second is not first
    assert cells(circuit) == sized
    assert timing(circuit.engine, circuit) == after
    assert after == fresh_timing(circuit, model)
    # The caller may mutate the report it gets (the post-retiming
    # compile merges its constraint (6) fix into it); the stored copy
    # must not see that.
    second.resized["mutated"] = ("a", "b")
    restore(circuit, pristine)
    assert run() == first


class TestReplayEqualsRun:
    @given(SEEDS, MODELS, st.randoms(use_true_random=False))
    @SLOW
    def test_speed_paths(self, seed, model, rng):
        circuit = make_circuit(seed, model)
        limits = plain_limits(circuit, rng)
        with use_store(ArtifactStore()):
            assert_replays(
                circuit, model, lambda: speed_paths(circuit, limits)
            )

    @given(SEEDS, MODELS, st.randoms(use_true_random=False))
    @SLOW
    def test_size_only_compile(self, seed, model, rng):
        circuit = make_circuit(seed, model)
        placement = legal_placement(circuit, rng)
        limits = placed_limits(circuit, placement, rng)
        with use_store(ArtifactStore()):
            assert_replays(
                circuit, model,
                lambda: size_only_compile(circuit, placement, limits),
            )

    @given(SEEDS, MODELS, st.randoms(use_true_random=False))
    @SLOW
    def test_recover_area(self, seed, model, rng):
        circuit = make_circuit(seed, model)
        placement = legal_placement(circuit, rng)
        limits = placed_limits(circuit, placement, rng)
        with use_store(ArtifactStore()):
            assert_replays(
                circuit, model,
                lambda: recover_area(circuit, placement, limits),
            )


class TestKey:
    def test_copies_collide_and_a_resize_misses(self):
        a, b = make_circuit(3), make_circuit(3)
        limits = {a.endpoint_names[0]: 1.0}
        key = sizing_fingerprint("speed_paths", a, None, limits, (120, 16))
        assert sizing_fingerprint(
            "speed_paths", b, None, limits, (120, 16)
        ) == key
        gate = next(iter(b.netlist.comb_gates()))
        stronger = LIBRARY.next_drive_up(LIBRARY[gate.cell])
        b.netlist.replace_cell(gate.name, stronger.name)
        assert sizing_fingerprint(
            "speed_paths", b, None, limits, (120, 16)
        ) != key

    def test_limit_order_placement_and_knobs_are_part_of_the_key(self):
        circuit = make_circuit(4)
        first, second = circuit.endpoint_names[:2]
        limits = {first: 1.0, second: 2.0}
        swapped = {second: 2.0, first: 1.0}
        placement = SlavePlacement(retimed={circuit.source_names[0]})

        def key(kind="size_only_compile", retimed=placement.retimed,
                limits=limits, params=(80, 16)):
            return sizing_fingerprint(kind, circuit, retimed, limits, params)

        keys = {
            key(),
            key(limits=swapped),
            key(retimed=set()),
            key(retimed=None),
            key(params=(80, 8)),
            key(kind="recover_area"),
        }
        assert len(keys) == 6

    def test_delay_model_is_part_of_the_key(self):
        path, gate = make_circuit(5, "path"), make_circuit(5, "gate")
        limits = {path.endpoint_names[0]: 1.0}
        assert sizing_fingerprint(
            "speed_paths", path, None, limits, ()
        ) != sizing_fingerprint("speed_paths", gate, None, limits, ())


def sizing_counters(collector):
    return sorted(
        name for name in collector.counters
        if name.startswith(f"store.{NAMESPACE}.")
    )


class TestBypass:
    def test_other_calculators_run_fresh(self, small_prepared):
        scheme, prepared = small_prepared
        circuit = sabotaged_circuit(
            prepared.netlist.copy(), scheme, LIBRARY, rate=0.0
        )
        placement = SlavePlacement.initial()
        limits = {
            name: scheme.window_open for name in circuit.endpoint_names
        }
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            for _ in range(2):
                speed_paths(circuit, limits)
                size_only_compile(circuit, placement, limits)
                recover_area(circuit, placement, limits)
        assert sizing_counters(collector) == []

    def test_disabled_scope_runs_fresh(self):
        circuit = make_circuit(6)
        limits = plain_limits(circuit, random.Random(6))
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector), use_sizing_memo(False):
            speed_paths(circuit, limits)
            speed_paths(circuit, limits)
        assert sizing_counters(collector) == []

    def test_cache_off_flow_never_touches_the_namespace(self, small_netlist):
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            for overhead in (0.5, 1.0):
                run_flow(
                    "grar", small_netlist, LIBRARY, overhead,
                    retime_cache=False,
                )
        assert sizing_counters(collector) == []
        assert collector.counters["flow.runs"] == 2

    def test_cache_on_flow_scope_ends_with_the_flow(self, small_netlist):
        with use_sizing_memo(False):
            collector = metrics.MetricsCollector()
            with metrics.collect_into(collector):
                run_flow("grar", small_netlist, LIBRARY, 1.0)
            assert sizing_counters(collector)
            circuit = make_circuit(7)
            limits = plain_limits(circuit, random.Random(7))
            collector = metrics.MetricsCollector()
            with metrics.collect_into(collector):
                speed_paths(circuit, limits)
            assert sizing_counters(collector) == []


class TestNamespace:
    def test_memory_only_with_a_fixed_capacity(self, tmp_path):
        store = ArtifactStore(root=tmp_path, capacity=2)
        assert store.capacity_of(NAMESPACE) == MEMORY_ONLY[NAMESPACE] == 64
        assert store.capacity_of("compiled-grar") == 2
        circuit = make_circuit(8)
        limits = plain_limits(circuit, random.Random(8))
        pristine = cells(circuit)
        with use_store(store):
            first = speed_paths(circuit, limits)
            restore(circuit, pristine)
            assert speed_paths(circuit, limits) == first
        assert store.stats()["memory"][NAMESPACE]["entries"] == 1
        assert not (tmp_path / NAMESPACE).exists()
        assert store.ls(NAMESPACE) == []

    def test_a_run_that_raises_stores_nothing(self):
        circuit = make_circuit(9)
        circuit.library = None  # sizing needs a library
        store = ArtifactStore()
        with use_store(store), pytest.raises(ValueError):
            speed_paths(circuit, {circuit.endpoint_names[0]: 0.0})
        assert store.memory_values(NAMESPACE) == []
