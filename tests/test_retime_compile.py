"""Compiled G-RAR problems, warm-started sweeps, and bit-parity.

Covers the sweep-aware retiming tentpole:

* the c-independence invariant the cache is built on (regions, cut
  sets, and the non-credit edge set never change with ``c``);
* ``recost_graph`` reproducing ``build_retiming_graph`` exactly;
* the content fingerprint (copies collide, resizing misses);
* cache hit/miss + warm-start counters;
* the acceptance oracle: cache-on sweeps are bit-identical to the
  cache-off cold-start runs, for G-RAR, the baseline, and the VI-D
  trade-off curve;
* the ``_recost`` regression: re-costed live outcomes must re-cost
  their nested retiming result too.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro import metrics
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.flows import prepare_circuit
from repro.flows.tradeoff import error_rate_tradeoff
from repro.harness import ExperimentSuite
from repro.retime import (
    base_retime,
    build_retiming_graph,
    circuit_fingerprint,
    clear_cache,
    compile_retiming,
    compute_cut_sets,
    compute_regions,
    grar_retime,
    recost_graph,
)
from repro.retime.compile import _translate_basis
from repro.retime.graph import EdgeKind
from repro.retime.netflow import solve_retiming_flow
from repro.synth.sizing import speed_paths

SWEEP = (0.5, 1.0, 2.0)

SPECS = [
    CloudSpec(
        name=f"compile{i}",
        seed=90 + i,
        n_inputs=5,
        n_outputs=4,
        n_flops=8,
        n_gates=60 + 20 * i,
        depth=6,
        critical_fraction=0.3,
    )
    for i in range(3)
]


@pytest.fixture(scope="module")
def circuits(library):
    """Three prepared TwoPhaseCircuits of different shapes."""
    out = []
    for spec in SPECS:
        netlist = generate_circuit(spec, library)
        _, circuit = prepare_circuit(netlist, library)
        out.append(circuit)
    return out


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _edge_key(edge):
    return (edge.tail, edge.head, edge.weight, edge.breadth, edge.kind)


class TestCIndependence:
    """Satellite: the invariant that justifies the compiled cache."""

    def test_regions_cut_sets_and_skeleton_do_not_depend_on_c(
        self, circuits
    ):
        for circuit in circuits:
            baseline = None
            for c in SWEEP:
                regions = compute_regions(circuit)
                cut_sets = compute_cut_sets(circuit, regions)
                graph = build_retiming_graph(
                    circuit, regions, cut_sets=cut_sets, overhead=c
                )
                non_credit = [
                    _edge_key(e)
                    for e in graph.edges
                    if e.kind is not EdgeKind.CREDIT
                ]
                credit = [
                    (e.tail, e.head, e.weight)
                    for e in graph.edges
                    if e.kind is EdgeKind.CREDIT
                ]
                breadths = {
                    e.breadth
                    for e in graph.edges
                    if e.kind is EdgeKind.CREDIT
                }
                # Every credit edge carries exactly -c...
                assert breadths == {-Fraction(c).limit_denominator(10**6)}
                snapshot = (
                    regions,
                    cut_sets,
                    list(graph.nodes),
                    non_credit,
                    credit,
                )
                if baseline is None:
                    baseline = snapshot
                else:
                    # ...and nothing else in the problem moves with c.
                    assert snapshot == baseline


class TestRecostGraph:
    def test_recost_reproduces_a_fresh_build(self, circuits):
        circuit = circuits[0]
        regions = compute_regions(circuit)
        cut_sets = compute_cut_sets(circuit, regions)
        skeleton = build_retiming_graph(
            circuit, regions, cut_sets=cut_sets, overhead=0.5
        )
        for c in SWEEP:
            fresh = build_retiming_graph(
                circuit, regions, cut_sets=cut_sets, overhead=c
            )
            patched = recost_graph(skeleton, c)
            assert list(patched.nodes) == list(fresh.nodes)
            assert [_edge_key(e) for e in patched.edges] == [
                _edge_key(e) for e in fresh.edges
            ]
            assert patched.bounds == fresh.bounds
            assert patched.pseudo_nodes == fresh.pseudo_nodes

    def test_same_overhead_returns_the_skeleton_itself(self, circuits):
        compiled = compile_retiming(circuits[0], 1.0)
        assert compiled.graph_for(1.0) is compiled.skeleton
        assert compiled.graph_for(2.0) is not compiled.skeleton

    def test_rejects_non_positive_overhead(self, circuits):
        compiled = compile_retiming(circuits[0], 1.0)
        with pytest.raises(ValueError):
            recost_graph(compiled.skeleton, 0.0)

    def test_rejects_skeleton_without_pseudo_nodes(self, circuits):
        circuit = circuits[0]
        regions = compute_regions(circuit)
        plain = build_retiming_graph(
            circuit, regions, cut_sets=None, overhead=0.0
        )
        with pytest.raises(ValueError):
            recost_graph(plain, 1.0)


class TestFingerprint:
    def test_copies_collide(self, circuits, library):
        spec = SPECS[0]
        rebuilt = generate_circuit(spec, library)
        _, twin = prepare_circuit(rebuilt, library)
        assert circuit_fingerprint(circuits[0]) == circuit_fingerprint(twin)

    def test_resizing_a_gate_changes_the_digest(self, circuits, library):
        spec = SPECS[0]
        netlist = generate_circuit(spec, library)
        _, circuit = prepare_circuit(netlist, library)
        before = circuit_fingerprint(circuit)
        gate = next(
            g
            for g in circuit.netlist.comb_gates()
            if g.cell and not g.cell.endswith("_X4")
        )
        bigger = gate.cell.rsplit("_X", 1)[0] + "_X4"
        assert bigger in library.cells
        circuit.netlist.replace_cell(gate.name, bigger)
        assert circuit_fingerprint(circuit) != before

    def test_conflict_policy_is_part_of_the_key(self, circuits):
        assert circuit_fingerprint(
            circuits[0], "error"
        ) != circuit_fingerprint(circuits[0], "prefer-vm")


class TestCompileCache:
    def test_miss_then_hits_across_the_sweep(self, circuits):
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            first = compile_retiming(circuits[0], 0.5)
            for c in SWEEP[1:]:
                assert compile_retiming(circuits[0], c) is first
        assert collector.counters["retime.compile.misses"] == 1
        assert collector.counters["retime.compile.hits"] == len(SWEEP) - 1

    def test_clear_cache_forces_a_rebuild(self, circuits):
        first = compile_retiming(circuits[0], 1.0)
        clear_cache()
        assert compile_retiming(circuits[0], 1.0) is not first

    def test_distinct_circuits_get_distinct_entries(self, circuits):
        entries = {compile_retiming(c, 1.0).fingerprint for c in circuits}
        assert len(entries) == len(circuits)


def _result_key(result):
    return (
        result.placement.retimed,
        result.objective,
        result.edl_endpoints,
        result.credited_endpoints,
        result.cost,
        result.n_slaves,
        result.n_edl,
    )


class TestSweepParity:
    """Acceptance: cache-on results == the cache-off cold oracle."""

    def test_grar_sweep_is_bit_identical_to_cold_runs(self, circuits):
        for circuit in circuits:
            clear_cache()
            collector = metrics.MetricsCollector()
            with metrics.collect_into(collector):
                warm = [
                    grar_retime(circuit, c, retime_cache=True)
                    for c in SWEEP
                ]
            cold = [
                grar_retime(circuit, c, retime_cache=False) for c in SWEEP
            ]
            for w, k in zip(warm, cold):
                assert _result_key(w) == _result_key(k)
                assert w.notes["retime_cache"] == "on"
                assert k.notes["retime_cache"] == "off"
            # The sweep compiled once and warm-started the rest.
            assert collector.counters["retime.compile.misses"] == 1
            assert collector.counters["retime.compile.hits"] == (
                len(SWEEP) - 1
            )
            assert collector.counters["simplex.warm_start"] == (
                len(SWEEP) - 1
            )
            assert collector.counters["simplex.basis_reused"] == (
                len(SWEEP) - 1
            )

    def test_base_retime_shares_the_compiled_problem(self, circuits):
        circuit = circuits[0]
        for c in SWEEP:
            clear_cache()
            cold = base_retime(circuit, c, retime_cache=False)
            grar_retime(circuit, c, retime_cache=True)  # seed the cache
            collector = metrics.MetricsCollector()
            with metrics.collect_into(collector):
                warm = base_retime(circuit, c, retime_cache=True)
            assert _result_key(warm) == _result_key(cold)
            assert collector.counters["retime.compile.hits"] == 1

    def test_warm_objective_survives_interleaved_circuits(self, circuits):
        """Sweeping two circuits alternately still reuses each one's
        own basis (the basis lives on the compiled entry, not on the
        solver)."""
        a, b = circuits[0], circuits[1]
        warm = {}
        for c in SWEEP:
            warm[("a", c)] = grar_retime(a, c, retime_cache=True)
            warm[("b", c)] = grar_retime(b, c, retime_cache=True)
        for name, circuit in (("a", a), ("b", b)):
            for c in SWEEP:
                cold = grar_retime(circuit, c, retime_cache=False)
                assert _result_key(warm[(name, c)]) == _result_key(cold)


def _shape(graph):
    return len(graph.nodes), len(graph.edges)


class TestSeededAfterResize:
    """A rescue-style resize reshapes the problem (other regions, cut
    sets, node and edge counts); the miss seeds its warm start from
    the pristine problem by arc identity and still equals the cold
    oracle."""

    def test_seeded_solve_matches_the_cold_oracle(self, library):
        for spec in SPECS:
            clear_cache()
            _, circuit = prepare_circuit(
                generate_circuit(spec, library), library
            )
            grar_retime(circuit, 1.0, retime_cache=True)
            pristine = compile_retiming(circuit, 1.0)
            # Speed up the three latest endpoints by 15%, as the
            # rescue pass speeds up the endpoints it saves.
            arrivals = circuit.engine.endpoint_arrivals()
            worst = sorted(arrivals, key=arrivals.get, reverse=True)[:3]
            resized = speed_paths(
                circuit, {e: 0.85 * arrivals[e] for e in worst}
            ).resized
            assert resized

            collector = metrics.MetricsCollector()
            with metrics.collect_into(collector):
                warm = grar_retime(circuit, 1.0, retime_cache=True)
            cold = grar_retime(circuit, 1.0, retime_cache=False)
            assert _result_key(warm) == _result_key(cold)
            counters = collector.counters
            assert counters["retime.compile.misses"] == 1
            assert counters["retime.compile.basis_seeded"] == 1
            assert counters["simplex.warm_start"] == 1
            assert counters["simplex.basis_reused"] == 1

            # Every label, pseudo and mirror nodes included.
            entry = compile_retiming(circuit, 1.0)
            assert _shape(entry.skeleton) != _shape(pristine.skeleton)
            seeded = solve_retiming_flow(
                entry.skeleton,
                warm_basis=_translate_basis(
                    pristine.last_basis, pristine.skeleton, entry.skeleton
                ),
            )
            regions = compute_regions(circuit)
            oracle = solve_retiming_flow(
                build_retiming_graph(
                    circuit, regions,
                    cut_sets=compute_cut_sets(circuit, regions),
                    overhead=1.0,
                )
            )
            assert seeded.r_values == oracle.r_values
            assert seeded.objective == oracle.objective

    def test_translation_keeps_only_arcs_the_new_graph_has(self, circuits):
        circuit = circuits[0]
        grar_retime(circuit, 1.0, retime_cache=True)
        entry = compile_retiming(circuit, 1.0)
        basis = entry.last_basis
        same = _translate_basis(basis, entry.skeleton, entry.skeleton)
        assert same == basis
        # Dropping edges renumbers the rest; the basis follows them by
        # identity and loses exactly the dropped ones.
        kept = entry.skeleton.edges[::2]
        thinned = replace(entry.skeleton, edges=kept)
        moved = _translate_basis(basis, entry.skeleton, thinned)
        assert (moved.n, moved.m) == (len(thinned.nodes), len(kept))
        assert [kept[arc] for arc in moved.real_arcs] == [
            entry.skeleton.edges[arc]
            for arc in basis.real_arcs
            if arc % 2 == 0
        ]


class TestTradeoffParity:
    def test_budget_points_match_the_oracle(self, circuits, library):
        netlist = generate_circuit(SPECS[0], library)
        kwargs = dict(
            budget_scales=(0.0, 1.0),
            cycles=16,
            seed=7,
        )
        clear_cache()
        on = error_rate_tradeoff(
            netlist.copy(), library, 1.0, retime_cache=True, **kwargs
        )
        off = error_rate_tradeoff(
            netlist.copy(), library, 1.0, retime_cache=False, **kwargs
        )
        assert [p.row() for p in on] == [p.row() for p in off]
        assert [p.total_area for p in on] == [p.total_area for p in off]
        assert [p.n_edl for p in on] == [p.n_edl for p in off]


class TestRecostRegression:
    """Satellite: `_recost` must re-cost the nested retiming result.

    Pre-fix, a re-costed live ``FlowOutcome`` kept ``outcome.retiming``
    at the canonical ``c = 1.0``, so its ``sequential_area`` (and every
    summary line built from it) reported canonical areas under other
    overheads.
    """

    @pytest.fixture()
    def suite(self, library):
        suite = ExperimentSuite(circuits=["recost"], library=library)
        spec = CloudSpec(
            name="recost",
            seed=11,
            n_inputs=4,
            n_outputs=3,
            n_flops=6,
            n_gates=40,
            depth=5,
            critical_fraction=0.4,
        )
        suite._netlists["recost"] = generate_circuit(spec, library)
        return suite

    def test_live_outcome_recosts_nested_retiming(self, suite):
        recosted = suite.outcome("recost", "base", 2.0)
        assert recosted.overhead == 2.0
        assert recosted.cost.overhead == 2.0
        # The nested retiming result must carry the same overhead...
        assert recosted.retiming.overhead == 2.0
        assert recosted.retiming.cost.overhead == 2.0
        canonical = suite.outcome("recost", "base", 1.0)
        if canonical.retiming.n_edl:
            # ...and EDL masters must be priced at c=2, not c=1.
            assert (
                recosted.retiming.sequential_area
                > canonical.retiming.sequential_area
            )

    def test_recost_leaves_the_canonical_outcome_untouched(self, suite):
        suite.outcome("recost", "base", 0.5)
        canonical = suite.outcome("recost", "base", 1.0)
        assert canonical.overhead == 1.0
        assert canonical.retiming.overhead == 1.0
