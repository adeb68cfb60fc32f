"""End-to-end tests of the flow orchestration."""

import pytest

from repro.analysis import area_breakdown, improvement, summarize_outcomes
from repro.flows import METHODS, prepare_circuit, run_flow, run_methods


@pytest.fixture(scope="module")
def flow_setup(small_netlist, library):
    scheme, _ = prepare_circuit(small_netlist, library)
    return small_netlist, library, scheme


@pytest.fixture(scope="module")
def all_outcomes(flow_setup):
    netlist, library, scheme = flow_setup
    return {
        method: run_flow(method, netlist, library, 1.0, scheme=scheme)
        for method in METHODS
        if method != "grar-lp"
    }


class TestRunFlow:
    def test_unknown_method(self, flow_setup):
        netlist, library, scheme = flow_setup
        with pytest.raises(ValueError):
            run_flow("yolo", netlist, library, 1.0, scheme=scheme)

    def test_only_the_object_engine(self, flow_setup):
        """The three entry points that keep ``sta_engine`` reject any
        engine but ``"object"``; the circuit reports that constant."""
        from repro.harness import ExperimentSuite

        netlist, library, scheme = flow_setup
        with pytest.raises(ValueError, match="STA engine"):
            prepare_circuit(netlist, library, sta_engine="arena")
        with pytest.raises(ValueError, match="STA engine"):
            run_flow(
                "base", netlist, library, 1.0, scheme=scheme,
                sta_engine="arena",
            )
        with pytest.raises(ValueError, match="STA engine"):
            ExperimentSuite(
                circuits=["s1196"], library=library, sta_engine="arena"
            )
        _, circuit = prepare_circuit(netlist, library, scheme=scheme)
        assert circuit.sta_engine == "object"
        with pytest.raises(AttributeError):
            circuit.sta_engine = "object"

    def test_all_methods_complete(self, all_outcomes):
        for method, outcome in all_outcomes.items():
            assert outcome.total_area > 0, method
            assert outcome.n_slaves > 0, method

    def test_source_netlist_untouched(self, flow_setup):
        netlist, library, scheme = flow_setup
        cells_before = {g.name: g.cell for g in netlist}
        run_flow("grar", netlist, library, 2.0, scheme=scheme)
        assert {g.name: g.cell for g in netlist} == cells_before

    def test_placements_legal(self, all_outcomes):
        for method, outcome in all_outcomes.items():
            report = outcome.circuit.check_legality(
                outcome.retiming.placement
            )
            assert report.ok, f"{method}: {report.summary()}"

    def test_edl_covers_window_arrivals(self, all_outcomes):
        """Whatever the method, every master still inside the window
        at the end must carry an error-detecting latch."""
        for method, outcome in all_outcomes.items():
            circuit = outcome.circuit
            arrivals = circuit.endpoint_arrivals(
                outcome.retiming.placement
            )
            window_open = circuit.scheme.window_open
            for name, arrival in arrivals.items():
                if arrival > window_open + 1e-9:
                    assert name in outcome.edl_endpoints, (
                        f"{method}: {name}"
                    )

    def test_grar_beats_or_matches_base(self, all_outcomes):
        base = all_outcomes["base"]
        grar = all_outcomes["grar"]
        assert grar.sequential_area <= base.sequential_area * 1.02

    def test_grar_lp_equals_flow_counts(self, flow_setup):
        netlist, library, scheme = flow_setup
        flow = run_flow("grar", netlist, library, 1.0, scheme=scheme)
        lp = run_flow("grar-lp", netlist, library, 1.0, scheme=scheme)
        assert lp.retiming.objective == flow.retiming.objective

    def test_deterministic(self, flow_setup):
        netlist, library, scheme = flow_setup
        a = run_flow("grar", netlist, library, 1.0, scheme=scheme)
        b = run_flow("grar", netlist, library, 1.0, scheme=scheme)
        assert a.total_area == pytest.approx(b.total_area)
        assert a.edl_endpoints == b.edl_endpoints
        assert a.retiming.placement == b.retiming.placement

    def test_sizing_disabled(self, flow_setup):
        netlist, library, scheme = flow_setup
        outcome = run_flow(
            "grar", netlist, library, 1.0, scheme=scheme, sizing=False
        )
        assert outcome.sizing is None
        assert outcome.rescue is None
        assert outcome.recovery is None
        # Without the compile, the comb area is exactly the input's.
        assert outcome.comb_area == pytest.approx(
            netlist.comb_area(outcome.circuit.library)
        )

    def test_overhead_scaling_of_seq_area(self, flow_setup):
        """At fixed counts, sequential area grows linearly in c."""
        netlist, library, scheme = flow_setup
        low = run_flow("base", netlist, library, 0.5, scheme=scheme)
        high = run_flow("base", netlist, library, 2.0, scheme=scheme)
        # Base ignores c during retiming: same placement, same counts.
        assert low.n_slaves == high.n_slaves
        assert low.n_edl == high.n_edl
        latch = low.cost.latch_area
        assert high.sequential_area - low.sequential_area == pytest.approx(
            1.5 * low.n_edl * latch, rel=1e-6
        )

    def test_movable_master_runs(self, flow_setup):
        netlist, library, scheme = flow_setup
        outcome = run_flow(
            "rvl-movable", netlist, library, 1.0, scheme=scheme
        )
        assert outcome.total_area > 0

    def test_run_methods_shared_scheme(self, flow_setup):
        netlist, library, scheme = flow_setup
        outcomes = run_methods(
            ["base", "grar"], netlist, library, 1.0, scheme=scheme
        )
        assert set(outcomes) == {"base", "grar"}
        assert (
            outcomes["base"].circuit.scheme
            == outcomes["grar"].circuit.scheme
        )


class TestGateModelFlow:
    def test_gate_model_decisions_path_evaluation(self, flow_setup):
        """Table II setup: decide with the gate model, evaluate with
        the path model — the evaluation circuit must be path-based."""
        netlist, library, scheme = flow_setup
        outcome = run_flow(
            "grar-gate", netlist, library, 1.0, scheme=scheme
        )
        assert outcome.circuit.engine.calculator.name == "path"

    def test_path_model_no_worse_on_average(self, flow_setup):
        netlist, library, scheme = flow_setup
        gate = run_flow("grar-gate", netlist, library, 1.0, scheme=scheme)
        path = run_flow("grar", netlist, library, 1.0, scheme=scheme)
        # Not guaranteed per-instance, but the accurate model must not
        # lose catastrophically on a single small circuit.
        assert path.total_area <= gate.total_area * 1.10


class TestAnalysis:
    def test_improvement_sign_convention(self):
        assert improvement(100, 90) == pytest.approx(10.0)
        assert improvement(100, 110) == pytest.approx(-10.0)
        assert improvement(0, 5) == 0.0

    def test_summarize_outcomes(self, all_outcomes):
        summary = summarize_outcomes(all_outcomes, metric="total_area")
        assert "grar" in summary and "base" not in summary

    def test_summarize_missing_reference(self, all_outcomes):
        with pytest.raises(KeyError):
            summarize_outcomes(all_outcomes, reference="nope")

    def test_area_breakdown_adds_up(self, all_outcomes):
        for outcome in all_outcomes.values():
            breakdown = area_breakdown(outcome)
            assert breakdown.total == pytest.approx(outcome.total_area)
            assert breakdown.sequential == pytest.approx(
                outcome.sequential_area
            )
