"""Scenario-engine tests: injectors, fragility, degradation contract.

The tentpole guarantees under test:

* injection plans are deterministic functions of one seed, and both
  simulation backends honour them **bit-identically** (the parity
  oracle keeps holding under SEU flips, glitch pulses, and delay
  corners);
* the selective-hardening policy threads through ``run_flow`` and the
  trade-off sweep as a first-class method;
* the scenario matrix degrades gracefully — crashes and hangs become
  typed FAILED entries, retried where transient, checkpointed into a
  resumable memo — and identical invocations render byte-identical
  reports.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cells import default_library
from repro.circuits.fig4 import fig4_netlist
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.errors import SimulationError
from repro.flows import prepare_circuit, run_flow
from repro.flows.tradeoff import error_rate_tradeoff
from repro.retime import base_retime
from repro.scenarios import (
    MIN_DELAY_FACTOR,
    GlitchSpec,
    InjectionPlan,
    build_injection_plan,
    delay_corner_scale,
    glitch_events,
    latch_state_keys,
    rank_fragility,
    select_hardened,
)
from repro.scenarios.engine import (
    CORNERS,
    UPSETS,
    ScenarioReport,
    run_scenarios,
    scenario_seed,
)
from repro.sim import estimate_error_rate

LIBRARY = default_library()


@pytest.fixture(scope="module")
def fig4_prepared():
    """Fig. 4 prepared against the cell library (simulatable)."""
    return prepare_circuit(fig4_netlist(), LIBRARY)[1]


SEEDS = st.integers(min_value=1, max_value=10**6)
SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestGlitchEvents:
    def test_constant_wave_gets_pulse(self):
        times, values = glitch_events(
            0, [], [], GlitchSpec("n", 1.0, 0.5)
        )
        assert times == [1.0, 1.5]
        assert values == [1, 0]

    def test_pulse_swallows_interior_transitions(self):
        # Original: 0 ->(1.2) 1 ->(1.4) 0; pulse [1.0, 2.0) forces 1.
        times, values = glitch_events(
            0, [1.2, 1.4], [1, 0], GlitchSpec("n", 1.0, 1.0)
        )
        assert times == [1.0, 2.0]
        assert values == [1, 0]

    def test_restores_original_value_at_end(self):
        # Wave rises at 1.5, inside the pulse; the pulse forces 1 (the
        # complement of the value at start) so the end event to the
        # original value 1 is a no-op and must be pruned.
        times, values = glitch_events(
            0, [1.5], [1], GlitchSpec("n", 1.0, 1.0)
        )
        assert times == [1.0]
        assert values == [1]

    def test_events_before_pulse_survive(self):
        times, values = glitch_events(
            0, [0.5, 3.0], [1, 0], GlitchSpec("n", 1.0, 0.5)
        )
        # value at start is 1 -> forced 0 during [1.0, 1.5), back to 1.
        assert times == [0.5, 1.0, 1.5, 3.0]
        assert values == [1, 0, 1, 0]

    def test_output_is_normalized(self):
        for spec in (
            GlitchSpec("n", 0.1, 0.2),
            GlitchSpec("n", 1.0, 2.0),
            GlitchSpec("n", 2.5, 0.1),
        ):
            times, values = glitch_events(
                1, [1.0, 2.0, 2.1], [0, 1, 0], spec
            )
            assert times == sorted(times)
            current = 1
            for value in values:
                assert value != current
                current = value


class TestDelayCornerScale:
    def test_systematic_only_is_uniform(self, fig4):
        scale = delay_corner_scale(fig4.netlist, systematic=1.1)
        assert scale
        assert all(f == 1.1 for f in scale.values())
        assert set(scale) == {
            g.name for g in fig4.netlist.comb_gates()
        }

    def test_sigma_is_seed_deterministic(self, fig4):
        a = delay_corner_scale(
            fig4.netlist, sigma=0.1, rng=random.Random(5)
        )
        b = delay_corner_scale(
            fig4.netlist, sigma=0.1, rng=random.Random(5)
        )
        assert a == b
        c = delay_corner_scale(
            fig4.netlist, sigma=0.1, rng=random.Random(6)
        )
        assert a != c

    def test_clamped_at_floor(self, fig4):
        # An absurd sigma will draw negative factors; the clamp keeps
        # every delay positive.
        scale = delay_corner_scale(
            fig4.netlist, sigma=50.0, rng=random.Random(1)
        )
        assert min(scale.values()) >= MIN_DELAY_FACTOR

    def test_validation(self, fig4):
        with pytest.raises(ValueError):
            delay_corner_scale(fig4.netlist, systematic=0.0)
        with pytest.raises(ValueError):
            delay_corner_scale(fig4.netlist, sigma=-0.1)


class TestInjectionPlan:
    def test_empty_plan(self):
        plan = InjectionPlan()
        assert plan.empty
        assert plan.counts() == {
            "scaled_gates": 0, "glitches": 0, "seu_flips": 0
        }

    def test_build_is_deterministic(self, fig4):
        kwargs = dict(
            cycles=64, seed=11, systematic=1.05, sigma=0.02,
            seu_rate=0.2, glitch_rate=0.2,
        )
        a = build_injection_plan(fig4.netlist, fig4.scheme, **kwargs)
        b = build_injection_plan(fig4.netlist, fig4.scheme, **kwargs)
        assert a == b
        assert not a.empty

    def test_rate_validation(self, fig4):
        with pytest.raises(ValueError):
            build_injection_plan(
                fig4.netlist, fig4.scheme, cycles=8, seed=1, seu_rate=1.5
            )
        with pytest.raises(ValueError):
            build_injection_plan(
                fig4.netlist, fig4.scheme, cycles=8, seed=1,
                glitch_rate=-0.1,
            )

    def test_placement_extends_seu_targets(self, fig4):
        result = base_retime(fig4, overhead=1.0)
        keys = latch_state_keys(fig4.netlist, result.placement)
        assert keys == sorted(keys)
        plan = build_injection_plan(
            fig4.netlist, fig4.scheme, cycles=256, seed=3,
            seu_rate=0.9, placement=result.placement,
        )
        targets = {t for flips in plan.seu_flips.values() for t in flips}
        assert any(t.startswith("latch:") for t in targets)

    def test_unknown_targets_raise_typed(self, fig4_prepared):
        circuit = fig4_prepared
        result = base_retime(circuit, overhead=1.0)
        edl = circuit.edl_endpoints(result.placement)
        plan = InjectionPlan(
            glitches={0: (GlitchSpec("no_such_net", 0.1, 0.1),)},
            label="bogus",
        )
        with pytest.raises(SimulationError) as info:
            estimate_error_rate(
                circuit, result.placement, edl, cycles=8, injection=plan
            )
        assert "no_such_net" in str(info.value)


def _parity_case(circuit, seed, cycles=48):
    """Run one injected estimate on both backends and compare."""
    result = base_retime(circuit, overhead=1.0)
    edl = circuit.edl_endpoints(result.placement)
    plan = build_injection_plan(
        circuit.netlist,
        circuit.scheme,
        cycles=cycles,
        seed=seed,
        systematic=1.0 + (seed % 7) * 0.01,
        sigma=0.03,
        seu_rate=0.15,
        glitch_rate=0.15,
        placement=result.placement,
    )
    reports = {
        backend: estimate_error_rate(
            circuit, result.placement, edl, cycles=cycles,
            seed=seed, backend=backend, injection=plan,
        )
        for backend in ("event", "compiled")
    }
    event, compiled = reports["event"], reports["compiled"]
    assert event.error_cycles == compiled.error_cycles
    assert event.per_endpoint == compiled.per_endpoint
    assert event.non_edl_violations == compiled.non_edl_violations
    assert event.final_flop_state == compiled.final_flop_state
    assert event.final_latch_state == compiled.final_latch_state
    return event


class TestBackendParityUnderInjection:
    """Satellite 3: the bit-parity oracle must survive injection."""

    @given(SEEDS)
    @SLOW
    def test_fig4_parity(self, seed):
        _, circuit = prepare_circuit(fig4_netlist(), LIBRARY)
        _parity_case(circuit, seed)

    @given(SEEDS)
    @SLOW
    def test_generated_parity(self, seed):
        spec = CloudSpec(
            name="scen",
            seed=seed % 50,
            n_inputs=4,
            n_outputs=3,
            n_flops=6,
            n_gates=40,
            depth=5,
            critical_fraction=0.3,
        )
        netlist = generate_circuit(spec, LIBRARY)
        _, circuit = prepare_circuit(netlist, LIBRARY)
        _parity_case(circuit, seed, cycles=32)

    def test_injection_perturbs_the_run(self, fig4_prepared):
        """The injectors must actually do something: a seeded SEU +
        glitch storm changes the report relative to the clean run."""
        circuit = fig4_prepared
        result = base_retime(circuit, overhead=1.0)
        edl = circuit.edl_endpoints(result.placement)
        clean = estimate_error_rate(
            circuit, result.placement, edl, cycles=64, seed=3
        )
        plan = build_injection_plan(
            circuit.netlist, circuit.scheme, cycles=64, seed=3,
            seu_rate=0.5, glitch_rate=0.5, placement=result.placement,
        )
        injected = estimate_error_rate(
            circuit, result.placement, edl, cycles=64, seed=3,
            injection=plan,
        )
        assert (
            injected.error_cycles != clean.error_cycles
            or injected.final_flop_state != clean.final_flop_state
            or injected.non_edl_violations != clean.non_edl_violations
        )


class TestFragility:
    def test_ranked_most_fragile_first(self, fig4):
        result = base_retime(fig4, overhead=1.0)
        report = rank_fragility(fig4, result.placement)
        slacks = [e.slack for e in report.entries]
        assert slacks == sorted(slacks)
        assert {e.endpoint for e in report.entries} == set(
            fig4.endpoint_names
        )
        for entry in report.entries:
            assert entry.slack == report.window_open - entry.arrival

    def test_fragile_set_matches_edl_oracle(self, fig4):
        """Arrival past the window opening is exactly the condition
        ``edl_endpoints`` uses — the two must agree."""
        result = base_retime(fig4, overhead=1.0)
        report = rank_fragility(fig4, result.placement)
        fragile = {e.endpoint for e in report.fragile()}
        assert fragile == fig4.edl_endpoints(result.placement)

    def test_select_hardened_fractions(self, fig4):
        result = base_retime(fig4, overhead=1.0)
        report = rank_fragility(fig4, result.placement)
        none = select_hardened(report, 0.0)
        half = select_hardened(report, 0.5)
        everyone = select_hardened(report, 1.0)
        assert none == set()
        assert half <= everyone
        assert everyone == {e.endpoint for e in report.fragile()}

    def test_fraction_validation(self, fig4):
        result = base_retime(fig4, overhead=1.0)
        report = rank_fragility(fig4, result.placement)
        with pytest.raises(ValueError):
            select_hardened(report, 1.5)
        with pytest.raises(ValueError):
            select_hardened(report, -0.1)


class TestSelectiveFlow:
    def test_selective_outcome_shape(self, library, fig4):
        outcome = run_flow(
            "selective", fig4.netlist, library, 1.0,
            harden_fraction=0.5,
        )
        retiming = outcome.retiming
        assert retiming.method == "selective"
        assert retiming.cost.n_edl == len(retiming.edl_endpoints)
        assert float(retiming.notes["harden_fraction"]) == 0.5
        assert outcome.n_edl == retiming.cost.n_edl

    def test_fraction_widens_the_edl_set(self, library, fig4):
        small = run_flow(
            "selective", fig4.netlist, library, 1.0,
            harden_fraction=0.5,
        )
        full = run_flow(
            "selective", fig4.netlist, library, 1.0,
            harden_fraction=1.0,
        )
        assert small.edl_endpoints <= full.edl_endpoints
        assert small.n_edl <= full.n_edl

    def test_selective_simulates_cleanly(self, library, fig4):
        outcome = run_flow(
            "selective", fig4.netlist, library, 1.0,
            harden_fraction=1.0,
        )
        report = estimate_error_rate(
            outcome.circuit,
            outcome.retiming.placement,
            outcome.edl_endpoints,
            cycles=48,
            seed=5,
        )
        assert report.non_edl_violations == 0


class TestTradeoffMethods:
    def test_both_policies_share_one_curve(
        self, small_netlist, library, small_prepared
    ):
        scheme, _ = small_prepared
        points = error_rate_tradeoff(
            small_netlist, library, 1.0,
            budget_scales=(0.0, 1.0),
            harden_fractions=(0.0, 1.0),
            scheme=scheme,
            cycles=24,
            methods=("grar", "selective"),
        )
        by_method = {p.method for p in points}
        assert by_method == {"grar", "selective"}
        selective = [p for p in points if p.method == "selective"]
        assert [p.budget_scale for p in selective] == [0.0, 1.0]

    def test_default_is_grar_only(
        self, small_netlist, library, small_prepared
    ):
        scheme, _ = small_prepared
        points = error_rate_tradeoff(
            small_netlist, library, 1.0,
            budget_scales=(1.0,),
            scheme=scheme,
            cycles=16,
        )
        assert all(p.method == "grar" for p in points)


class TestScenarioSeed:
    def test_distinct_across_the_matrix(self):
        seeds = {
            scenario_seed(7, c, corner, upset, policy)
            for c in ("fig4", "s1196")
            for corner in ("nominal", "slow")
            for upset in ("none", "seu")
            for policy in ("grar", "selective")
        }
        assert len(seeds) == 16

    def test_stable(self):
        assert scenario_seed(7, "a", "b", "c", "d") == scenario_seed(
            7, "a", "b", "c", "d"
        )


def _run_matrix(**overrides):
    kwargs = dict(
        circuits=[("fig4", fig4_netlist())],
        library=LIBRARY,
        corners=("nominal",),
        upsets=("seu",),
        policies=("grar",),
        cycles=24,
        seed=13,
    )
    kwargs.update(overrides)
    return run_scenarios(kwargs.pop("circuits"), kwargs.pop("library"), **kwargs)


class TestScenarioEngine:
    def test_ok_entry_shape(self):
        report = _run_matrix()
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry["status"] == "ok"
        assert entry["injected"]["seu_flips"] >= 0
        assert entry["seed"] == scenario_seed(
            13, "fig4", "nominal", "seu", "grar"
        )
        assert len(entry["state_digest"]) == 16

    def test_chaos_crash_degrades_to_typed_failed(self):
        report = _run_matrix(corners=("nominal", "chaos-crash"))
        assert len(report.ok_entries) == 1
        (failed,) = report.failed_entries
        assert failed["status"] == "failed"
        assert failed["failure_kind"] == "crash"
        assert failed["attempts"] == 1
        assert failed["error"]["stage"] == "scenario"
        assert "drill" in failed["message"]

    def test_chaos_hang_hits_deadline_and_retries(self):
        report = _run_matrix(
            corners=("chaos-hang",),
            deadline_s=0.5,
            hang_s=30.0,
        )
        (failed,) = report.failed_entries
        assert failed["failure_kind"] == "deadline"
        assert failed["attempts"] == 2

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            _run_matrix(corners=("warp-speed",))
        with pytest.raises(ValueError):
            _run_matrix(upsets=("emp",))
        with pytest.raises(ValueError):
            _run_matrix(policies=("prayer",))
        with pytest.raises(ValueError):
            _run_matrix(sim_backend="quantum")

    def test_identical_invocations_are_byte_identical(self):
        a = _run_matrix(upsets=("seu", "glitch"), policies=("grar", "selective"))
        b = _run_matrix(upsets=("seu", "glitch"), policies=("grar", "selective"))
        assert a.to_json() == b.to_json()

    def test_backends_render_identical_reports(self):
        a = _run_matrix(sim_backend="event")
        b = _run_matrix(sim_backend="compiled")
        assert a.to_json() == b.to_json()
        assert a.sim_backend != b.sim_backend  # kept in memory only

    def test_memo_resume_skips_completed(self, tmp_path):
        from repro import metrics

        memo = tmp_path / "memo.json"
        first = _run_matrix(
            corners=("nominal", "chaos-crash"), memo_path=memo
        )
        assert memo.exists()
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            second = _run_matrix(
                corners=("nominal", "chaos-crash"), memo_path=memo
            )
        assert second.to_json() == first.to_json()
        # Everything (including the FAILED entry) came from the memo.
        assert collector.counters.get("scenarios.memo_hits") == 2

    def test_memo_retry_failed_reattempts(self, tmp_path):
        memo = tmp_path / "memo.json"
        _run_matrix(corners=("chaos-crash",), memo_path=memo)
        from repro import metrics

        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            report = _run_matrix(
                corners=("chaos-crash",),
                memo_path=memo,
                retry_failed=True,
            )
        assert not collector.counters.get("scenarios.memo_hits")
        (failed,) = report.failed_entries
        assert failed["failure_kind"] == "crash"

    def test_memo_config_mismatch_is_ignored(self, tmp_path):
        memo = tmp_path / "memo.json"
        _run_matrix(memo_path=memo)
        report = _run_matrix(memo_path=memo, seed=14)
        entry = report.entries[0]
        assert entry["seed"] == scenario_seed(
            14, "fig4", "nominal", "seu", "grar"
        )

    def test_worker_counters_reach_the_caller(self):
        """The workers' flow and simulation counters used to die with
        the worker processes; the runner now carries them back."""
        from repro import metrics

        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            report = _run_matrix(
                corners=("nominal", "chaos-crash"),
                upsets=("none", "seu"),
                jobs=2,
            )
        counters = collector.counters
        assert len(report.ok_entries) == 2
        assert counters["sim.batched.runs"] == len(report.ok_entries)
        assert counters["flow.runs"] >= 1

    def test_unpreparable_circuit_degrades_whole_submatrix(self):
        from repro.faults import corrupt_net

        broken = fig4_netlist()
        corrupt_net(broken, random.Random(1))
        report = run_scenarios(
            [("fig4", fig4_netlist()), ("broken", broken)],
            LIBRARY,
            corners=("nominal",),
            upsets=("none", "seu"),
            policies=("grar",),
            cycles=16,
            seed=5,
        )
        failed = report.failed_entries
        assert len(failed) == 2
        assert all(e["stage"] == "prepare" for e in failed)
        assert all(e["circuit"] == "broken" for e in failed)
        assert len(report.ok_entries) == 2

    def test_report_excludes_backend_and_wall(self):
        report = ScenarioReport(
            seed=1, overhead=1.0, cycles=8,
            sim_backend="compiled", harden_fraction=0.5,
            wall_s=12.5,
        )
        data = report.to_dict()
        assert "sim_backend" not in data
        assert "wall_s" not in data
        assert data["schema"] == "repro-scenarios/1"


class TestScenarioCli:
    def test_partial_failure_still_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main([
            "scenarios", "fig4",
            "--corners", "nominal", "chaos-crash",
            "--upsets", "none",
            "--policy", "grar",
            "--cycles", "16",
            "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["n_ok"] == 1
        assert data["n_failed"] == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "crash" in captured.out

    def test_total_failure_exits_partial(self, capsys):
        from repro.cli import main, EXIT_PARTIAL

        code = main([
            "scenarios", "fig4",
            "--corners", "chaos-crash",
            "--upsets", "none",
            "--policy", "grar",
            "--cycles", "16",
        ])
        assert code == EXIT_PARTIAL
        assert "0 ok" in capsys.readouterr().out

    def test_seed_threads_to_byte_identical_reports(self, tmp_path):
        """Satellite 1: one --seed, two invocations, identical bytes."""
        from repro.cli import main

        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "scenarios", "fig4",
                "--corners", "nominal", "sigma",
                "--upsets", "seu", "glitch",
                "--policy", "grar", "selective",
                "--cycles", "24",
                "--seed", "42",
                "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_fraction_is_usage_error(self):
        from repro.cli import main, EXIT_USAGE

        code = main([
            "scenarios", "fig4", "--harden-fraction", "2.0",
        ])
        assert code == EXIT_USAGE


class TestCornerAndUpsetCatalogue:
    def test_chaos_corners_are_marked(self):
        assert CORNERS["chaos-crash"].chaos == "crash"
        assert CORNERS["chaos-hang"].chaos == "hang"
        real = [c for c in CORNERS.values() if not c.chaos]
        assert all(c.systematic > 0 for c in real)

    def test_upset_rates_are_probabilities(self):
        for spec in UPSETS.values():
            assert 0.0 <= spec.seu_rate <= 1.0
            assert 0.0 <= spec.glitch_rate <= 1.0
