"""Fault-injection property tests.

Acceptance criterion for the robustness layer: every fault class in
:data:`repro.faults.FAULT_KINDS` must surface as a *typed*
:class:`ReproError` (strict) or a *recorded* partial result (warn +
isolate) — never an unhandled crash, never a silently wrong table.
"""

import io
import json
import random
from fractions import Fraction

import pytest

from repro.circuits.generator import CloudSpec, generate_circuit
from repro.clocks import scheme_from_period
from repro.errors import (
    InfeasibleFlowError,
    NetlistError,
    ReproError,
    SolverTimeoutError,
    TimingError,
)
from repro.faults import (
    FAULT_KINDS,
    SabotagedCalculator,
    chaotic_simplex,
    corrupt_net,
    delay_corner_plan,
    glitch_pulse_plan,
    infeasible_scheme,
    sabotaged_circuit,
    seu_capture_plan,
    truncate_bench,
    unbalanced_demands,
)
from repro.flows import run_flow
from repro.guard import Guard
from repro.harness import ExperimentSuite
from repro.latches.resilient import TwoPhaseCircuit
from repro.netlist import parse_bench
from repro.netlist.bench import write_bench


def _prepared(netlist, library):
    from repro.flows import prepare_circuit

    scheme, circuit = prepare_circuit(netlist, library)
    return scheme, circuit


class TestCorruptNet:
    def test_strict_flow_raises_typed(self, small_netlist, library):
        broken = small_netlist.copy()
        report = corrupt_net(broken, random.Random(3))
        assert report.kind == "corrupt-net"
        with pytest.raises(ReproError) as info:
            run_flow("grar", broken, library, 1.0, guard="strict")
        assert info.value.stage is not None

    def test_unguarded_flow_still_typed(self, small_netlist, library):
        """Even with the guard off, the stage scopes keep it typed."""
        broken = small_netlist.copy()
        corrupt_net(broken, random.Random(3))
        with pytest.raises(ReproError):
            run_flow("base", broken, library, 1.0)


BENCH = """\
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = NAND(a, b)
g2 = NOT(g1)
d1 = DFF(g2)
g3 = AND(d1, g1)
y = OR(g3, g2)
"""


class TestTruncatedBench:
    def test_parse_raises_netlist_error(self, library):
        text, report = truncate_bench(BENCH, random.Random(5))
        assert report.kind == "truncated-bench"
        with pytest.raises(NetlistError):
            parse_bench(text, library, name="truncated")

    def test_roundtrip_still_works_untruncated(self, library):
        netlist = parse_bench(BENCH, library, name="ok")
        buffer = io.StringIO()
        write_bench(netlist, buffer)
        again = parse_bench(buffer.getvalue(), library, name="ok2")
        assert len(list(again.comb_gates())) == len(
            list(netlist.comb_gates())
        )


class TestSabotagedTiming:
    @pytest.mark.parametrize("mode", ["nan", "negative", "inf"])
    def test_guard_catches_lying_calculator(
        self, mode, small_netlist, library
    ):
        circuit = sabotaged_circuit(
            small_netlist.copy(),
            scheme_from_period(10.0),
            library,
            mode=mode,
            rate=1.0,
        )
        warn = Guard("warn").timing_sane(circuit, "prepare")
        assert not warn.ok and warn.problems
        from repro.errors import InvariantError

        with pytest.raises(InvariantError):
            Guard("strict").timing_sane(circuit, "prepare")

    def test_honest_edges_unchanged(self, small_netlist, library):
        """rate=0 must be an exact no-op (sabotage is opt-in per edge)."""
        sab = SabotagedCalculator(
            small_netlist, library, mode="nan", rate=0.0
        )
        honest = type(sab).__mro__[1](small_netlist, library)
        gate = next(g for g in small_netlist.comb_gates() if g.fanins)
        driver = gate.fanins[0]
        assert sab.edge_delay(driver, gate.name) == honest.edge_delay(
            driver, gate.name
        )
        assert sab.hits == []


class TestInfeasibleCut:
    def test_squeezed_clock_raises_timing_error(
        self, small_netlist, library
    ):
        scheme, _ = _prepared(small_netlist.copy(), library)
        tight = infeasible_scheme(scheme)
        with pytest.raises(TimingError):
            run_flow(
                "grar", small_netlist.copy(), library, 1.0, scheme=tight
            )

    def test_error_carries_stage_context(self, small_netlist, library):
        scheme, _ = _prepared(small_netlist.copy(), library)
        tight = infeasible_scheme(scheme)
        with pytest.raises(ReproError) as info:
            run_flow(
                "grar", small_netlist.copy(), library, 1.0, scheme=tight
            )
        assert info.value.stage in ("prepare", "retime")


class TestSolverFaults:
    def test_unbalanced_demands_infeasible(self):
        from repro.retime.mincostflow import solve_min_cost_flow

        rng = random.Random(11)
        nodes = [f"n{i}" for i in range(6)]
        arcs = [
            (nodes[i], nodes[(i + 1) % 6], 1) for i in range(6)
        ] + [(nodes[(i + 1) % 6], nodes[i], 1) for i in range(6)]
        demands = unbalanced_demands(nodes, rng)
        assert sum(demands.values()) != 0
        with pytest.raises(InfeasibleFlowError):
            solve_min_cost_flow(nodes, arcs, demands)

    def test_pivot_chaos_hits_iteration_budget(self):
        from tests.test_solver_parity import random_instance

        nodes, arcs, demands = random_instance(2, n_nodes=10, n_extra=20)
        solver = chaotic_simplex(
            nodes, arcs, demands, seed=7, max_iterations=2
        )
        with pytest.raises(SolverTimeoutError):
            solver.solve()

    def test_pivot_chaos_still_reaches_optimum(self):
        """Anti-cycling keeps even randomized pivoting convergent."""
        from repro.retime.mincostflow import _solve_networkx
        from tests.test_solver_parity import random_instance

        nodes, arcs, demands = random_instance(4, n_nodes=8, n_extra=16)
        reference = _solve_networkx(nodes, arcs, demands).objective
        for seed in range(3):
            solver = chaotic_simplex(nodes, arcs, demands, seed=seed)
            result = solver.solve()
            assert result.objective == reference


# -- suite-level isolation (the acceptance test) ---------------------------


def _tiny_suite(library, guard="strict", isolate=True, memo_path=None):
    names = ["alpha", "bravo", "charlie"]
    suite = ExperimentSuite(
        circuits=names,
        library=library,
        error_rate_cycles=16,
        guard=guard,
        isolate=isolate,
        memo_path=memo_path,
    )
    for index, name in enumerate(names):
        spec = CloudSpec(
            name=name,
            seed=40 + index,
            n_inputs=4,
            n_outputs=3,
            n_flops=6,
            n_gates=40,
            depth=5,
            critical_fraction=0.3,
        )
        suite._netlists[name] = generate_circuit(spec, library)
    return suite


class TestSuiteIsolation:
    def test_partial_tables_with_one_sabotaged_circuit(self, library):
        suite = _tiny_suite(library)
        corrupt_net(suite._netlists["bravo"], random.Random(0))

        table = suite.table5()
        rows = {row[0]: row for row in table.rows}
        assert set(rows) == {"alpha", "bravo", "charlie"}
        # Sabotaged circuit: every metric cell is NaN -> renders FAILED.
        assert all(v != v for v in rows["bravo"][1:])
        assert "FAILED" in table.render()
        # Clean circuits keep real numbers.
        for name in ("alpha", "charlie"):
            assert all(v == v for v in rows[name][1:])

        report = suite.failure_report()
        assert report["n_failures"] >= 1
        assert {f["circuit"] for f in suite_failures(report)} == {"bravo"}
        json.dumps(report)  # machine-readable

    def test_without_isolation_the_fault_propagates(self, library):
        suite = _tiny_suite(library, isolate=False)
        corrupt_net(suite._netlists["bravo"], random.Random(0))
        with pytest.raises(ReproError):
            suite.table5()

    def test_averages_skip_failed_cells(self, library):
        suite = _tiny_suite(library)
        corrupt_net(suite._netlists["bravo"], random.Random(0))
        table = suite.table5()
        for note in table.notes:
            assert "nan" not in note.lower()

    def test_memo_checkpoint_resumes(self, library, tmp_path):
        memo = str(tmp_path / "memo.json")
        first = _tiny_suite(library, memo_path=memo)
        area = first.outcome("alpha", "grar", 1.0).total_area

        resumed = _tiny_suite(library, memo_path=memo)
        record = resumed.outcome("alpha", "grar", 1.0)
        assert record.total_area == pytest.approx(area)
        # Resumed from disk, not re-run: the memo hands back a record.
        from repro.harness.experiments import FlowRecord

        assert isinstance(record, FlowRecord)


def _concrete_error_classes():
    """Every ReproError class, including ones declared outside
    :mod:`repro.errors` (their modules are imported first)."""
    import repro.netlist.bench  # noqa: F401 - BenchParseError
    import repro.netlist.verilog  # noqa: F401 - VerilogError
    import repro.retime.regions  # noqa: F401 - InfeasibleRetimingError

    seen, todo = [], [ReproError]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(seen, key=lambda c: c.__name__)


class TestTypedErrorRoundTrip:
    """``ReproError.from_dict`` inverts ``to_dict`` — how a worker's
    typed error is rebuilt on the parent side of a process boundary."""

    @pytest.mark.parametrize(
        "cls", _concrete_error_classes(), ids=lambda c: c.__name__
    )
    def test_every_class_round_trips(self, cls):
        context = dict(stage="retime", circuit="s1488", payload={"n": 3})
        if issubclass(cls, NetlistError):
            exc = cls(["no driver for g1", "dangling g2"], **context)
        else:
            exc = cls("solver gave up", **context)
        data = exc.to_dict()
        rebuilt = ReproError.from_dict(json.loads(json.dumps(data)))
        assert type(rebuilt) is cls
        assert rebuilt.to_dict() == data
        assert str(rebuilt) == str(exc)
        if issubclass(cls, NetlistError):
            assert rebuilt.problems == exc.problems

    def test_unknown_type_rebuilds_as_flow_stage_error(self):
        from repro.errors import FlowStageError

        rebuilt = ReproError.from_dict(
            {"type": "RuntimeError", "message": "boom", "stage": "x"}
        )
        assert type(rebuilt) is FlowStageError
        assert rebuilt.stage == "x" and rebuilt.message == "boom"


class TestSimulationLevelFaults:
    """The scenario-engine injectors, exposed as fault kinds: each
    builder yields a deterministic plan both sim backends honour."""

    def test_seu_capture_plan(self, small_netlist):
        plan, report = seu_capture_plan(
            small_netlist, cycles=64, rng=random.Random(3), rate=0.5
        )
        assert report.kind == "seu-capture"
        assert report.detail["n_flips"] == sum(
            len(v) for v in plan.seu_flips.values()
        )
        assert report.detail["n_flips"] > 0
        flops = {g.name for g in small_netlist.flops()}
        for targets in plan.seu_flips.values():
            assert set(targets) <= flops

    def test_seu_capture_plan_with_placement_reaches_latches(
        self, small_netlist, library
    ):
        from repro.retime import base_retime

        _, circuit = _prepared(small_netlist, library)
        result = base_retime(circuit, overhead=1.0)
        plan, _ = seu_capture_plan(
            small_netlist, cycles=512, rng=random.Random(3),
            placement=result.placement, rate=0.9,
        )
        targets = {t for v in plan.seu_flips.values() for t in v}
        assert any(t.startswith("latch:") for t in targets)

    def test_glitch_pulse_plan(self, small_netlist, library):
        scheme, _ = _prepared(small_netlist, library)
        plan, report = glitch_pulse_plan(
            small_netlist, scheme, cycles=64,
            rng=random.Random(5), rate=0.5,
        )
        assert report.kind == "glitch-pulse"
        assert report.detail["n_glitches"] > 0
        nets = {g.name for g in small_netlist.comb_gates()}
        for specs in plan.glitches.values():
            for spec in specs:
                assert spec.net in nets
                assert 0.0 <= spec.start <= scheme.period
                assert spec.width == report.detail["width"]

    def test_delay_corner_plan(self, small_netlist):
        plan, report = delay_corner_plan(
            small_netlist, random.Random(7), systematic=1.2, sigma=0.1
        )
        assert report.kind == "delay-corner"
        assert report.detail["n_gates"] == len(plan.delay_scale)
        assert set(plan.delay_scale) == {
            g.name for g in small_netlist.comb_gates()
        }
        assert min(plan.delay_scale.values()) > 0

    def test_plans_are_seed_deterministic(self, small_netlist, library):
        scheme, _ = _prepared(small_netlist, library)
        for build in (
            lambda r: seu_capture_plan(small_netlist, 32, r)[0],
            lambda r: glitch_pulse_plan(small_netlist, scheme, 32, r)[0],
            lambda r: delay_corner_plan(small_netlist, r)[0],
        ):
            assert build(random.Random(9)) == build(random.Random(9))

    def test_planned_faults_survive_simulation_typed(
        self, small_netlist, library
    ):
        """A planned upset either simulates (degraded output) or
        raises a typed SimulationError — never an unhandled crash."""
        from repro.retime import base_retime
        from repro.sim import estimate_error_rate

        scheme, circuit = _prepared(small_netlist, library)
        result = base_retime(circuit, overhead=1.0)
        edl = circuit.edl_endpoints(result.placement)
        plan, _ = glitch_pulse_plan(
            small_netlist, scheme, cycles=24,
            rng=random.Random(2), rate=0.5,
        )
        report = estimate_error_rate(
            circuit, result.placement, edl, cycles=24, injection=plan
        )
        assert 0.0 <= report.error_rate <= 100.0


def suite_failures(report):
    return report["failures"]


class TestCliErrors:
    def test_negative_overhead_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["run", "s1488", "--overhead", "-1"]) == 2
        assert "overhead" in capsys.readouterr().err

    def test_unknown_circuit_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["run", "does-not-exist"]) == 2
        assert capsys.readouterr().err

    def test_json_errors_emit_machine_readable(self, capsys):
        from repro.cli import main

        code = main(["--json-errors", "run", "s1488", "--overhead", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert payload["type"]

    def test_every_fault_kind_has_coverage(self):
        """Keep FAULT_KINDS and this test module in sync."""
        covered = {
            "corrupt-net",
            "truncated-bench",
            "nan-delay",
            "negative-delay",
            "infeasible-cut",
            "unbalanced-demands",
            "pivot-chaos",
            "seu-capture",
            "glitch-pulse",
            "delay-corner",
        }
        assert covered == set(FAULT_KINDS)
