"""Parallel experiment engine, memo-key, and checkpoint regressions.

Covers sequential-vs-parallel parity of results and of failures,
canonical-cell planning, batched checkpoints that settle as tasks
land, the config-stamped memo, and the memo-key bugfix: the old
``|``-joined key was not injective (a ``|`` in the method segment made
``rsplit("|", 2)`` mis-split), so two distinct cells could collide in
a resumed memo.
"""

import json
import math
import os
import random

import pytest

from repro import metrics
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.errors import ReproError, SimulationError
from repro.faults import corrupt_net
from repro.harness import ExperimentSuite, plan_cells, run_suite_parallel
from repro.harness.experiments import LEVELS, FailedOutcome, FlowRecord
from repro.harness.parallel import methods_for_tables
from repro.sim import estimate_error_rate_batched
from repro.store import MEMO_SCHEMA, decode_memo_cell_key, memo_cell_key


def _tiny_suite(
    library, memo_path=None, isolate=False, circuits=2, missing=(), **kw
):
    """``circuits`` generated circuits, then the ``missing`` names,
    which have no netlist and fail to prepare."""
    names = ["alpha", "bravo", "charlie"][:circuits]
    kw.setdefault("error_rate_cycles", 16)
    suite = ExperimentSuite(
        circuits=names + list(missing),
        library=library,
        isolate=isolate,
        memo_path=memo_path,
        **kw,
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


def _fail_bravo_simulations(patch):
    """Make every simulation of circuit ``bravo`` raise, whichever
    stage the estimator would run: sequential and ``--jobs`` cells
    both simulate through ``repro.harness.cell.simulate``."""

    def estimate(circuit, *args, **kwargs):
        if circuit.netlist.name == "bravo":
            raise SimulationError("injected lane failure")
        return estimate_error_rate_batched(circuit, *args, **kwargs)

    patch.setattr(
        "repro.harness.cell.estimate_error_rate_batched", estimate
    )


class TestMemoKeyEncoding:
    """Bugfix 3: memo keys must be injective and migration-safe."""

    ADVERSARIAL = [
        ("s1488", "base", 1.0),
        ("we|ird", "base", 0.5),
        ("a", "rvl|x", 1.0),  # legacy rsplit mis-split this one
        ("a|b", "c|d", 2.0),
        ("[json-looking", "grar", 1.0),
    ]

    @pytest.mark.parametrize("key", ADVERSARIAL)
    def test_round_trip(self, key):
        encoded = memo_cell_key(key)
        assert decode_memo_cell_key(encoded) == key

    def test_encoding_is_injective_over_adversarial_keys(self):
        encoded = {memo_cell_key(k) for k in self.ADVERSARIAL}
        assert len(encoded) == len(self.ADVERSARIAL)

    def test_new_keys_are_json_arrays(self):
        encoded = memo_cell_key(("s1488", "base", 1.0))
        assert encoded.startswith("[")
        assert json.loads(encoded) == ["s1488", "base", 1.0]

    def test_adversarial_cell_survives_checkpoint_resume(
        self, library, tmp_path
    ):
        """Public-API pin: pre-fix, resume decoded this cell as
        ``('a|rvl', 'x', 1.0)`` — a different (corrupt) key."""
        memo = str(tmp_path / "memo.json")
        key = ("a", "rvl|x", 1.0)
        record = FlowRecord(
            method="rvl|x", circuit_name="a", overhead=1.0,
            n_slaves=5, n_masters=3, n_edl=2, latch_area=1.5,
            comb_area=40.0, runtime_s=0.1,
        )
        suite = _tiny_suite(library, memo_path=memo)
        suite._outcomes[key] = record
        suite.checkpoint(force=True)
        resumed = _tiny_suite(library, memo_path=memo)
        assert key in resumed._outcomes
        assert ("a|rvl", "x", 1.0) not in resumed._outcomes

    def test_unstamped_memo_file_is_ignored(self, library, tmp_path):
        """A memo with no schema/config stamp (the pre-stamp suite
        format) cannot be checked against the run: its cells re-run
        and the next checkpoint rewrites the file stamped."""
        memo = str(tmp_path / "memo.json")
        record = FlowRecord(
            method="base", circuit_name="alpha", overhead=1.0,
            n_slaves=5, n_masters=3, n_edl=2, latch_area=1.5,
            comb_area=40.0, runtime_s=0.1, solver_backend="simplex",
        )
        key = memo_cell_key(("alpha", "base", 1.0))
        with open(memo, "w", encoding="utf-8") as stream:
            json.dump(
                {
                    "runs": {key: record.numbers()},
                    "error_rates": {key: 12.5},
                },
                stream,
            )
        suite = _tiny_suite(library, memo_path=memo)
        assert ("alpha", "base", 1.0) not in suite._outcomes
        assert ("alpha", "base", 1.0) not in suite._error_rates
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            suite.outcome("alpha", "base", 1.0)
        assert collector.counters.get("flow.runs") == 1
        assert suite.checkpoint(force=True)
        rewritten = json.loads(open(memo, encoding="utf-8").read())
        assert rewritten["schema"] == MEMO_SCHEMA
        assert rewritten["config"]["cycles"] == 16
        assert key in rewritten["entries"]


class TestCheckpointBatching:
    def test_unforced_checkpoints_batch(self, library, tmp_path):
        memo = str(tmp_path / "memo.json")
        suite = _tiny_suite(library)
        suite.memo_path = memo
        suite.checkpoint_every = 3
        assert not suite.checkpoint(force=False)
        assert not suite.checkpoint(force=False)
        assert not os.path.exists(memo)
        assert suite.checkpoint(force=False)
        assert os.path.exists(memo)

    def test_force_always_writes(self, library, tmp_path):
        memo = str(tmp_path / "memo.json")
        suite = _tiny_suite(library)
        suite.memo_path = memo
        suite.checkpoint_every = 100
        assert suite.checkpoint(force=True)
        assert os.path.exists(memo)

    def test_no_memo_path_is_a_noop(self, library):
        suite = _tiny_suite(library)
        assert not suite.checkpoint(force=True)


class TestMemoResume:
    def test_round_trip_with_recost_failure_and_error_rate(
        self, library, tmp_path
    ):
        memo = str(tmp_path / "memo.json")
        first = _tiny_suite(library, memo_path=memo, isolate=True)
        corrupt_net(first._netlists["bravo"], random.Random(0))

        base_area = first.outcome("alpha", "base", 2.0).total_area
        rate = first.error_rate("alpha", "base", 1.0)
        failed = first.outcome("bravo", "grar", 1.0)
        assert isinstance(failed, FailedOutcome)
        first.checkpoint(force=True)

        payload = json.loads(open(memo, encoding="utf-8").read())
        assert payload["schema"] == MEMO_SCHEMA
        entries = {
            decode_memo_cell_key(k): v for k, v in payload["entries"].items()
        }
        # The re-costed C_INDEPENDENT cell persists under its own key...
        assert entries[("alpha", "base", 2.0)]["run"]["overhead"] == 2.0
        assert entries[("alpha", "base", 1.0)]["error_rate"] == rate
        # ...and the failed cell is NOT resumable as a success.
        assert ("bravo", "grar", 1.0) not in entries
        assert first.failures

        resumed = _tiny_suite(library, memo_path=memo, isolate=True)
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            record = resumed.outcome("alpha", "base", 2.0)
            assert record.overhead == 2.0
            assert record.total_area == pytest.approx(base_area)
            assert resumed.error_rate(
                "alpha", "base", 1.0
            ) == pytest.approx(rate)
        # Resumed from disk, not re-run: no flow and no simulation.
        assert not collector.counters.get("flow.runs")
        assert not collector.counters.get("sim.batched.runs")
        # The failed cell re-runs on resume: this suite's bravo netlist
        # is healthy, so its G-RAR sweep runs and settles as records.
        with metrics.collect_into(collector):
            again = resumed.outcome("bravo", "grar", 1.0)
        assert collector.counters.get("flow.runs") == len(LEVELS)
        assert isinstance(again, FlowRecord)

    def test_resume_under_other_cycles_and_seed_resimulates(
        self, library, tmp_path
    ):
        """A memo written at one (cycles, seed) must not answer a run
        at another: the stale rate used to come back with zero
        simulations."""
        memo = str(tmp_path / "memo.json")
        first = _tiny_suite(library, memo_path=memo, circuits=1, sim_seed=1)
        first.error_rate("alpha", "base", 1.0)
        first.checkpoint(force=True)

        changed = dict(circuits=1, error_rate_cycles=64, sim_seed=7)
        resumed = _tiny_suite(library, memo_path=memo, **changed)
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            rate = resumed.error_rate("alpha", "base", 1.0)
        assert collector.counters.get("sim.batched.runs") == 1
        fresh = _tiny_suite(library, **changed)
        assert rate == fresh.error_rate("alpha", "base", 1.0)


class TestPlanCells:
    def test_c_independent_cells_are_canonical_only(self, library):
        suite = _tiny_suite(library)
        tasks = plan_cells(
            suite, methods=("base", "grar"), error_rates=False
        )
        base = [t for t in tasks if t.method == "base"]
        grar = [t for t in tasks if t.method == "grar"]
        assert {t.overhead for t in base} == {1.0}
        assert all(t.sweep == (1.0,) for t in base)
        # G-RAR ships one task per circuit covering the whole sweep, so
        # the worker's compiled problem and warm basis are reused.
        assert len(grar) == len(suite.circuit_names)
        sweep = tuple(c for _, c in LEVELS)
        assert all(t.sweep == sweep for t in grar)
        assert len({t.key for t in tasks}) == len(tasks)

    def test_grar_tasks_split_per_cell_with_cache_off(self, library):
        suite = _tiny_suite(library)
        suite.retime_cache = False
        tasks = plan_cells(suite, methods=("grar",), error_rates=False)
        assert all(len(t.sweep) == 1 for t in tasks)
        assert {t.overhead for t in tasks} == {c for _, c in LEVELS}

    def test_memoized_cells_are_skipped(self, library):
        suite = _tiny_suite(library)
        suite.retime_cache = False  # memoize 1.0 only, not the sweep
        suite.outcome("alpha", "grar", 1.0)
        suite.retime_cache = True
        tasks = plan_cells(suite, methods=("grar",), error_rates=False)
        covered = {
            (t.circuit, t.method, c) for t in tasks for c in t.sweep
        }
        assert ("alpha", "grar", 1.0) not in covered
        # The rest of alpha's sweep is still planned, minus the
        # memoized point.
        alpha = [t for t in tasks if t.circuit == "alpha"]
        assert len(alpha) == 1
        assert alpha[0].sweep == tuple(
            c for _, c in LEVELS if c != 1.0
        )

    def test_resumed_record_still_owes_its_error_rate(self, library):
        suite = _tiny_suite(library)
        record = suite.outcome("alpha", "base", 1.0)
        # As the memo resumes it: the numbers, with no recipe.
        suite._outcomes[("alpha", "base", 1.0)] = FlowRecord(
            **record.numbers()
        )
        tasks = plan_cells(suite, methods=("base",), error_rates=True)
        owed = [t for t in tasks if t.key == ("alpha", "base", 1.0)]
        assert len(owed) == 1 and owed[0].error_rate
        # Without a recipe to rebuild from, the rate re-runs the flow.
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            suite.error_rate("alpha", "base", 1.0)
        assert collector.counters.get("flow.runs") == 1
        assert collector.counters.get("sim.batched.runs") == 1
        assert not collector.counters.get("suite.rebuilds")

    def test_methods_for_tables_selection(self):
        methods, rates = methods_for_tables(None)
        assert "grar" in methods and rates
        methods, rates = methods_for_tables(["table ix"])
        assert methods == ("rvl", "rvl-movable") and not rates
        methods, rates = methods_for_tables(["table viii"])
        assert set(methods) == {"base", "rvl", "grar"} and rates


class TestParallelParity:
    """Tentpole acceptance: parallel results == sequential results."""

    #: Deterministic tables (areas, counts, error rates) — Table VII is
    #: wall-clock and can never be bit-identical between two runs.
    @staticmethod
    def _render_tables(suite):
        return {
            "iv": suite.table4().render(),
            "v": suite.table5().render(),
            "vi": suite.table6().render(),
            "viii": suite.table8().render(),
        }

    def test_parallel_tables_bit_identical_to_sequential(self, library):
        sequential = _tiny_suite(library)
        expected = self._render_tables(sequential)

        parallel = _tiny_suite(library)
        summary = run_suite_parallel(
            parallel,
            jobs=2,
            methods=("base", "rvl", "grar"),
            error_rates=True,
        )
        assert summary["n_cells"] > 0
        assert summary["n_failed"] == 0
        assert self._render_tables(parallel) == expected

    def test_single_worker_matches_too(self, library):
        """``jobs=1`` goes through the same runner, in one worker."""
        sequential = _tiny_suite(library, circuits=1)
        expected = sequential.table5().render()
        single = _tiny_suite(library, circuits=1)
        run_suite_parallel(
            single, jobs=1, methods=("base", "rvl", "grar"),
            error_rates=False,
        )
        assert single.table5().render() == expected

    def test_summary_shape(self, library):
        suite = _tiny_suite(library, circuits=1)
        summary = run_suite_parallel(
            suite, jobs=2, methods=("base",), error_rates=False
        )
        assert summary["jobs"] == 2
        assert summary["n_cells"] == 1
        assert summary["wall_s"] > 0
        assert summary["parallel_efficiency"] >= 0
        cell = summary["cells"][0]
        assert cell["circuit"] == "alpha" and cell["method"] == "base"
        assert cell["solver_backend"]


class TestParallelFailures:
    def test_isolated_failure_becomes_failed_cell(self, library):
        suite = _tiny_suite(library, isolate=True)
        corrupt_net(suite._netlists["bravo"], random.Random(0))
        run_suite_parallel(
            suite, jobs=2, methods=("base", "grar"), error_rates=False
        )
        assert suite.failures
        table = suite.table5()
        assert "FAILED" in table.render()
        rows = {row[0]: row for row in table.rows}
        assert all(math.isnan(v) for v in rows["bravo"][1:])

    def test_strict_failure_reraises_typed_error(self, library):
        suite = _tiny_suite(library, isolate=False)
        corrupt_net(suite._netlists["bravo"], random.Random(0))
        with pytest.raises(ReproError):
            run_suite_parallel(
                suite, jobs=2, methods=("grar",), error_rates=False
            )

    def test_planning_failures_are_listed_in_cell_order(self, library):
        """A circuit that cannot be prepared settles its failed cells
        while the tasks are planned; they are sorted with the rest."""
        suite = ExperimentSuite(
            circuits=["nosuch"], library=library, isolate=True
        )
        run_suite_parallel(
            suite, jobs=1, methods=("base", "rvl", "grar"),
            error_rates=False,
        )
        assert [(f.method, f.overhead) for f in suite.failures] == [
            ("base", 1.0),
            *(("grar", c) for c in sorted(c for _, c in LEVELS)),
            ("rvl", 1.0),
        ]

    def test_planning_failures_join_the_summary(self, library):
        """Cells settled as failed while planning ran no task, yet the
        summary counts and lists them."""
        suite = _tiny_suite(
            library, isolate=True, circuits=1, missing=["nosuch"]
        )
        summary = run_suite_parallel(
            suite, jobs=1, methods=("base",), error_rates=False
        )
        assert [
            (f.circuit_name, f.method, f.overhead) for f in suite.failures
        ] == [("nosuch", "base", 1.0)]
        assert summary["n_cells"] == 2
        assert summary["n_failed"] == 1
        failed = [cell for cell in summary["cells"] if cell["failed"]]
        assert [
            (cell["circuit"], cell["method"], cell["overhead"],
             cell["wall_s"])
            for cell in failed
        ] == [("nosuch", "base", 1.0, 0.0)]

    def test_failed_simulations_count_as_failed_cells(
        self, library, monkeypatch
    ):
        suite = _tiny_suite(library, isolate=True)
        _fail_bravo_simulations(monkeypatch)
        summary = run_suite_parallel(
            suite, jobs=2, methods=("base", "rvl", "grar"),
            error_rates=True,
        )
        assert len(suite.failures) == 5
        assert summary["n_failed"] == 5
        failed = sorted(
            (cell["circuit"], cell["method"], cell["overhead"])
            for cell in summary["cells"]
            if cell["failed"]
        )
        assert failed == [
            (f.circuit_name, f.method, f.overhead) for f in suite.failures
        ]

    def test_vi_d_alone_lists_the_failed_cells_like_the_sweep(
        self, library
    ):
        """Table VI-D pulls its G-RAR cells before the flop report, so a
        circuit that cannot be prepared lists the same failed cells
        sequentially as under ``run_suite_parallel``."""
        seen = []
        for jobs in (0, 2):
            suite = ExperimentSuite(
                circuits=["nosuch"], library=library, isolate=True
            )
            if jobs:
                methods, rates = methods_for_tables(["vi-d"])
                run_suite_parallel(
                    suite, jobs=jobs, methods=methods, error_rates=rates
                )
            rendered = suite.flop_comparison().render()
            failures = sorted(
                (f.circuit_name, f.method, f.overhead, f.stage)
                for f in suite.failures
            )
            seen.append((rendered, failures))
        assert seen[0][1] == [
            ("nosuch", "grar", c, "prepare") for _, c in LEVELS
        ]
        assert seen[0] == seen[1]


class TestFailureParity:
    """One cell path: the sequential tables and ``run_suite_parallel``
    at ``jobs=1`` and ``jobs=2`` fail alike — a flow or a simulation
    failure, in a strict or an isolated suite."""

    @staticmethod
    def _observe(library, monkeypatch, failure, isolate, executor):
        """What one executor does with a suite whose circuit ``bravo``
        fails: the raised error, or the failures and tables it ends
        with."""
        suite = _tiny_suite(library, isolate=isolate)
        with monkeypatch.context() as patch:
            if failure == "flow":
                corrupt_net(suite._netlists["bravo"], random.Random(0))
            else:
                _fail_bravo_simulations(patch)
            try:
                if executor != "sequential":
                    run_suite_parallel(
                        suite,
                        jobs=int(executor[len("jobs="):]),
                        methods=("base", "rvl", "grar"),
                        error_rates=True,
                    )
                tables = (suite.table4().render(), suite.table8().render())
            except ReproError as exc:
                return ("raised", type(exc), str(exc))
        failures = sorted(
            (f.circuit_name, f.method, f.overhead, f.stage,
             f.error.get("type"))
            for f in suite.failures
        )
        return ("settled", failures, tables)

    @pytest.mark.parametrize("executor", ["sequential", "jobs=1", "jobs=2"])
    @pytest.mark.parametrize("isolate", [True, False])
    @pytest.mark.parametrize("failure", ["flow", "simulate"])
    def test_failures_match_the_sequential_tables(
        self, library, monkeypatch, failure, isolate, executor
    ):
        expected = self._observe(
            library, monkeypatch, failure, isolate, "sequential"
        )
        if isolate:
            assert expected[0] == "settled"
            assert expected[1], "the injected failure never fired"
            assert "FAILED" in expected[2][1]
        else:
            assert expected[0] == "raised"
            assert issubclass(expected[1], ReproError)
            assert "[bravo/" in expected[2]
        if executor != "sequential":
            assert self._observe(
                library, monkeypatch, failure, isolate, executor
            ) == expected


class TestCliParallel:
    def test_jobs_and_bench_out(self, tmp_path, capsys):
        from repro.cli import main

        bench = str(tmp_path / "BENCH_suite.json")
        code = main(
            [
                "tables", "s1488",
                "--tables", "table ix",
                "--jobs", "2",
                "--cycles", "16",
                "--bench-out", bench,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table IX" in out
        report = json.loads(open(bench, encoding="utf-8").read())
        assert report["schema"] == "repro-bench/1"
        assert report["jobs"] == 2
        assert report["parallel"]["n_cells"] == 2
        assert report["counters"]["flow.runs"] >= 2
        assert "retime" in report["stages"]


# -- deadline-enforcing runner ----------------------------------------
#
# Worker functions live at module level so the spawn/fork pickling of
# multiprocessing always resolves them.

def _dl_ok(task):
    return task * 10


def _dl_crash(task):
    from repro.errors import FlowStageError

    if task == "boom":
        raise FlowStageError("deliberate crash", stage="drill")
    return task


def _dl_hang(task):
    import time as _time

    if task == "hang":
        _time.sleep(60.0)
    return task


def _dl_untyped(task):
    raise RuntimeError("not a ReproError")


def _dl_counting(task):
    from repro import metrics as _metrics
    from repro.errors import FlowStageError

    _metrics.count("drill.tasks")
    _metrics.count("drill.units", task)
    if task == 3:
        raise FlowStageError("counted, then crashed", stage="drill")
    return task


class TestDeadlineRunner:
    def test_plain_results_in_order(self):
        from repro.harness.parallel import run_tasks_with_deadline

        results = run_tasks_with_deadline(_dl_ok, [1, 2, 3], jobs=2)
        assert results == [10, 20, 30]

    def test_typed_crash_is_not_retried(self):
        from repro.harness.parallel import (
            TaskFailure,
            run_tasks_with_deadline,
        )

        results = run_tasks_with_deadline(
            _dl_crash, ["fine", "boom"], jobs=2
        )
        assert results[0] == "fine"
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 1
        assert failure.error["stage"] == "drill"
        err = failure.to_error()
        assert err.stage == "drill"
        assert err.payload["failure_kind"] == "crash"

    def test_untyped_crash_still_settles(self):
        from repro.harness.parallel import (
            TaskFailure,
            run_tasks_with_deadline,
        )

        (failure,) = run_tasks_with_deadline(_dl_untyped, ["x"], jobs=1)
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "crash"
        assert "not a ReproError" in failure.message

    def test_hang_killed_retried_then_failed(self):
        import time as _time

        from repro.errors import DeadlineError
        from repro.harness.parallel import (
            TaskFailure,
            run_tasks_with_deadline,
        )

        started = _time.perf_counter()
        results = run_tasks_with_deadline(
            _dl_hang, ["ok", "hang"], jobs=2,
            deadline_s=0.5, backoff_s=0.05,
        )
        wall = _time.perf_counter() - started
        assert results[0] == "ok"
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "deadline"
        assert failure.attempts == 2  # killed, retried once, killed
        assert isinstance(failure.to_error(), DeadlineError)
        assert wall < 30.0  # the 60 s sleep never ran to completion

    def test_on_result_sees_every_settlement(self):
        from repro.harness.parallel import run_tasks_with_deadline

        seen = {}
        run_tasks_with_deadline(
            _dl_crash, ["a", "boom", "b"], jobs=2,
            on_result=lambda index, outcome: seen.setdefault(
                index, outcome
            ),
        )
        assert set(seen) == {0, 1, 2}
        assert seen[0] == "a"
        assert seen[2] == "b"

    def test_worker_counters_reach_the_caller(self):
        from repro.harness.parallel import (
            TaskFailure,
            run_tasks_with_deadline,
        )

        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            results = run_tasks_with_deadline(
                _dl_counting, [1, 2, 3], jobs=2
            )
        assert results[:2] == [1, 2]
        assert isinstance(results[2], TaskFailure)
        # Ok and crashed workers alike report their counters.
        assert collector.counters["drill.tasks"] == 3
        assert collector.counters["drill.units"] == 6

    def test_deadline_validation(self):
        from repro.harness.parallel import run_tasks_with_deadline

        with pytest.raises(ValueError):
            run_tasks_with_deadline(_dl_ok, [1], deadline_s=0.0)


class TestSuiteDeadline:
    def test_hung_cell_becomes_failed_result(self, library, monkeypatch):
        """run_suite_parallel(deadline_s=...) routes through the
        killable runner: a hung cell settles as FAILED(DeadlineError)
        and the rest of the suite completes."""
        import repro.harness.parallel as par

        suite = _tiny_suite(library, isolate=True, circuits=2)
        original = par.run_cell

        def hang_bravo(task):
            if task.circuit == "bravo":
                import time as _time

                _time.sleep(60.0)
            return original(task)

        monkeypatch.setattr(par, "run_cell", hang_bravo)
        summary = par.run_suite_parallel(
            suite, jobs=2, methods=("base",), error_rates=False,
            deadline_s=2.0,
        )
        assert summary["n_cells"] >= 2
        assert suite.failures
        assert any(
            record.error.get("type") == "DeadlineError"
            and record.error["payload"]["failure_kind"] == "deadline"
            and record.error["payload"]["attempts"] == 2
            and record.circuit_name == "bravo"
            for record in suite.failures
        )
        # The healthy circuit still produced its row.
        table = suite.table5()
        assert "FAILED" in table.render()


class TestInterruptedSweep:
    def test_settled_cells_survive_an_interrupt(
        self, library, tmp_path, monkeypatch
    ):
        """Ctrl-C while the second task runs: the first task's cells
        are already in the memo, and a rerun resumes them."""
        import signal
        import time as _time

        import repro.harness.parallel as par

        memo = str(tmp_path / "memo.json")
        suite = _tiny_suite(library, memo_path=memo)
        original = par.run_cell
        parent = os.getpid()

        def interrupt_on_bravo(task):
            if task.circuit == "bravo":
                os.kill(parent, signal.SIGINT)
                _time.sleep(30.0)
            return original(task)

        monkeypatch.setattr(par, "run_cell", interrupt_on_bravo)
        with pytest.raises(KeyboardInterrupt):
            par.run_suite_parallel(
                suite, jobs=1, methods=("base",), error_rates=False,
                checkpoint_every=1,
            )
        monkeypatch.undo()
        payload = json.loads(open(memo, encoding="utf-8").read())
        assert [decode_memo_cell_key(k) for k in payload["entries"]] == [
            ("alpha", "base", 1.0)
        ]
        resumed = _tiny_suite(library, memo_path=memo)
        tasks = plan_cells(resumed, methods=("base",), error_rates=False)
        assert [t.key for t in tasks] == [("bravo", "base", 1.0)]
