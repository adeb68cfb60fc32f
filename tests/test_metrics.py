"""Tests for the repro.metrics layer and its instrumentation hooks."""

import json

import pytest

from repro import metrics
from repro.errors import FlowStageError, stage_scope
from repro.sta import TimingEngine


class TestCollector:
    def test_counters_accumulate(self):
        collector = metrics.MetricsCollector()
        collector.count("x")
        collector.count("x", 2.5)
        assert collector.counters["x"] == 3.5

    def test_stage_records_wall_and_rss(self):
        collector = metrics.MetricsCollector()
        with collector.stage("work"):
            sum(range(1000))
        stats = collector.stages["work"]
        assert stats.calls == 1
        assert stats.wall_s >= 0.0
        assert stats.peak_rss_kb >= 0.0

    def test_stage_records_on_exception(self):
        collector = metrics.MetricsCollector()
        with pytest.raises(RuntimeError):
            with collector.stage("boom"):
                raise RuntimeError("x")
        assert collector.stages["boom"].calls == 1

    def test_merge_and_dict_round_trip(self):
        a = metrics.MetricsCollector()
        a.count("n", 2)
        with a.stage("s"):
            pass
        b = metrics.MetricsCollector()
        b.merge_dict(a.to_dict())
        b.merge(a)
        assert b.counters["n"] == 4
        assert b.stages["s"].calls == 2


class TestAmbient:
    def test_noop_without_collector(self):
        metrics.count("ignored")
        with metrics.stage_timer("ignored"):
            pass
        assert metrics.current() is None

    def test_collect_into_installs_and_restores(self):
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            assert metrics.current() is collector
            metrics.count("seen")
        assert metrics.current() is None
        assert collector.counters["seen"] == 1

    def test_stage_scope_feeds_ambient_collector(self):
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            with stage_scope("prepare"):
                pass
            with pytest.raises(FlowStageError):
                with stage_scope("retime"):
                    raise RuntimeError("boom")
        assert collector.stages["prepare"].calls == 1
        assert collector.stages["retime"].calls == 1


class TestTimingEngineCounters:
    def test_forward_cache_hit_miss(self, library, tiny_netlist):
        collector = metrics.MetricsCollector()
        engine = TimingEngine(tiny_netlist, library)
        with metrics.collect_into(collector):
            engine.forward_arrival("g1")
            engine.forward_arrival("g2")
            engine.forward_arrival("g3")
        assert collector.counters["sta.forward.compute"] == 1

    def test_backward_compute_once_per_endpoint(self, library, tiny_netlist):
        collector = metrics.MetricsCollector()
        engine = TimingEngine(tiny_netlist, library)
        endpoint = tiny_netlist.endpoints()[0].name
        with metrics.collect_into(collector):
            engine.backward_delay("g1", endpoint)
            engine.backward_delay("g2", endpoint)
        assert collector.counters["sta.backward_to.compute"] == 1

    def test_invalidate_counted(self, library, tiny_netlist):
        collector = metrics.MetricsCollector()
        engine = TimingEngine(tiny_netlist, library)
        with metrics.collect_into(collector):
            engine.invalidate()
        assert collector.counters["sta.invalidate"] == 1


class TestSolverCounters:
    def test_min_cost_flow_counts_backend(self):
        from fractions import Fraction

        from repro.retime.mincostflow import solve_min_cost_flow

        nodes = ["s", "t"]
        arcs = [("s", "t", 1)]
        demands = {"s": Fraction(-1), "t": Fraction(1)}
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            result = solve_min_cost_flow(nodes, arcs, demands)
        assert result.backend == "simplex"
        assert collector.counters["mcf.solves"] == 1
        assert collector.counters["mcf.solved.simplex"] == 1
        assert collector.counters["mcf.wall_s"] > 0


class TestBenchArtifacts:
    def test_write_bench_atomic_json(self, tmp_path):
        collector = metrics.MetricsCollector()
        collector.count("flow.runs", 2)
        payload = metrics.bench_report(collector, kind="suite", jobs=4)
        path = tmp_path / "BENCH_suite.json"
        metrics.write_bench(str(path), payload)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == metrics.BENCH_SCHEMA
        assert loaded["kind"] == "suite"
        assert loaded["jobs"] == 4
        assert loaded["counters"]["flow.runs"] == 2
        assert not path.with_suffix(".json.tmp").exists()

    def test_write_bench_uses_unique_tmp_names(self, tmp_path, monkeypatch):
        """Two processes writing one artifact used to race on the
        fixed ``{path}.tmp`` name; unique names embed the pid."""
        import os

        sources = []
        real_replace = os.replace

        def spy(src, dst):
            sources.append(str(src))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        path = tmp_path / "BENCH_suite.json"
        metrics.write_bench(str(path), {"schema": metrics.BENCH_SCHEMA})
        (src,) = sources
        assert src != f"{path}.tmp"
        assert src.startswith(str(path)) and str(os.getpid()) in src
        assert json.loads(path.read_text())["schema"] == metrics.BENCH_SCHEMA

    def test_flow_run_emits_stage_and_flow_counters(self, library):
        from repro.circuits import build_benchmark
        from repro.flows import prepare_circuit, run_flow

        netlist = build_benchmark("s1488", library)
        scheme, _ = prepare_circuit(netlist, library)
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            run_flow("base", netlist, library, 1.0, scheme=scheme)
        assert collector.counters["flow.runs"] == 1
        assert collector.counters["flow.method.base"] == 1
        for stage in ("prepare", "retime", "sizing", "finalize"):
            assert collector.stages[stage].calls >= 1
        assert collector.counters["mcf.solves"] >= 1


class TestValueStats:
    def test_record_value_aggregates(self):
        collector = metrics.MetricsCollector()
        for v in (2.0, 0.5, 1.0):
            collector.record_value("sim.wall_s", v)
        stats = collector.values["sim.wall_s"]
        assert stats.count == 3
        assert stats.total == 3.5
        assert stats.min == 0.5
        assert stats.max == 2.0
        assert stats.last == 1.0

    def test_ambient_record_value(self):
        collector = metrics.MetricsCollector()
        metrics.record_value("orphan", 9.0)  # no collector: no-op
        with metrics.collect_into(collector):
            metrics.record_value("x", 4.0)
        assert collector.values["x"].total == 4.0
        assert "orphan" not in collector.values

    def test_values_merge_and_roundtrip(self):
        a = metrics.MetricsCollector()
        b = metrics.MetricsCollector()
        a.record_value("w", 1.0)
        b.record_value("w", 3.0)
        b.record_value("w", 0.25)
        a.merge(b)
        assert a.values["w"].count == 3
        assert a.values["w"].min == 0.25
        assert a.values["w"].max == 3.0
        c = metrics.MetricsCollector()
        c.merge_dict(a.to_dict())
        assert c.values["w"].count == 3
        assert c.values["w"].total == a.values["w"].total

    def test_values_key_absent_when_unused(self):
        """Schema stability: old artifacts gain no key until recorded."""
        collector = metrics.MetricsCollector()
        collector.count("flow.runs")
        assert "values" not in collector.to_dict()
        collector.record_value("w", 1.0)
        assert "values" in collector.to_dict()

    def test_sim_wall_s_is_a_value_not_a_counter(self, library):
        from repro.circuits import build_benchmark
        from repro.flows import prepare_circuit
        from repro.latches import SlavePlacement
        from repro.sim import estimate_error_rate

        netlist = build_benchmark("s1488", library)
        _, circuit = prepare_circuit(netlist, library)
        edl = {g.name for g in circuit.netlist.endpoints()}
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            estimate_error_rate(
                circuit, SlavePlacement.initial(), edl, cycles=2
            )
        assert "sim.wall_s" not in collector.counters
        assert collector.values["sim.wall_s"].count == 1
        assert collector.counters["sim.cycles"] == 2
