"""The content-addressed artifact store and its fingerprint recipe.

Covers the cache-unification tentpole:

* one canonical fingerprint recipe (determinism, kind separation,
  content addressing — copies collide, edits miss);
* the two-tier store: LRU memory tier with per-namespace capacities
  and eviction counters, disk tier with atomic unique-tmp writes;
* torn/corrupted artifacts are detected, quarantined, and recomputed
  — never returned;
* concurrent multi-process writers on one store directory never
  produce a torn read;
* ``gc`` / ``stats`` / ``ls`` / ``clear`` bookkeeping;
* the suite-memo and scenario-memo namespaces resuming runs across
  suite instances, and the unique-tmp regression for the legacy
  fixed ``{path}.tmp`` race;
* the acceptance oracle: store-backed flows are bit-identical to
  store-off runs.
"""

import json
import multiprocessing
import os
import pickle

import pytest

from repro import metrics
from repro.cells import default_library
from repro.circuits.fig4 import fig4_netlist
from repro.flows import run_flow
from repro.harness import ExperimentSuite
from repro.scenarios.engine import run_scenarios
from repro.store import (
    ENGINE_VERSION,
    ArtifactStore,
    Fingerprint,
    StoreError,
    atomic_write_text,
    circuit_fingerprint,
    config_fingerprint,
    content_digest,
    decode_memo_cell_key,
    get_store,
    library_fingerprint,
    memo_cell_key,
    netlist_fingerprint,
    open_store,
    set_default_store,
    unique_tmp_name,
    use_store,
)

LIBRARY = default_library()


class TestFingerprint:
    def test_deterministic(self):
        a = Fingerprint("t").feed("x", 1).hexdigest()
        b = Fingerprint("t").feed("x", 1).hexdigest()
        assert a == b
        assert len(a) == 64

    def test_kind_separates(self):
        a = Fingerprint("a").feed("x").hexdigest()
        b = Fingerprint("b").feed("x").hexdigest()
        assert a != b

    def test_parts_are_terminated_not_concatenated(self):
        # ("ab", "c") must not collide with ("a", "bc").
        a = Fingerprint("t").feed("ab", "c").hexdigest()
        b = Fingerprint("t").feed("a", "bc").hexdigest()
        assert a != b

    def test_engine_version_salts_everything(self, monkeypatch):
        before = Fingerprint("t").feed("x").hexdigest()
        monkeypatch.setattr(
            "repro.store.fingerprint.ENGINE_VERSION",
            ENGINE_VERSION + "-next",
        )
        assert Fingerprint("t").feed("x").hexdigest() != before

    def test_content_digest_lengths(self):
        full = content_digest("hello")
        assert len(full) == 64
        assert content_digest("hello", 16) == full[:16]

    def test_netlist_copies_collide(self, small_netlist):
        assert netlist_fingerprint(small_netlist) == netlist_fingerprint(
            small_netlist.copy()
        )

    def test_different_netlists_miss(self, small_netlist, tiny_netlist):
        assert netlist_fingerprint(small_netlist) != netlist_fingerprint(
            tiny_netlist
        )

    def test_library_fingerprint_is_content_based(self):
        # Two independently constructed libraries with the same cells
        # are the same artifact — the fingerprint must not depend on
        # object identity (cross-process validity).
        a = default_library()
        b = default_library()
        assert a is not b
        assert library_fingerprint(a) == library_fingerprint(b)
        assert library_fingerprint(None) == library_fingerprint(None)
        assert library_fingerprint(a) != library_fingerprint(
            default_library(edl_overhead=2.0)
        )

    def test_circuit_fingerprint_conflict_policy(self, small_prepared):
        _, circuit = small_prepared
        assert circuit_fingerprint(circuit, "error") != circuit_fingerprint(
            circuit, "ignore"
        )

    def test_config_fingerprint_order_independent(self):
        a = config_fingerprint("k", {"x": 1, "y": 2})
        b = config_fingerprint("k", {"y": 2, "x": 1})
        assert a == b
        assert a != config_fingerprint("k", {"x": 1, "y": 3})

    def test_memo_cell_key_roundtrip(self):
        key = ("s1196", "grar", 0.5)
        assert decode_memo_cell_key(memo_cell_key(key)) == key

    def test_memo_cell_key_survives_pipes(self):
        key = ("a|b", "m", 1.0)
        assert decode_memo_cell_key(memo_cell_key(key)) == key


class TestMemoryTier:
    def test_miss_then_hit(self):
        store = ArtifactStore()
        assert store.get("ns", "k") is None
        store.put("ns", "k", 41)
        assert store.get("ns", "k") == 41

    def test_get_or_compute(self):
        store = ArtifactStore()
        calls = []
        value, was_hit = store.get_or_compute(
            "ns", "k", lambda: calls.append(1) or "v"
        )
        assert (value, was_hit) == ("v", False)
        value, was_hit = store.get_or_compute(
            "ns", "k", lambda: calls.append(1) or "v"
        )
        assert (value, was_hit) == ("v", True)
        assert len(calls) == 1

    def test_lru_eviction_order(self):
        store = ArtifactStore(capacity=2)
        store.put("ns", "a", 1)
        store.put("ns", "b", 2)
        store.get("ns", "a")  # refresh a; b is now least-recent
        store.put("ns", "c", 3)
        assert store.get("ns", "b") is None
        assert store.get("ns", "a") == 1
        assert store.get("ns", "c") == 3

    def test_per_namespace_capacity(self):
        store = ArtifactStore(capacity=2, capacities={"big": 4})
        assert store.capacity_of("ns") == 2
        assert store.capacity_of("big") == 4
        for i in range(4):
            store.put("big", f"k{i}", i)
        assert store.get("big", "k0") == 0  # nothing evicted

    def test_set_capacity_trims(self):
        store = ArtifactStore(capacity=8)
        for i in range(8):
            store.put("ns", f"k{i}", i)
        store.set_capacity("ns", 2)
        assert store.get("ns", "k0") is None
        assert store.get("ns", "k7") == 7

    def test_eviction_counter(self):
        collector = metrics.MetricsCollector()
        store = ArtifactStore(capacity=1)
        with metrics.collect_into(collector):
            store.put("ns", "a", 1)
            store.put("ns", "b", 2)
            store.put("ns", "c", 3)
        assert collector.counters["store.ns.evictions"] == 2

    def test_hit_miss_counters(self):
        collector = metrics.MetricsCollector()
        store = ArtifactStore()
        with metrics.collect_into(collector):
            store.get("ns", "k")
            store.put("ns", "k", 1)
            store.get("ns", "k")
        assert collector.counters["store.ns.misses"] == 1
        assert collector.counters["store.ns.hits"] == 1
        assert collector.counters["store.ns.mem_hits"] == 1

    def test_clear_memory_is_per_namespace(self):
        store = ArtifactStore()
        store.put("a", "k", 1)
        store.put("b", "k", 2)
        store.clear_memory("a")
        assert store.get("a", "k") is None
        assert store.get("b", "k") == 2


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        root = tmp_path / "cas"
        ArtifactStore(root).put("ns", "deadbeef", {"x": [1, 2]})
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            fresh = ArtifactStore(root)  # a second "process"
            assert fresh.get("ns", "deadbeef") == {"x": [1, 2]}
        assert collector.counters["store.ns.disk_hits"] == 1

    def test_artifact_format_self_describes(self, tmp_path):
        store = ArtifactStore(tmp_path / "cas")
        store.put("ns", "k", 7)
        (path,) = (tmp_path / "cas" / "ns").glob("*.art")
        raw = path.read_bytes()
        magic, digest, payload = raw.split(b"\n", 2)
        assert magic == b"repro-store/1"
        import hashlib

        assert hashlib.sha256(payload).hexdigest() == digest.decode()
        envelope = pickle.loads(payload)
        assert envelope["namespace"] == "ns"
        assert envelope["key"] == "k"
        assert envelope["value"] == 7

    def test_schema_stamp_mismatch_raises(self, tmp_path):
        root = tmp_path / "cas"
        ArtifactStore(root)
        stamp = root / "store.json"
        stamp.write_text(json.dumps({"schema": "repro-store/0"}))
        with pytest.raises(StoreError):
            ArtifactStore(root)

    def test_unsafe_namespace_and_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "cas")
        for bad in ("../evil", "a/b", "", ".hidden"):
            with pytest.raises(StoreError):
                store.put(bad, "k", 1)
            with pytest.raises(StoreError):
                store.put("ns", bad, 1)

    def test_unpicklable_value_stays_in_memory(self, tmp_path):
        collector = metrics.MetricsCollector()
        store = ArtifactStore(tmp_path / "cas")
        with metrics.collect_into(collector):
            store.put("ns", "k", lambda: None)
        assert collector.counters["store.ns.unpicklable"] == 1
        assert store.get("ns", "k") is not None  # memory tier kept it
        assert not list((tmp_path / "cas" / "ns").glob("*.art"))

    def test_memory_only_put(self, tmp_path):
        store = ArtifactStore(tmp_path / "cas")
        store.put("ns", "k", 1, persist=False)
        assert not (tmp_path / "cas" / "ns").exists()
        assert store.get("ns", "k") == 1


class TestCorruption:
    def _single_artifact(self, root):
        (path,) = (root / "ns").glob("*.art")
        return path

    def test_truncated_artifact_is_quarantined(self, tmp_path):
        root = tmp_path / "cas"
        ArtifactStore(root).put("ns", "k", list(range(100)))
        path = self._single_artifact(root)
        path.write_bytes(path.read_bytes()[:-10])  # torn write
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            fresh = ArtifactStore(root)
            assert fresh.get("ns", "k", default="MISS") == "MISS"
        assert collector.counters["store.ns.corrupt"] == 1
        assert not path.exists()  # moved out of the namespace dir
        assert list((root / "quarantine").iterdir())

    def test_garbage_artifact_is_quarantined(self, tmp_path):
        root = tmp_path / "cas"
        store = ArtifactStore(root)
        store.put("ns", "k", 1)
        self._single_artifact(root).write_bytes(b"not an artifact")
        fresh = ArtifactStore(root)
        assert fresh.get("ns", "k") is None

    def test_corrupt_artifact_is_recomputed(self, tmp_path):
        root = tmp_path / "cas"
        ArtifactStore(root).put("ns", "k", "good")
        self._single_artifact(root).write_bytes(b"repro-store/1\nxx\nyy")
        fresh = ArtifactStore(root)
        value, was_hit = fresh.get_or_compute("ns", "k", lambda: "good")
        assert (value, was_hit) == ("good", False)
        # The recompute re-wrote a valid artifact.
        third = ArtifactStore(root)
        assert third.get("ns", "k") == "good"

    def test_wrong_envelope_key_rejected(self, tmp_path):
        # An artifact renamed to another key must not serve it.
        root = tmp_path / "cas"
        store = ArtifactStore(root)
        store.put("ns", "aaaa", 1)
        path = self._single_artifact(root)
        path.rename(path.with_name("bbbb.art"))
        fresh = ArtifactStore(root)
        assert fresh.get("ns", "bbbb") is None


class TestAtomicWrites:
    def test_unique_tmp_names_embed_pid(self, tmp_path):
        target = str(tmp_path / "out.json")
        names = {unique_tmp_name(target) for _ in range(8)}
        assert len(names) == 8  # never the fixed "{path}.tmp"
        for name in names:
            assert str(os.getpid()) in name
            assert name.endswith(".tmp")

    def test_atomic_write_text(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(str(target), "hello")
        assert target.read_text() == "hello"
        assert list(tmp_path.iterdir()) == [target]  # no stray tmp


def _hammer_writer(root, worker):
    """Write one key repeatedly; payload varies per worker/iteration."""
    store = ArtifactStore(root)
    for i in range(30):
        store.put("ns", "contended", {"worker": worker, "i": i, "pad": "x" * 4096})


class TestConcurrentWriters:
    def test_parallel_writers_never_produce_torn_reads(self, tmp_path):
        root = str(tmp_path / "cas")
        ArtifactStore(root).put(
            "ns", "contended", {"worker": -1, "i": -1, "pad": "x" * 4096}
        )
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_writer, args=(root, w))
            for w in range(4)
        ]
        for proc in procs:
            proc.start()
        # Read concurrently with the writers: every read must decode
        # to some writer's complete payload — old or new, never torn.
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            while any(proc.is_alive() for proc in procs):
                fresh = ArtifactStore(root)
                value = fresh.get("ns", "contended")
                assert value is not None
                assert value["pad"] == "x" * 4096
        for proc in procs:
            proc.join()
            assert proc.exitcode == 0
        assert not collector.counters.get("store.ns.corrupt")
        # No stray tmp files once every writer exited cleanly.
        assert not list((tmp_path / "cas" / "ns").glob("*.tmp"))


class TestMaintenance:
    def test_ls_stats_clear(self, tmp_path):
        store = ArtifactStore(tmp_path / "cas")
        store.put("a", "k1", 1)
        store.put("a", "k2", 2)
        store.put("b", "k1", 3)
        rows = store.ls()
        assert {(r["namespace"], r["key"]) for r in rows} == {
            ("a", "k1"), ("a", "k2"), ("b", "k1"),
        }
        stats = store.stats()
        assert stats["schema"] == "repro-store/1"
        assert stats["disk"]["a"]["artifacts"] == 2
        assert stats["disk_bytes"] > 0
        assert store.clear("a") == {"removed": 2}
        assert store.ls("a") == []
        assert store.get("b", "k1") == 3

    def test_gc_max_age(self, tmp_path):
        store = ArtifactStore(tmp_path / "cas")
        store.put("ns", "old", 1)
        path = next((tmp_path / "cas" / "ns").glob("*.art"))
        ancient = path.stat().st_mtime - 10_000
        os.utime(path, (ancient, ancient))
        store.put("ns", "new", 2)
        result = store.gc(max_age_s=3600)
        assert result["removed"] == 1
        assert [r["key"] for r in store.ls()] == ["new"]

    def test_gc_max_bytes_evicts_oldest_first(self, tmp_path):
        store = ArtifactStore(tmp_path / "cas")
        for i in range(4):
            store.put("ns", f"k{i}", "x" * 1000)
            path = next((tmp_path / "cas" / "ns").glob(f"k{i}.art"))
            stamp = 1_000_000 + i
            os.utime(path, (stamp, stamp))
        total = sum(r["bytes"] for r in store.ls())
        result = store.gc(max_bytes=total // 2)
        assert result["remaining_bytes"] <= total // 2
        survivors = {r["key"] for r in store.ls()}
        assert "k3" in survivors and "k0" not in survivors

    def test_gc_sweeps_quarantine(self, tmp_path):
        root = tmp_path / "cas"
        ArtifactStore(root).put("ns", "k", 1)
        path = next((root / "ns").glob("*.art"))
        path.write_bytes(b"garbage")
        ArtifactStore(root).get("ns", "k")  # quarantines
        assert list((root / "quarantine").iterdir())
        ArtifactStore(root).gc()
        assert not list((root / "quarantine").iterdir())


class TestAmbientStore:
    def test_use_store_scopes_the_active_store(self, tmp_path):
        scoped = ArtifactStore(tmp_path / "cas")
        default = get_store()
        with use_store(scoped):
            assert get_store() is scoped
        assert get_store() is default

    def test_open_store_pass_through(self, tmp_path):
        assert open_store(None) is None
        store = ArtifactStore(tmp_path / "cas")
        assert open_store(store) is store
        opened = open_store(str(tmp_path / "cas"), capacity=3)
        assert opened.persistent
        assert opened.capacity_of("ns") == 3

    def test_set_default_store_restores(self):
        replacement = ArtifactStore()
        previous = set_default_store(replacement)
        try:
            assert get_store() is replacement
        finally:
            set_default_store(previous)


class TestFlowIntegration:
    def test_store_off_is_bit_identical(self, tmp_path):
        netlist = fig4_netlist()
        with use_store(ArtifactStore(tmp_path / "cas")):
            stored = run_flow("grar", netlist.copy(), LIBRARY, 1.0)
        with use_store(ArtifactStore()):
            plain = run_flow("grar", netlist.copy(), LIBRARY, 1.0)
        assert stored.total_area == plain.total_area
        assert stored.cost.n_slaves == plain.cost.n_slaves
        assert stored.cost.n_edl == plain.cost.n_edl

    def test_compiled_problem_served_from_disk(self, tmp_path):
        netlist = fig4_netlist()
        run_flow("grar", netlist.copy(), LIBRARY, 1.0,
                 store=str(tmp_path / "cas"))
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            # A fresh store instance on the same root models a new
            # process: only the disk tier can serve it.
            run_flow("grar", netlist.copy(), LIBRARY, 1.0,
                     store=str(tmp_path / "cas"))
        assert collector.counters["store.compiled-grar.disk_hits"] >= 1
        assert not collector.counters.get("retime.compile.misses")


class TestSuiteMemoNamespace:
    def test_suites_resume_each_other_via_store(self, tmp_path):
        store_dir = str(tmp_path / "cas")
        first = ExperimentSuite(
            circuits=["s1196"], error_rate_cycles=16, store=store_dir
        )
        first.outcome("s1196", "base", 1.0)
        first.checkpoint(force=True)
        second = ExperimentSuite(
            circuits=["s1196"], error_rate_cycles=16, store=store_dir
        )
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            resumed = second.outcome("s1196", "base", 1.0)
        # Resumed from the store's memo, not re-run: no flow ran.
        assert not collector.counters.get("flow.runs")
        assert resumed.total_area == pytest.approx(
            first.outcome("s1196", "base", 1.0).total_area
        )

    def test_config_mismatch_gets_fresh_memo(self, tmp_path):
        store_dir = str(tmp_path / "cas")
        first = ExperimentSuite(
            circuits=["s1196"], error_rate_cycles=16, store=store_dir
        )
        first.outcome("s1196", "base", 1.0)
        first.checkpoint(force=True)
        other = ExperimentSuite(
            circuits=["s1196"], error_rate_cycles=32, store=store_dir
        )
        assert ("s1196", "base", 1.0) not in other._outcomes

    def test_memory_only_store_never_carries_the_memo(self):
        """A memory-only store is no memo target: it would only alias
        one suite's runs into the next in-process suite."""
        shared = ArtifactStore()
        first = ExperimentSuite(
            circuits=["s1196"], error_rate_cycles=16, store=shared
        )
        first.outcome("s1196", "base", 1.0)
        assert not first.checkpoint(force=True)
        assert not shared.memory_values("suite-memo")
        second = ExperimentSuite(
            circuits=["s1196"], error_rate_cycles=16, store=shared
        )
        assert ("s1196", "base", 1.0) not in second._outcomes

    def test_checkpoint_uses_unique_tmp_names(self, tmp_path, monkeypatch):
        sources = []
        real_replace = os.replace

        def spy(src, dst):
            sources.append(str(src))
            return real_replace(src, dst)

        monkeypatch.setattr("repro.store.store.os.replace", spy)
        memo = str(tmp_path / "memo.json")
        suite = ExperimentSuite(
            circuits=["s1196"], error_rate_cycles=16, memo_path=memo
        )
        suite.outcome("s1196", "base", 1.0)
        suite.checkpoint(force=True)
        memo_sources = [s for s in sources if s.startswith(memo)]
        assert memo_sources
        for src in memo_sources:
            # The legacy fixed "{path}.tmp" name collides across
            # concurrent suites; unique names embed the pid.
            assert src != memo + ".tmp"
            assert str(os.getpid()) in src


class TestScenarioMemoNamespace:
    def _matrix(self, tmp_path, **overrides):
        kwargs = dict(
            corners=("nominal",),
            upsets=("seu",),
            policies=("grar",),
            cycles=16,
            seed=13,
            store=str(tmp_path / "cas"),
        )
        kwargs.update(overrides)
        return run_scenarios(
            [("fig4", fig4_netlist())], LIBRARY, **kwargs
        )

    def test_second_sweep_resumes_from_store(self, tmp_path):
        first = self._matrix(tmp_path)
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            second = self._matrix(tmp_path)
        assert collector.counters["scenarios.memo_hits"] == 1
        assert second.to_json() == first.to_json()

    def test_config_mismatch_reruns(self, tmp_path):
        self._matrix(tmp_path)
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            self._matrix(tmp_path, seed=14)
        assert not collector.counters.get("scenarios.memo_hits")
