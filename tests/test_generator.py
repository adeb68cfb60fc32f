"""Tests for the synthetic circuit generator and benchmark suite."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    BENCHMARK_PROFILES,
    CloudSpec,
    build_benchmark,
    generate_circuit,
    suite_names,
)
from repro.circuits.suite import SMALL_SUITE, SUITE_ORDER, scaled_profile
from repro.netlist import validate
from repro.netlist.validate import dangling_gates


class TestCloudSpec:
    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            CloudSpec("x", 1, 2, 2, 2, 50, depth=1)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            CloudSpec("x", 1, 2, 2, 2, 50, depth=5, critical_fraction=1.5)

    def test_rejects_no_flops(self):
        with pytest.raises(ValueError):
            CloudSpec("x", 1, 2, 2, 0, 50, depth=5)


class TestGenerator:
    def test_deterministic(self, small_spec, library):
        a = generate_circuit(small_spec, library)
        b = generate_circuit(small_spec, library)
        assert [(g.name, g.fanins, g.cell) for g in a] == [
            (g.name, g.fanins, g.cell) for g in b
        ]

    def test_structural_validity(self, small_netlist, library):
        validate(small_netlist, library)

    def test_counts_match_spec(self, small_netlist, small_spec):
        stats = small_netlist.stats()
        assert stats["inputs"] == small_spec.n_inputs
        assert stats["outputs"] == small_spec.n_outputs
        assert stats["flops"] == small_spec.n_flops
        assert stats["comb_gates"] >= 0.9 * small_spec.n_gates

    def test_no_dead_logic(self, small_netlist):
        alive = set()
        stack = [g.name for g in small_netlist.endpoints()]
        while stack:
            name = stack.pop()
            if name in alive:
                continue
            alive.add(name)
            stack.extend(small_netlist[name].fanins)
        dead = [
            g.name
            for g in small_netlist.comb_gates()
            if g.name not in alive
        ]
        assert dead == []
        assert dangling_gates(small_netlist) == []

    def test_drive_distribution_has_headroom(self, small_netlist, library):
        """Some gates must be above minimum size, or area recovery and
        the sizing ablations have nothing to trade."""
        drives = {
            library[g.cell].drive for g in small_netlist.comb_gates()
        }
        assert {1, 2} <= drives

    @given(
        seed=st.integers(min_value=1, max_value=50),
        flops=st.integers(min_value=2, max_value=8),
        depth=st.integers(min_value=2, max_value=10),
        fraction=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_specs_are_valid(
        self, library, seed, flops, depth, fraction
    ):
        spec = CloudSpec(
            name=f"h{seed}",
            seed=seed,
            n_inputs=3,
            n_outputs=3,
            n_flops=flops,
            n_gates=depth * 12,
            depth=depth,
            critical_fraction=fraction,
        )
        netlist = generate_circuit(spec, library)
        validate(netlist, library)
        assert len(netlist.flops()) == flops


class TestSuite:
    def test_every_paper_circuit_present(self):
        for name in (
            "s1196", "s1238", "s1423", "s1488", "s5378", "s9234",
            "s13207", "s15850", "s35932", "s38417", "s38584", "plasma",
        ):
            assert name in BENCHMARK_PROFILES

    def test_flop_counts_match_table1(self):
        expected = {
            "s1196": 32, "s1423": 91, "s5378": 198, "s13207": 502,
            "s35932": 1763, "s38584": 1271, "plasma": 1652,
        }
        for name, flops in expected.items():
            assert BENCHMARK_PROFILES[name].n_flops == flops

    def test_suite_names(self):
        assert suite_names() == SUITE_ORDER
        assert suite_names(small_only=True) == SMALL_SUITE

    def test_unknown_benchmark(self, library):
        with pytest.raises(KeyError):
            build_benchmark("s9999", library)

    def test_small_suite_builds(self, library):
        for name in SMALL_SUITE:
            netlist = build_benchmark(name, library)
            validate(netlist, library)
            profile = BENCHMARK_PROFILES[name]
            assert len(netlist.flops()) == profile.n_flops

    def test_s1196_nce_matches_paper(self, s1196, library):
        """The generator's criticality calibration: the paper's s1196
        has 6 near-critical endpoints."""
        from repro.flows import prepare_circuit
        from repro.latches.conversion import original_flop_report

        scheme, _ = prepare_circuit(s1196.copy(), library)
        report = original_flop_report(s1196, scheme, library)
        paper_nce = BENCHMARK_PROFILES["s1196"].paper_nce
        assert abs(report.n_near_critical - paper_nce) <= 3


class TestScaledBenchmarks:
    def test_scaled_profile_counts(self):
        base = BENCHMARK_PROFILES["s1196"]
        scaled = scaled_profile(base, 10)
        assert scaled.name == "s1196x10"
        assert scaled.n_gates == base.n_gates * 10
        assert scaled.n_flops == base.n_flops * 10
        assert scaled.depth == base.depth

    def test_scaled_build_is_deterministic(self, library):
        a = build_benchmark("s1196x2", library)
        b = build_benchmark("s1196x2", library)
        assert sorted(a.gates) == sorted(b.gates)
        assert len(a.gates) > len(build_benchmark("s1196", library).gates)

    def test_bad_scaled_names(self, library):
        with pytest.raises(KeyError):
            build_benchmark("nope_x10", library)
        with pytest.raises(ValueError, match="out of range"):
            build_benchmark("s1196x1", library)
        with pytest.raises(ValueError, match="out of range"):
            build_benchmark("s1196x101", library)
