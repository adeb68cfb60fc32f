"""Tests for the virtual-library flow."""

import pytest
from hypothesis import given, strategies as st

from repro.latches import SlavePlacement
from repro.retime import base_retime, compute_regions
from repro.retime.forced import forceable_gates
from repro.vl import (
    SwapReport,
    VlVariant,
    apply_required_upgrades,
    initial_types,
    swap_unnecessary_edl,
    vl_retime,
)
from tests.test_properties import SEEDS, SLOW, make_circuit


class TestInitialTypes:
    def test_evl_all_edl(self, fig4):
        types = initial_types(fig4, VlVariant.EVL)
        assert all(types.values())
        assert set(types) == {"O9", "O10"}

    def test_nvl_none_edl(self, fig4):
        types = initial_types(fig4, VlVariant.NVL)
        assert not any(types.values())

    def test_rvl_types_by_initial_arrival(self, fig4):
        """RVL judges criticality on the pre-retiming latch design:
        O9's initial arrival is 14 (> Pi = 10), O10's is 6."""
        types = initial_types(fig4, VlVariant.RVL)
        assert types["O9"] is True
        assert types["O10"] is False

    def test_initial_arrivals_used(self, fig4):
        arrivals = fig4.endpoint_arrivals(SlavePlacement.initial())
        # O9: window opening (5) + D^b(I1, O9) = 9 -> 14.
        assert arrivals["O9"] == pytest.approx(14.0)
        # O10: window opening (5) + D^b(I1, O10) = d(G3)+d(G4) -> 8.
        assert arrivals["O10"] == pytest.approx(8.0)


class TestSwaps:
    def test_upgrade_violating_non_edl(self, fig4):
        placement = SlavePlacement(retimed={"I1", "I2", "G3"})  # Cut1
        report = SwapReport()
        types = {"O9": False, "O10": False}
        updated = apply_required_upgrades(fig4, placement, types, report)
        assert updated["O9"] is True  # arrival 12 > 10
        assert updated["O10"] is False
        assert report.upgraded == ["O9"]

    def test_downgrade_unnecessary_edl(self, fig4):
        placement = SlavePlacement(
            retimed={"I1", "I2", "G3", "G4", "G5", "G6"}
        )  # Cut2
        report = SwapReport()
        types = {"O9": True, "O10": True}
        updated = swap_unnecessary_edl(fig4, placement, types, report)
        assert updated == {"O9": False, "O10": False}
        assert set(report.downgraded) == {"O9", "O10"}

    def test_swap_keeps_window_edl(self, fig4):
        placement = SlavePlacement(retimed={"I1", "I2", "G3"})  # Cut1
        report = SwapReport()
        types = {"O9": True, "O10": True}
        updated = swap_unnecessary_edl(fig4, placement, types, report)
        assert updated["O9"] is True  # still in the window
        assert updated["O10"] is False


class TestForceable:
    def test_fig4_forceable_excludes_vn_cones(self, fig4):
        regions = compute_regions(fig4)
        forceable = forceable_gates(fig4, regions)
        assert {"I1", "I2", "G3", "G4", "G5", "G6"} <= forceable
        assert "G7" not in forceable
        assert "G8" not in forceable


class TestVlRetime:
    def test_rvl_on_fig4(self, fig4):
        result = vl_retime(fig4, overhead=2.0, variant=VlVariant.RVL)
        report = fig4.check_legality(result.placement)
        assert report.ok
        assert result.method == "rvl-rar"

    def test_noswap_method_name(self, fig4):
        result = vl_retime(
            fig4, overhead=1.0, variant=VlVariant.RVL, post_swap=False
        )
        assert result.method.endswith("-noswap")

    def test_evl_types_all_edl_without_swap(self, fig4):
        result = vl_retime(
            fig4, overhead=1.0, variant=VlVariant.EVL, post_swap=False
        )
        assert result.edl_endpoints == {"O9", "O10"}

    def test_nvl_forced_cuts_rescue_o9(self, fig4):
        """NVL types O9 non-EDL; the forced g(O9) cut makes it true."""
        result = vl_retime(fig4, overhead=1.0, variant=VlVariant.NVL)
        assert not fig4.is_edl(result.placement, "O9")
        assert {"G5", "G6"} <= result.placement.retimed

    def test_explicit_types_respected(self, fig4):
        result = vl_retime(
            fig4,
            overhead=1.0,
            variant=VlVariant.RVL,
            types={"O9": True, "O10": True},
            post_swap=False,
        )
        assert result.edl_endpoints == {"O9", "O10"}

    def test_negative_overhead_rejected(self, fig4):
        with pytest.raises(ValueError):
            vl_retime(fig4, overhead=-0.5)

    def test_notes_populated(self, fig4):
        result = vl_retime(fig4, overhead=1.0, variant=VlVariant.NVL)
        assert "forced_gates" in result.notes
        assert int(result.notes["forced_gates"]) >= 2


def _assert_base_is_all_non_edl_vl(circuit, overhead):
    base = base_retime(circuit, overhead, retime_cache=False)
    vl = vl_retime(
        circuit,
        overhead,
        VlVariant.NVL,
        post_swap=False,
        types={m: False for m in circuit.endpoint_names},
    )
    assert base.placement == vl.placement
    assert base.objective == vl.objective
    assert base.notes["forced_gates"] == vl.notes["forced_gates"]
    assert base.notes["unmet_endpoints"] == vl.notes["dropped_constraints"]


class TestBaseIsAllNonEdlVl:
    """The base retimer is VL-RAR with every master typed non-EDL: both
    force the same cut sets into Vm and solve the same plain flow."""

    @pytest.mark.parametrize("overhead", [0.0, 0.5, 1.0, 2.0])
    def test_small_prepared(self, small_prepared, overhead):
        _assert_base_is_all_non_edl_vl(small_prepared[1], overhead)

    @given(SEEDS, st.sampled_from([0.5, 1.0, 2.0]))
    @SLOW
    def test_generated(self, seed, overhead):
        _assert_base_is_all_non_edl_vl(make_circuit(seed), overhead)
