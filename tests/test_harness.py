"""Tests for the experiment harness and table rendering."""

import pytest

from repro.harness import ExperimentSuite, PAPER_TABLE1, TableResult, render_table
from repro.harness.paper import OVERHEAD_LEVELS, PAPER_AVERAGES


class TestTableResult:
    def test_render_alignment(self):
        table = TableResult("T", "demo", ["name", "value"])
        table.add_row("alpha", 1.234567)
        table.add_row("b", 22)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T: demo"
        assert "alpha" in text and "1.23" in text

    def test_column_and_row_access(self):
        table = TableResult("T", "demo", ["name", "value"])
        table.add_row("a", 1)
        table.add_row("b", 2)
        assert table.column("value") == [1, 2]
        assert table.row_for("b") == ["b", 2]
        with pytest.raises(KeyError):
            table.row_for("c")
        with pytest.raises(ValueError):
            table.column("nope")

    def test_notes_rendered(self):
        table = TableResult("T", "demo", ["x"])
        table.add_row(1)
        table.add_note("hello")
        assert "note: hello" in table.render()


class TestPaperRegistry:
    def test_table1_covers_suite(self):
        from repro.circuits import suite_names

        assert set(PAPER_TABLE1) == set(suite_names())

    def test_overhead_levels(self):
        assert OVERHEAD_LEVELS == {"low": 0.5, "medium": 1.0, "high": 2.0}

    def test_headline_averages_recorded(self):
        assert PAPER_AVERAGES["table5_grar_total"]["high"] == pytest.approx(
            14.73
        )
        assert PAPER_AVERAGES["table4_grar_seq"]["high"] == pytest.approx(
            29.62
        )


@pytest.fixture(scope="module")
def mini_suite():
    return ExperimentSuite(circuits=["s1196"], error_rate_cycles=32)


class TestExperimentSuite:
    def test_outcomes_memoized(self, mini_suite):
        a = mini_suite.outcome("s1196", "base", 1.0)
        b = mini_suite.outcome("s1196", "base", 1.0)
        assert a is b

    def test_table1_shape(self, mini_suite):
        table = mini_suite.table1()
        assert table.headers[0] == "circuit"
        assert len(table.rows) == 1
        assert table.rows[0][0] == "s1196"
        assert table.rows[0][2] == 32  # flop count

    def test_table5_has_improvement_columns(self, mini_suite):
        table = mini_suite.table5()
        assert "low:grar%" in table.headers
        assert len(table.rows) == 1
        assert table.notes

    def test_table6_three_approaches_per_circuit(self, mini_suite):
        table = mini_suite.table6()
        assert [row[1] for row in table.rows] == ["Base", "RVL", "G"]

    def test_table8_error_rates_bounded(self, mini_suite):
        table = mini_suite.table8()
        for row in table.rows:
            for value in row[1:]:
                assert 0.0 <= value <= 100.0

    def test_error_rate_memoized(self, mini_suite):
        first = mini_suite.error_rate("s1196", "base", 1.0)
        second = mini_suite.error_rate("s1196", "base", 1.0)
        assert first == second


class TestRemainingTables:
    def test_table2_structure(self, mini_suite):
        table = mini_suite.table2()
        assert "high:gate" in table.headers
        row = table.row_for("s1196")
        # gate and path columns are positive areas.
        assert all(v > 0 for v in row[1:] if not isinstance(v, str))

    def test_table3_structure(self, mini_suite):
        table = mini_suite.table3()
        assert "medium:EVL" in table.headers
        assert len(table.rows) == 1

    def test_table7_runtimes_positive(self, mini_suite):
        table = mini_suite.table7()
        for value in table.rows[0][1:]:
            assert value >= 0.0

    def test_table9_structure(self, mini_suite):
        table = mini_suite.table9()
        assert "low:diff%" in table.headers

    def test_flop_comparison_savings_defined(self, mini_suite):
        table = mini_suite.flop_comparison()
        assert "high:saving%" in table.headers
        # Flop-resilient estimate grows with overhead.
        headers = table.headers
        row = table.rows[0]
        low = row[headers.index("low:flop_res")]
        high = row[headers.index("high:flop_res")]
        assert high >= low


class TestCsvExport:
    def test_to_csv(self):
        table = TableResult("T", "demo", ["name", "value"])
        table.add_row("a", 1.5)
        csv_text = table.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "a,1.5"


class TestCIndependence:
    """c-independent methods derive non-canonical overheads by
    re-costing; the derivation must equal a real run."""

    def test_derived_equals_real_run(self, library):
        from repro.circuits import build_benchmark
        from repro.flows import run_flow

        suite = ExperimentSuite(circuits=["s1488"])
        derived = suite.outcome("s1488", "base", 2.0)
        real = run_flow(
            "base",
            suite.netlist("s1488"),
            library,
            2.0,
            scheme=suite.scheme("s1488"),
        )
        assert derived.n_slaves == real.n_slaves
        assert derived.n_edl == real.n_edl
        assert derived.edl_endpoints == real.edl_endpoints
        assert derived.placement == real.retiming.placement
        assert derived.sequential_area == pytest.approx(
            real.sequential_area
        )
        assert derived.total_area == pytest.approx(real.total_area)

    def test_grar_not_derived(self):
        suite = ExperimentSuite(circuits=["s1488"])
        low = suite.outcome("s1488", "grar", 0.5)
        high = suite.outcome("s1488", "grar", 2.0)
        assert low is not high
        assert low.overhead == 0.5 and high.overhead == 2.0
