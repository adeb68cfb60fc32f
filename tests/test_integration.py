"""End-to-end integration: one circuit through every surface at once."""

import pytest

from repro.harness import ExperimentSuite


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(circuits=["s1488"], error_rate_cycles=48)


class TestCrossTableConsistency:
    """The tables are views over the same memoized records; their
    numbers must agree with each other and with the raw records."""

    def test_table5_matches_outcomes(self, suite):
        table = suite.table5()
        row = table.row_for("s1488")
        index = table.headers.index("medium:grar")
        outcome = suite.outcome("s1488", "grar", 1.0)
        assert row[index] == pytest.approx(outcome.total_area, abs=0.1)

    def test_table4_plus_comb_equals_table5(self, suite):
        seq = suite.table4().row_for("s1488")
        total = suite.table5().row_for("s1488")
        headers4 = suite.table4().headers
        headers5 = suite.table5().headers
        outcome = suite.outcome("s1488", "base", 0.5)
        seq_value = seq[headers4.index("low:base")]
        total_value = total[headers5.index("low:base")]
        assert total_value - seq_value == pytest.approx(
            outcome.comb_area, abs=0.2
        )

    def test_table6_counts_match_cost(self, suite):
        table = suite.table6()
        for method, label in (("base", "Base"), ("grar", "G")):
            row = table.row_for("s1488")
            # row_for returns the first (Base) row; fetch by pair:
            row = next(
                r for r in table.rows if r[0] == "s1488" and r[1] == label
            )
            outcome = suite.outcome("s1488", method, 0.5)
            assert row[2] == outcome.n_slaves
            assert row[3] == outcome.n_edl

    def test_sequential_area_formula(self, suite):
        """seq area = (slaves + masters + c * EDL) * latch_area."""
        for method in ("base", "grar", "rvl"):
            for c in (0.5, 2.0):
                record = suite.outcome("s1488", method, c)
                expected = (
                    record.n_slaves + record.n_masters + c * record.n_edl
                ) * record.latch_area
                assert record.sequential_area == pytest.approx(expected)

    def test_edl_set_size_matches_count(self, suite):
        for method in ("base", "grar", "rvl", "evl", "nvl"):
            outcome = suite.outcome("s1488", method, 1.0)
            assert len(outcome.edl_endpoints) == outcome.n_edl

    def test_table2_path_column_equals_grar(self, suite):
        table = suite.table2()
        row = table.row_for("s1488")
        index = table.headers.index("high:path")
        outcome = suite.outcome("s1488", "grar", 2.0)
        assert row[index] == pytest.approx(outcome.total_area, abs=0.1)

    def test_all_tables_render(self, suite):
        for table in suite.all_tables():
            text = table.render()
            assert table.table_id in text
            assert len(text.splitlines()) >= 3

    def test_simulation_consistency_with_edl_sets(self, suite):
        """Non-EDL masters must be dynamically silent in the window
        for every approach (the designs are correct by construction):
        each record's final circuit, rebuilt from its recipe."""
        from repro.sim import estimate_error_rate

        for method in ("base", "grar", "rvl"):
            record = suite.outcome("s1488", method, 1.0)
            circuit = record.recipe.rebuild(
                suite.netlist("s1488"), suite.scheme("s1488"), suite.library
            )
            report = estimate_error_rate(
                circuit, record.placement, record.edl_endpoints, cycles=48
            )
            assert report.non_edl_violations == 0
