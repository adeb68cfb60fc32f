"""Tests for the command-line interface."""

import json
import os

import pytest

from repro import metrics
from repro.cli import build_parser, main

S27 = os.path.join(os.path.dirname(__file__), "data", "s27.bench")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "s1196"])
        assert args.method == "grar"
        assert args.overhead == 1.0

    def test_method_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "s1196", "--method", "magic"])

    def test_run_circuit_is_optional(self):
        args = build_parser().parse_args(
            ["run", "--from-bench", "x.bench"]
        )
        assert args.circuit is None
        assert args.from_bench == "x.bench"

    def test_run_from_verilog(self):
        args = build_parser().parse_args(
            ["run", "--from-verilog", "x.v", "--guard", "strict"]
        )
        assert args.from_verilog == "x.v"
        assert args.guard == "strict"

    def test_tables_external_files_accumulate(self):
        args = build_parser().parse_args(
            ["tables", "s1196", "--from-bench", "a.bench",
             "--from-bench", "b.bench", "--from-verilog", "c.v"]
        )
        assert args.circuits == ["s1196"]
        assert args.from_bench == ["a.bench", "b.bench"]
        assert args.from_verilog == ["c.v"]

    def test_convert_defaults(self):
        args = build_parser().parse_args(["convert", "s27.bench"])
        assert args.netlist == "s27.bench"
        assert args.format == "auto"
        assert args.name is None
        assert not args.no_balance
        assert args.out is None

    def test_convert_format_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["convert", "x.bench", "--format", "edif"]
            )


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "s1196" in out and "plasma" in out

    def test_run(self, capsys):
        assert main(["run", "s1488", "--method", "base"]) == 0
        out = capsys.readouterr().out
        assert "base[s1488" in out

    def test_run_with_error_rate(self, capsys):
        assert main(
            ["run", "s1488", "--method", "grar", "--error-rate",
             "--cycles", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "error rate" in out

    def test_non_positive_cycles_is_usage_error(self, capsys):
        """run, tables and scenarios reject --cycles < 1 before any
        flow runs, as they do a negative --overhead."""
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            for argv in (
                ["run", "s1196", "--method", "base", "--error-rate",
                 "--cycles", "0"],
                ["tables", "s1196", "--tables", "table viii",
                 "--cycles", "0"],
                ["scenarios", "s1196", "--cycles", "-5"],
            ):
                assert main(argv) == 2
        assert "flow.runs" not in collector.counters
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("--cycles must be at least 1") == 3

    def test_tables_bench_out_counts_the_memo_load(self, tmp_path):
        """A warm --store rerun resumes every cell from the suite memo,
        and its bench artifact shows where the results came from."""
        store = str(tmp_path / "cas")
        bench = str(tmp_path / "BENCH_warm.json")
        argv = ["tables", "s1196", "--tables", "table ix",
                "--cycles", "16", "--store", store]
        assert main(argv) == 0
        assert main(argv + ["--bench-out", bench]) == 0
        with open(bench, encoding="utf-8") as handle:
            counters = json.load(handle)["counters"]
        assert counters["store.suite-memo.disk_hits"] == 1
        assert not counters.get("flow.runs")

    def test_tables_filtered(self, capsys):
        assert main(
            ["tables", "s1488", "--tables", "table i", "--cycles", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table V:" not in out

    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "Cut2" in out

    def test_tables_with_external_bench(self, capsys):
        assert main(
            ["tables", "--from-bench", S27, "--tables", "table iv"]
        ) == 0
        captured = capsys.readouterr()
        assert "s27" in captured.out
        assert "converted: s27" in captured.err
