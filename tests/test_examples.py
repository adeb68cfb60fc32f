"""Smoke tests: every example script must run end to end."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    saved = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = saved


def test_quickstart(capsys):
    run_example("quickstart.py", ["s1196", "1.0"])
    out = capsys.readouterr().out
    assert "grar" in out and "base" in out
    assert "vs base" in out


def test_worked_example(capsys):
    run_example("worked_example.py")
    out = capsys.readouterr().out
    assert "g(O9) -> target" in out
    assert "['G5', 'G6']" in out
    assert "Cut2" in out


def test_clocking_diagram(capsys):
    run_example("clocking_diagram.py", ["1.0"])
    out = capsys.readouterr().out
    assert "clk1" in out and "clk2" in out
    assert "constraint (6)" in out


def test_custom_circuit(capsys):
    run_example("custom_circuit.py")
    out = capsys.readouterr().out
    assert "G-RAR" in out
    assert "error rate" in out
    assert "0 non-EDL violations" in out


def test_full_suite_single_circuit(capsys):
    run_example("full_suite.py", ["s1196"])
    out = capsys.readouterr().out
    assert "Table V" in out and "Table VIII" in out


def test_hold_margins(capsys):
    run_example("hold_margins.py", ["s1488"])
    out = capsys.readouterr().out
    assert "hold margin" in out
    assert "shortest master-to-master path: 0.0471" in out
    assert "buffers inserted to fix: 104 (+101.9 area)" in out


def test_error_rate_tradeoff_example(capsys):
    run_example("error_rate_tradeoff.py", ["s1488", "1.0"])
    out = capsys.readouterr().out
    assert "rescue-budget sweep" in out
