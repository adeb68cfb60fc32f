"""Experiment harness: regenerates every table and figure of the paper."""

from repro.harness.tables import TableResult, render_table
from repro.harness.paper import PAPER_AVERAGES, PAPER_TABLE1
from repro.harness.cell import run_cell
from repro.harness.experiments import ExperimentSuite
from repro.harness.parallel import plan_cells, run_suite_parallel

__all__ = [
    "TableResult",
    "render_table",
    "PAPER_AVERAGES",
    "PAPER_TABLE1",
    "ExperimentSuite",
    "plan_cells",
    "run_cell",
    "run_suite_parallel",
]
