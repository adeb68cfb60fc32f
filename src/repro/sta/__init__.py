"""Static timing analysis over gate-level netlists.

Provides the two delay models the paper compares (Table II):

* **gate-based** — every gate contributes its worst-case cell delay at
  a fixed reference load, as in the DAC'17 paper [16];
* **path-based** — per-pin arcs evaluated at the actual fanout load
  with propagated slew and only valid rise/fall combinations, matching
  what a commercial synthesis tool's timing engine reports.

The :class:`TimingEngine` answers the queries the retiming flows make:
forward arrivals ``D^f``, per-endpoint backward delays ``D^b(v, t)``,
endpoint arrival times and setup violations — and the hold side the
hold fixer reads: min arrivals, fastest-path tracing and hold
violations, cone-repaired by the same worklist.
"""

from repro.sta.loads import LoadModel
from repro.sta.delay_models import (
    DelayCalculator,
    FixedDelayCalculator,
    GateBasedCalculator,
    PathBasedCalculator,
    make_calculator,
)
from repro.sta.engine import TimingEngine
from repro.sta.paths import TimingPath, worst_path
from repro.sta.report import TimingReport, report_timing, report_worst_paths

__all__ = [
    "LoadModel",
    "DelayCalculator",
    "FixedDelayCalculator",
    "GateBasedCalculator",
    "PathBasedCalculator",
    "make_calculator",
    "TimingEngine",
    "TimingPath",
    "worst_path",
    "TimingReport",
    "report_timing",
    "report_worst_paths",
]
