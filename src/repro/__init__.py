"""repro — retiming of two-phase latch-based resilient circuits.

A full reproduction of the DAC'17 paper (and its journal extension):
resiliency-aware min-area retiming of slave latches via a min-cost-flow
dual (G-RAR), the virtual-library alternative (VL-RAR), and the
evaluation harness that regenerates every table and figure.

Public API quick reference::

    from repro import (
        default_library,     # the synthetic 28nm-flavoured library
        build_benchmark,     # Table I circuit profiles (+ Plasma)
        prepare_circuit,     # flop netlist -> clock + two-phase view
        run_flow,            # "base" / "grar" / "rvl" / ... end to end
        estimate_error_rate, # Table VIII simulation
        ExperimentSuite,     # Tables I-IX drivers
        ReproError,          # root of the exception taxonomy
        GuardPolicy,         # inter-stage invariant checkpoints
    )
"""

from repro.cells import build_virtual_library, default_library
from repro.circuits import build_benchmark, suite_names
from repro.clocks import ClockScheme, scheme_from_period
from repro.errors import (
    FlowStageError,
    InvariantError,
    NetlistError,
    ReproError,
    SolverError,
    TimingError,
)
from repro.flows import FlowOutcome, METHODS, prepare_circuit, run_flow
from repro.guard import Guard, GuardPolicy
from repro.harness import ExperimentSuite
from repro.latches import SlavePlacement, TwoPhaseCircuit
from repro.netlist import Netlist, NetlistBuilder, parse_bench, validate
from repro.retime import base_retime, grar_retime
from repro.sim import estimate_error_rate, estimate_error_rate_batched
from repro.vl import VlVariant, vl_retime

__version__ = "1.0.0"

__all__ = [
    "ClockScheme",
    "ExperimentSuite",
    "FlowOutcome",
    "FlowStageError",
    "Guard",
    "GuardPolicy",
    "InvariantError",
    "METHODS",
    "NetlistError",
    "ReproError",
    "SolverError",
    "TimingError",
    "Netlist",
    "NetlistBuilder",
    "SlavePlacement",
    "TwoPhaseCircuit",
    "VlVariant",
    "base_retime",
    "build_benchmark",
    "build_virtual_library",
    "default_library",
    "estimate_error_rate",
    "estimate_error_rate_batched",
    "grar_retime",
    "parse_bench",
    "prepare_circuit",
    "run_flow",
    "scheme_from_period",
    "suite_names",
    "validate",
    "vl_retime",
    "__version__",
]
