"""Synthesis-tool substrate.

Stands in for the size-only steps of the commercial logic-synthesis
tool the paper drives after retiming: one estimate-apply upsizing loop
behind two front ends (:func:`size_only_compile` on latch-aware
arrivals for a placement, :func:`speed_paths` on plain path delays, and
the cost-aware :func:`rescue_paths` on top of the latter), slack-driven
area recovery, and hold fixing by buffer insertion.  Timing reports,
the retiming command and the Table I clock recipe live with the flows
that use them (:mod:`repro.sta`, :mod:`repro.retime`,
:func:`repro.flows.prepare_circuit`).
"""

from repro.synth.hold_fix import HoldFixReport, fix_hold
from repro.synth.recovery import RecoveryReport, recover_area, required_times
from repro.synth.sizing import (
    RescueReport,
    SizingReport,
    rescue_paths,
    size_only_compile,
    speed_paths,
)

__all__ = [
    "HoldFixReport",
    "fix_hold",
    "RecoveryReport",
    "RescueReport",
    "SizingReport",
    "recover_area",
    "required_times",
    "rescue_paths",
    "size_only_compile",
    "speed_paths",
]
