"""Gate-level timed logic simulation and error-rate estimation.

The paper's Table VIII measures error rates with random-input
simulation: an error occurs in a cycle when the data at an
error-detecting master toggles inside the timing-resiliency window.
:class:`TimedSimulator` produces per-net transition waveforms under a
transport-delay model (per-pin delays from the same calculators STA
uses) and is the reference oracle; the default ``"compiled"``
backend compiles the cycle-invariant work once
(:class:`CompiledSimulator`) and runs every Monte-Carlo seed as a lane
of one array pass (:mod:`repro.sim.vector`).
:func:`estimate_error_rate_batched` drives either backend over a
slave-latch placement and counts window violations;
:func:`estimate_error_rate` is its single-seed form.
"""

from repro.sim.logicsim import (
    MAX_EVENTS_PER_NET,
    TimedSimulator,
    Waveform,
    apply_glitches,
)
from repro.sim.kernel import CompiledSimulator
from repro.sim.vectors import VectorSource, random_vectors
from repro.sim.errorrate import (
    SIM_BACKENDS,
    ErrorRateReport,
    estimate_error_rate,
)
from repro.sim.batch import estimate_error_rate_batched
from repro.sim.vcd import vcd_text, write_vcd

__all__ = [
    "MAX_EVENTS_PER_NET",
    "SIM_BACKENDS",
    "CompiledSimulator",
    "TimedSimulator",
    "Waveform",
    "apply_glitches",
    "VectorSource",
    "random_vectors",
    "ErrorRateReport",
    "estimate_error_rate",
    "estimate_error_rate_batched",
    "vcd_text",
    "write_vcd",
]
