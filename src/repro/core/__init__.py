"""Flat-array core: the CSR netlist arena and its vectorized timing engine.

See :mod:`repro.core.arena` for the representation and the bit-parity
contract, and :mod:`repro.core.engine` for the drop-in
:class:`~repro.sta.engine.TimingEngine` replacement behind the
``--sta-engine`` switch.  Only the max-delay DPs have an arena form;
min-delay (hold) analysis runs on the object
:class:`~repro.sta.min_delay.MinDelayAnalysis` alone.
"""

from repro.core.arena import (
    NetlistArena,
    arena_fingerprint,
    clear_arena_cache,
    compile_arena,
)
from repro.core.engine import (
    STA_ENGINES,
    ArenaTimingEngine,
    make_timing_engine,
)

__all__ = [
    "NetlistArena",
    "arena_fingerprint",
    "clear_arena_cache",
    "compile_arena",
    "STA_ENGINES",
    "ArenaTimingEngine",
    "make_timing_engine",
]
