"""Arena-backed drop-in timing engine for the STA queries.

:class:`ArenaTimingEngine` subclasses the object
:class:`~repro.sta.engine.TimingEngine` and replaces only its three
full-DP passes (scalar forward, rise/fall forward, backward-to-any)
with the vectorized arena kernels; every query method, the
event-driven cone repair, the per-endpoint backward scan and the
error taxonomy are inherited unchanged.  The result dicts the kernels
produce are bit-identical to the object DP (see
:mod:`repro.core.arena` for the parity argument), so the two engines
are interchangeable behind the ``--sta-engine`` switch exactly like
``--sta-mode`` and ``--sim-backend``.

Cache protocol:

* compile lazily on the first full DP, through the content-addressed
  arena LRU (``arena.compile.hits``/``misses`` counters);
* non-structural events (cell swaps) accumulate dirty gates and are
  applied as scoped delay patches — the pristine cached arena is
  never mutated;
* structural events and :meth:`invalidate` drop the arena; the next
  DP recompiles (a changed netlist hashes to a new cache key anyway).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.core.arena import NetlistArena, compile_arena
from repro.errors import TimingError
from repro.netlist.netlist import NetlistEvent
from repro.sta.delay_models import PathBasedCalculator
from repro.sta.engine import TimingEngine

#: Valid values of the ``--sta-engine`` switch.
STA_ENGINES = ("object", "arena")


class ArenaTimingEngine(TimingEngine):
    """The flat-array timing engine (bit-identical to the object one)."""

    def __init__(self, *args, **kwargs) -> None:
        # Must exist before super().__init__ subscribes to the netlist.
        self._arena_obj: Optional[NetlistArena] = None
        self._arena_dirty: Set[str] = set()
        super().__init__(*args, **kwargs)

    # -- arena lifecycle ----------------------------------------------

    def on_netlist_event(self, event: NetlistEvent) -> None:
        if event.structural:
            # Connectivity changed: the CSR layout is stale.
            self._arena_obj = None
            self._arena_dirty.clear()
        elif self._arena_obj is not None:
            self._arena_dirty |= event.dirty_gates(self.netlist)
        super().on_netlist_event(event)

    def invalidate(self) -> None:
        self._arena_obj = None
        self._arena_dirty.clear()
        super().invalidate()

    def _arena(self) -> NetlistArena:
        """The compiled arena, patched up to date with pending swaps."""
        if self._arena_obj is None:
            self._arena_obj = compile_arena(self.netlist, self.calculator)
            self._arena_dirty.clear()
        elif self._arena_dirty:
            dirty = self._arena_dirty
            self._arena_dirty = set()
            patched = self._arena_obj.with_patched_delays(
                self.netlist, self.calculator, dirty
            )
            if patched is None:
                self._arena_obj = compile_arena(
                    self.netlist, self.calculator
                )
            else:
                self._arena_obj = patched
        return self._arena_obj

    # -- vectorized full DPs ------------------------------------------

    def _compute_forward(self) -> Dict[str, float]:
        if isinstance(self.calculator, PathBasedCalculator):
            return self._compute_forward_rf()
        self._rise = None
        self._fall = None
        arena = self._arena()
        arr = arena.forward_scalar(self.source_offsets)
        return arena.forward_dict(arr)

    def _compute_forward_rf(self) -> Dict[str, float]:
        if not isinstance(self.calculator, PathBasedCalculator):
            raise TimingError(
                f"rise/fall forward DP needs a path-based calculator, "
                f"got {type(self.calculator).__name__}"
            )
        arena = self._arena()

        def fanin_lookup(name: str):
            return sorted(set(self.netlist[name].fanins))

        rise, fall = arena.forward_rf(self.source_offsets, fanin_lookup)
        # Keep the per-state dicts populated so the inherited cone
        # repair can re-seed from them after mutations.
        self._rise = arena.forward_dict(rise)
        self._fall = arena.forward_dict(fall)
        # Python's max(rise, fall) returns fall only when fall > rise
        # (NaN-asymmetric); np.where replicates that exactly.
        merged = np.where(fall > rise, fall, rise)
        return arena.forward_dict(merged)

    def _compute_backward_any(self) -> Dict[str, float]:
        arena = self._arena()
        return arena.full_dict(arena.backward_any())


def make_timing_engine(engine: str, *args, **kwargs) -> TimingEngine:
    """Factory behind ``--sta-engine``: ``"object"`` or ``"arena"``."""
    if engine == "object":
        return TimingEngine(*args, **kwargs)
    if engine == "arena":
        return ArenaTimingEngine(*args, **kwargs)
    raise ValueError(
        f"unknown sta engine {engine!r}; expected one of {STA_ENGINES}"
    )
