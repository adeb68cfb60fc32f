"""Timing-fragility analysis: rank masters by slack under a placement.

Selective hardening (the scenario engine's third hardening policy,
next to uniform-``c`` G-RAR and the VL typings) needs to know *which*
masters are worth upgrading to error-detecting latches.  The natural
ranking is timing slack: a master whose eq. (5) arrival sits right at
the resiliency-window boundary flips on the smallest delay push —
variation corners, glitch-lengthened paths — while a master with fat
slack survives them all.  The arrivals come from the incremental STA
engine via :meth:`TwoPhaseCircuit.endpoint_arrivals`, so re-ranking
after a sizing change costs only the repaired cones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.latches.placement import SlavePlacement
from repro.latches.resilient import EPS, TwoPhaseCircuit


@dataclass(frozen=True)
class FragilityEntry:
    """One master's timing fragility under a placement."""

    endpoint: str
    #: Worst eq. (5) data arrival at the master.
    arrival: float
    #: ``window_open - arrival``: non-positive means the master's data
    #: can land inside the timing-resiliency window.
    slack: float


@dataclass(frozen=True)
class FragilityReport:
    """All masters ranked most-fragile first (ascending slack)."""

    circuit_name: str
    window_open: float
    entries: Tuple[FragilityEntry, ...]

    def fragile(self, threshold: Optional[float] = None) -> List[FragilityEntry]:
        """Entries whose arrival exceeds ``threshold`` (default: the
        window opening — the masters that *need* error detection)."""
        limit = self.window_open if threshold is None else threshold
        return [e for e in self.entries if e.arrival > limit + EPS]


def rank_fragility(
    circuit: TwoPhaseCircuit, placement: SlavePlacement
) -> FragilityReport:
    """Rank every master by slack against the window opening.

    Ties break on the endpoint name so the ranking — and everything
    the selective-hardening policy derives from it — is deterministic
    across runs and platforms.
    """
    window_open = circuit.scheme.window_open
    arrivals = circuit.endpoint_arrivals(placement)
    entries = [
        FragilityEntry(
            endpoint=name,
            arrival=arrival,
            slack=window_open - arrival,
        )
        for name, arrival in arrivals.items()
    ]
    entries.sort(key=lambda e: (e.slack, e.endpoint))
    return FragilityReport(
        circuit_name=circuit.netlist.name,
        window_open=window_open,
        entries=tuple(entries),
    )


def select_hardened(
    report: FragilityReport,
    fraction: float,
    threshold: Optional[float] = None,
) -> Set[str]:
    """The top ``fraction`` most fragile masters, as the EDL set.

    Only masters past ``threshold`` (default: the window opening) are
    candidates — hardening a master whose data can never reach the
    window buys nothing.  ``fraction`` of 1.0 hardens every candidate
    (uniform hardening of the fragile set); 0.0 hardens none and
    relies entirely on path speed-ups.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("harden fraction must be in [0, 1]")
    candidates = report.fragile(threshold)
    if not candidates or fraction == 0.0:
        return set()
    count = math.ceil(fraction * len(candidates))
    return {e.endpoint for e in candidates[:count]}
