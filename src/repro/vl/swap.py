"""Post-retiming latch-type fixes (Section V / VI-C).

Two directions:

* **required upgrades** — endpoints typed non-error-detecting whose
  post-retiming arrival still lands inside the resiliency window must
  become error-detecting (the paper "fix[es] timing violation after
  resynthesis by manually switching some non-error-detecting latches
  to error-detecting") — always applied, it is a correctness fix;
* **swap step** — endpoints typed error-detecting whose arrival now
  meets the extended non-EDL setup can be downgraded, reclaiming the
  ``c`` overhead.  This is the optional post-retiming step whose
  effect the paper quantifies (RVL high overhead: −0.36% → 9.6%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.latches.placement import SlavePlacement
from repro.latches.resilient import EPS, TwoPhaseCircuit


@dataclass
class SwapReport:
    """Masters upgraded/downgraded by the post-retiming swaps."""
    upgraded: List[str] = field(default_factory=list)
    downgraded: List[str] = field(default_factory=list)


def apply_required_upgrades(
    circuit: TwoPhaseCircuit,
    placement: SlavePlacement,
    types: Dict[str, bool],
    report: SwapReport,
) -> Dict[str, bool]:
    """Switch violating non-EDL masters to error-detecting."""
    window_open = circuit.scheme.window_open
    arrivals = circuit.endpoint_arrivals(placement)
    updated = dict(types)
    for endpoint, is_edl in types.items():
        if not is_edl and arrivals.get(endpoint, 0.0) > window_open + EPS:
            updated[endpoint] = True
            report.upgraded.append(endpoint)
    return updated


def swap_unnecessary_edl(
    circuit: TwoPhaseCircuit,
    placement: SlavePlacement,
    types: Dict[str, bool],
    report: SwapReport,
) -> Dict[str, bool]:
    """Downgrade error-detecting masters whose arrivals left the window.

    This models the observation that the synthesis tool "sometimes
    fails to actually swap the sequential cells if the resiliency
    window is avoided" — the swap happens here, outside the tool.
    """
    window_open = circuit.scheme.window_open
    arrivals = circuit.endpoint_arrivals(placement)
    updated = dict(types)
    for endpoint, is_edl in types.items():
        if is_edl and arrivals.get(endpoint, 0.0) <= window_open + EPS:
            updated[endpoint] = False
            report.downgraded.append(endpoint)
    return updated
