"""Hold fixing by buffer insertion.

When a master is error-detecting, its sampling window extends ``phi1``
past the capturing edge, so next-cycle data racing through a short
path can corrupt it.  The standard fix — what a commercial tool's
``fix_hold`` does — pads the fast paths with buffers.  This engine
inserts the minimum buffers on each violating endpoint's fastest path
until the min-arrival bound holds (or the endpoint is declared
unfixable), re-running min-delay analysis between passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cells.library import Library
from repro.netlist.netlist import Gate, GateType, Netlist
from repro.sta.min_delay import MinDelayAnalysis


@dataclass
class HoldFixReport:
    """Outcome of a hold-fixing pass."""

    inserted: List[str] = field(default_factory=list)
    fixed_endpoints: List[str] = field(default_factory=list)
    unresolved: Dict[str, float] = field(default_factory=dict)
    area_delta: float = 0.0

    @property
    def n_buffers(self) -> int:
        """Number of buffers the pass added."""
        return len(self.inserted)


def _insert_buffer(
    netlist: Netlist,
    library: Library,
    driver: str,
    sink: str,
    name: str,
) -> None:
    """Splice a buffer into the ``driver -> sink`` connection.

    Only the targeted sink is rewired; the driver's other fanouts keep
    their direct connection (so max-delay impact stays local).
    """
    buffer_cell = library.pick_comb("BUF", 1).name
    netlist.add(
        Gate(name, GateType.COMB, (driver,), cell=buffer_cell)
    )
    netlist.rewire_fanin(sink, driver, name)


def fix_hold(
    netlist: Netlist,
    library: Library,
    required_min: float,
    endpoints: Optional[Set[str]] = None,
    max_buffers: int = 400,
) -> HoldFixReport:
    """Insert buffers until every endpoint's min arrival meets the bound.

    ``endpoints`` restricts the check (e.g. to error-detecting masters
    only — non-EDL masters never sample inside the window).
    """
    report = HoldFixReport()
    analysis = MinDelayAnalysis(netlist, library)
    buffer_cell = library.pick_comb("BUF", 1)
    counter = 0

    initial = set(analysis.hold_violations(required_min))
    if endpoints is not None:
        initial &= set(endpoints)

    while counter < max_buffers:
        violations = analysis.hold_violations(required_min)
        if endpoints is not None:
            violations = {
                k: v for k, v in violations.items() if k in endpoints
            }
        if not violations:
            break
        endpoint = max(violations, key=violations.get)
        path = analysis.trace_min_path(endpoint)
        # Pad right before the endpoint: least impact on shared logic.
        driver, sink = path[-2], path[-1]
        name = f"hold_buf{counter}"
        counter += 1
        # The add + rewire emit change events; the analysis repairs
        # only the spliced connection's cone before its next query.
        _insert_buffer(netlist, library, driver, sink, name)
        report.inserted.append(name)
        report.area_delta += buffer_cell.area

    final = analysis.hold_violations(required_min)
    if endpoints is not None:
        final = {k: v for k, v in final.items() if k in endpoints}
    report.unresolved = final
    report.fixed_endpoints = sorted(initial - set(final))
    return report
