"""Area recovery: slack-driven downsizing against per-master limits.

Commercial compiles reclaim area wherever timing allows: gates are
downsized (or swapped back to standard Vt) until arrivals approach
their constraints.  For resilient designs this pass is double-edged —
and reproducing that edge is the point:

* under the **base** and **G-RAR** flows, masters that meet ``Pi``
  keep ``Pi`` as their limit, so recovery cannot push them into the
  resiliency window;
* under a **virtual-library** flow the limits come from the latch
  *types*: an error-detecting master's relaxed setup lets recovery
  drift its whole fan-in cone toward the window close — after which
  the post-retiming swap finds nothing to downgrade.  This is how EVL
  ends up keeping nearly all its error-detecting latches (Table III's
  blow-up at high overhead) even though the swap step runs.

The pass computes placement-aware required times (latch edges decouple
the pre-latch segment: its requirement is the slave-close constraint
(6) and the launch budget ``L - d_q``), then greedily downsizes gates
whose slack covers the estimated delay increase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.cells.cell import CombCell
from repro.latches.placement import SlavePlacement
from repro.latches.resilient import EPS, TwoPhaseCircuit
from repro.synth.memo import memoized
from repro.synth.sizing import size_only_compile

INF = float("inf")


@dataclass
class RecoveryReport:
    """Outcome of one area-recovery pass."""

    resized: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    passes: int = 0
    area_saved: float = 0.0

    @property
    def n_resized(self) -> int:
        """Number of gates the pass downsized."""
        return len(self.resized)


def required_times(
    circuit: TwoPhaseCircuit,
    placement: SlavePlacement,
    limits: Mapping[str, float],
) -> Dict[str, float]:
    """Placement-aware required time at every gate output.

    ``limits`` maps endpoints to their latest allowed arrival.  On a
    latched edge the driver's requirement becomes
    ``min(forward_limit, launch_budget - d_q)`` — constraint (6) plus
    the transparency-launch budget of eq. (5).
    """
    netlist = circuit.netlist
    fwd_limit = circuit.scheme.forward_limit
    d_q = circuit.latch_d_q
    endpoint_set = set(circuit.endpoint_names)

    req: Dict[str, float] = {}
    for name in reversed(netlist.topo_order()):
        gate = netlist[name]
        if gate.gtype.value == "output":
            continue
        best = INF
        for user in netlist.fanouts(name):
            user_gate = netlist[user]
            if user in endpoint_set and not user_gate.is_comb:
                downstream = limits.get(user, INF)
            elif user_gate.is_comb:
                downstream = req.get(user, INF) - circuit.edge_delay(
                    name, user
                )
            else:
                continue
            if placement.edge_weight_after(netlist, name, user) == 1:
                downstream = min(fwd_limit, downstream - d_q)
            best = min(best, downstream)
        req[name] = best
    return req


def _downsize_candidates(
    circuit: TwoPhaseCircuit, cell: CombCell
) -> List[CombCell]:
    """Weaker/standard-Vt alternatives for a cell, if any."""
    library = circuit.library
    options: List[CombCell] = []
    variants = library.drive_variants(cell)
    weaker = [v for v in variants if v.drive < cell.drive]
    if weaker:
        options.append(weaker[-1])  # next step down
    if cell.vt == "lvt":
        svt = library.vt_variant(cell, "svt")
        if svt is not None:
            options.append(svt)
    return options


def recover_area(
    circuit: TwoPhaseCircuit,
    placement: SlavePlacement,
    limits: Mapping[str, float],
    max_passes: int = 4,
    slack_share: float = 0.45,
) -> RecoveryReport:
    """Downsize gates whose slack against ``limits`` allows it.

    A repeat of an earlier run's input replays its outcome, the
    safety net's swaps included (:mod:`repro.synth.memo`).
    """
    return memoized(
        "recover_area", circuit, placement.retimed, limits,
        (max_passes, slack_share),
        lambda: _recover_area(
            circuit, placement, limits, max_passes, slack_share
        ),
    )


def _recover_area(
    circuit: TwoPhaseCircuit,
    placement: SlavePlacement,
    limits: Mapping[str, float],
    max_passes: int,
    slack_share: float,
) -> RecoveryReport:
    report = RecoveryReport()
    library = circuit.library
    if library is None:
        raise ValueError("area recovery needs a library")

    for pass_index in range(max_passes):
        _, post = circuit.arrival_details(placement)
        req = required_times(circuit, placement, limits)
        calc = circuit.engine.calculator
        changed = False
        for gate in circuit.netlist.comb_gates():
            name = gate.name
            requirement = req.get(name, INF)
            if requirement == INF:
                continue
            slack = requirement - post.get(name, 0.0)
            if slack <= EPS:
                continue
            cell = library[gate.cell]
            if not isinstance(cell, CombCell):
                continue
            load = calc.load(name)
            current = max(
                cell.arc(p).max_delay(load, 0.03) for p in cell.inputs
            )
            for candidate in _downsize_candidates(circuit, cell):
                proposed = max(
                    candidate.arc(p).max_delay(load, 0.03)
                    for p in candidate.inputs
                )
                delta = proposed - current
                saving = cell.area - candidate.area
                if saving <= 0:
                    continue
                if delta <= slack * slack_share:
                    first = report.resized.get(name, (cell.name, ""))[0]
                    report.resized[name] = (first, candidate.name)
                    circuit.netlist.replace_cell(name, candidate.name)
                    report.area_saved += saving
                    changed = True
                    break
        report.passes = pass_index + 1
        if not changed:
            break

    # Safety net for the endpoint limits: slack sharing makes
    # violations rare, and if one slipped through, a size-only compile
    # against the same limits upsizes the violating paths again; the
    # rest of the pass's downsizing stays.  Only ``limits`` are
    # checked, not the slave-driver forward limit of constraint (6),
    # so recovery can re-create (6) violations an earlier clean-up
    # removed.
    arrivals = circuit.endpoint_arrivals(placement)
    violated = [
        endpoint
        for endpoint, limit in limits.items()
        if arrivals.get(endpoint, 0.0) > limit + 1e-7
    ]
    if violated:
        size_only_compile(circuit, placement, limits)
    return report
