"""Size-only incremental compile and EDL-avoidance rescue (Section VI).

After slave latches are repositioned, endpoints can overshoot their
arrival limits — the node-granular ``Vm`` region leaves up to one gate
delay of slack error, and the latch CK->Q / D->Q delays are not part of
the retiming graph.  The paper resolves this with a max-delay-
constrained incremental compile in which only gate sizing is allowed
(:func:`size_only_compile`).

Separately, resiliency-aware flows *rescue* masters from the resiliency
window by speeding their plain fan-in paths below ``Pi``
(:func:`speed_paths`) — the paper's "small area penalty to speed-up the
combinational logic and avoid more EDLs" (:func:`rescue_paths`).
Rescues are cost-aware: area spent must not exceed the EDL overhead
saved.

Both front ends run one estimate-apply loop: walk each violating path,
rank upsizing moves by first-order delay gain per area (resistance drop
times driven load, minus the extra input capacitance presented to the
path's driver), apply the best, then re-time to verify.  They differ
only in what they measure — latch-aware arrivals for a placement, or
the live engine's plain arrivals — and in how they trace a path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.cells.cell import CombCell
from repro.latches.placement import SlavePlacement
from repro.latches.resilient import EPS, TwoPhaseCircuit


@dataclass
class SizingReport:
    """What the incremental compile changed."""

    resized: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    passes: int = 0
    fixed_endpoints: int = 0
    #: Endpoints still violating after the compile gave up.
    unresolved: Dict[str, float] = field(default_factory=dict)
    area_delta: float = 0.0

    @property
    def n_resized(self) -> int:
        """Number of gates the compile resized."""
        return len(self.resized)

    @property
    def clean(self) -> bool:
        """True when every limit was met."""
        return not self.unresolved


@dataclass
class RescueReport:
    """Outcome of the cost-aware EDL-avoidance pass."""

    rescued: List[str] = field(default_factory=list)
    abandoned: List[str] = field(default_factory=list)
    resized: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    area_delta: float = 0.0


def _trace_violating_path(
    circuit: TwoPhaseCircuit,
    placement: SlavePlacement,
    post: Mapping[str, float],
    endpoint: str,
) -> List[str]:
    """Walk the worst post-latch path into ``endpoint``.

    Stops once the trace crosses the slave latch: gates upstream of it
    do not contribute to the violating arrival (for floor-launched
    latches) or contribute through ``D^f`` which a separate trace would
    be needed for — the post-latch segment is where sizing pays off.
    """
    netlist = circuit.netlist
    launch_floor = circuit.scheme.slave_open + circuit.latch_ck_q

    def edge_arrival(driver: str, sink: str) -> float:
        if placement.edge_weight_after(netlist, driver, sink) == 1:
            return max(launch_floor, circuit.df(driver) + circuit.latch_d_q)
        return post.get(driver, 0.0)

    path: List[str] = []
    gate = netlist[endpoint]
    current = max(gate.fanins, key=lambda d: edge_arrival(d, endpoint))
    while True:
        path.append(current)
        node = netlist[current]
        if node.is_source:
            break
        best_driver = max(
            node.fanins, key=lambda d: edge_arrival(d, current)
        )
        if placement.edge_weight_after(netlist, best_driver, current) == 1:
            break  # crossed the slave latch
        current = best_driver
    return path


def _move_gain(
    circuit: TwoPhaseCircuit,
    name: str,
    cell: CombCell,
    candidate: CombCell,
) -> float:
    """First-order delay gain of swapping ``name`` to ``candidate``.

    Worst pin-to-pin delay at the gate's actual load, minus a penalty
    for the extra input capacitance presented to the gate's drivers
    (relevant for drive-ups; Vt swaps keep the same pins).
    """
    calc = circuit.engine.calculator
    load = calc.load(name)
    slew = 0.03
    current = max(cell.arc(p).max_delay(load, slew) for p in cell.inputs)
    proposed = max(
        candidate.arc(p).max_delay(load, slew) for p in candidate.inputs
    )
    gain = current - proposed
    added_cap = sum(candidate.pin_cap(p) for p in candidate.inputs) - sum(
        cell.pin_cap(p) for p in cell.inputs
    )
    if added_cap > 0:
        library = circuit.library
        driver_r = 0.0
        for fanin in circuit.netlist[name].fanins:
            fanin_gate = circuit.netlist[fanin]
            if fanin_gate.is_comb:
                fanin_cell = library[fanin_gate.cell]
                driver_r = max(
                    driver_r,
                    max(
                        fanin_cell.arc(p).rise.resistance
                        for p in fanin_cell.inputs
                    ),
                )
        gain -= driver_r * added_cap * 0.5
    return gain


def _upsize_moves(
    circuit: TwoPhaseCircuit, path: List[str]
) -> List[Tuple[float, float, str, str]]:
    """Candidate moves on a path: (gain, area_cost, gate, new_cell).

    Two levers per gate, like a commercial size-only compile: the next
    drive strength up (same Vt) and the low-Vt twin at the same drive.
    """
    library = circuit.library
    if library is None:
        return []
    moves: List[Tuple[float, float, str, str]] = []
    for name in path:
        gate = circuit.netlist[name]
        if not gate.is_comb:
            continue
        cell = library[gate.cell]
        if not isinstance(cell, CombCell):
            continue
        candidates = []
        stronger = library.next_drive_up(cell)
        if stronger is not None:
            candidates.append(stronger)
        lvt = library.vt_variant(cell, "lvt")
        if lvt is not None and lvt is not cell:
            candidates.append(lvt)
        for candidate in candidates:
            gain = _move_gain(circuit, name, cell, candidate)
            area_cost = candidate.area - cell.area
            if gain <= 0 or area_cost <= 0:
                continue
            moves.append((gain, area_cost, name, candidate.name))
    moves.sort(key=lambda m: m[0] / m[1], reverse=True)
    return moves


#: One pass measurement: the arrival of a limited node, and the path
#: the pass's upsizing moves are drawn from for a violating one.
Measurement = Tuple[Callable[[str], float], Callable[[str], List[str]]]


def _upsize_loop(
    circuit: TwoPhaseCircuit,
    limits: Mapping[str, float],
    measure: Callable[[], Measurement],
    max_passes: int,
    endpoints_per_pass: int,
) -> SizingReport:
    """The estimate-apply loop both sizing front ends share.

    Each pass takes one ``measure()``, ranks the violating nodes worst
    first and applies the two best upsizing moves on each one's traced
    path; a node with no move left is dropped.  The loop stops when no
    node violates or none is left, then measures once more to report
    what stayed unresolved.
    """
    report = SizingReport()
    if circuit.library is None:
        raise ValueError("sizing needs a library")
    baseline_area = circuit.netlist.comb_area(circuit.library)
    active = dict(limits)

    initial_violations: Optional[Set[str]] = None
    for pass_index in range(max_passes):
        arrival, trace = measure()
        violations = {}
        for endpoint, limit in active.items():
            value = arrival(endpoint)
            if value > limit + EPS:
                violations[endpoint] = value - limit
        if initial_violations is None:
            initial_violations = set(violations)
        if not violations:
            break
        worst_first = sorted(
            violations, key=violations.get, reverse=True
        )[:endpoints_per_pass]
        for endpoint in worst_first:
            moves = _upsize_moves(circuit, trace(endpoint))
            if not moves:
                del active[endpoint]
                continue
            for _, _, name, new_cell in moves[:2]:
                first = report.resized.get(
                    name, (circuit.netlist[name].cell, new_cell)
                )[0]
                report.resized[name] = (first, new_cell)
                circuit.netlist.replace_cell(name, new_cell)
        report.passes = pass_index + 1
        if not active:
            break

    arrival, _ = measure()
    for endpoint, limit in limits.items():
        overshoot = arrival(endpoint) - limit
        if overshoot > EPS:
            report.unresolved[endpoint] = overshoot
    report.fixed_endpoints = len(
        (initial_violations or set()) - set(report.unresolved)
    )
    report.area_delta = (
        circuit.netlist.comb_area(circuit.library) - baseline_area
    )
    return report


def size_only_compile(
    circuit: TwoPhaseCircuit,
    placement: SlavePlacement,
    limits: Mapping[str, float],
    max_passes: int = 80,
    endpoints_per_pass: int = 16,
) -> SizingReport:
    """Fix arrival-limit violations by upsizing gates only.

    ``limits`` maps endpoints to their latest legal arrival — the
    window close for error-detecting masters, ``Pi`` for masters that
    retiming promised would be non-error-detecting.  Each pass times
    the placement once (latch-aware arrivals) and traces every
    violating path on that snapshot.
    """

    def measure() -> Measurement:
        arrivals, post = circuit.arrival_details(placement)
        return (
            lambda endpoint: arrivals.get(endpoint, 0.0),
            lambda endpoint: _trace_violating_path(
                circuit, placement, post, endpoint
            ),
        )

    return _upsize_loop(
        circuit, limits, measure, max_passes, endpoints_per_pass
    )


def speed_paths(
    circuit: TwoPhaseCircuit,
    limits: Mapping[str, float],
    max_passes: int = 120,
    endpoints_per_pass: int = 16,
) -> SizingReport:
    """Speed raw combinational paths below per-endpoint delay limits.

    Unlike :func:`size_only_compile`, which works on latch-aware
    arrivals for a fixed placement, this pass targets the *plain* path
    delays the retiming graph is built from: pulling an endpoint's
    worst path below ``Pi`` is what turns an always-error-detecting
    master into a retiming target ("speeding up the combinational
    logic to avoid more EDLs").  Arrivals and traces read the live
    timing engine.  Retiming should be re-run afterwards.
    """
    engine = circuit.engine
    endpoint_set = set(g.name for g in circuit.netlist.endpoints())

    def arrival(node: str) -> float:
        # Endpoints are measured at their data input; internal gates
        # (constraint (6) fixes target the slave-latch drivers) at
        # their output arrival D^f.
        if node in endpoint_set:
            return engine.endpoint_arrival(node)
        return engine.forward_arrival(node)

    def trace(node: str) -> List[str]:
        return _trace_plain_path(circuit, node)

    return _upsize_loop(
        circuit, limits, lambda: (arrival, trace), max_passes,
        endpoints_per_pass,
    )


def _trace_plain_path(circuit: TwoPhaseCircuit, endpoint: str) -> List[str]:
    """Worst raw combinational path into ``endpoint`` (no latches).

    ``endpoint`` may also be an internal gate (constraint (6) fixes);
    its own delay then counts, so it joins the path."""
    netlist = circuit.netlist
    engine = circuit.engine
    path: List[str] = []
    gate = netlist[endpoint]
    if gate.is_comb:
        path.append(endpoint)
    current = max(gate.fanins, key=engine.forward_arrival)
    while True:
        path.append(current)
        node = netlist[current]
        if node.is_source:
            break
        current = max(
            node.fanins,
            key=lambda d: engine.forward_arrival(d)
            + engine.edge_delay(d, current),
        )
    return path


def rescue_paths(
    circuit: TwoPhaseCircuit,
    candidates: List[str],
    target: float,
    budget_per_endpoint: float,
) -> RescueReport:
    """Cost-aware batch path speedup (the G-RAR EDL-avoidance pass).

    Attempts to pull every candidate's worst path below ``target`` and
    keeps the result only if the total area spent stays below the EDL
    overhead saved (``budget_per_endpoint`` per endpoint that made it).
    Falls back to rescuing the cheapest individual endpoints when the
    batch as a whole is unprofitable.
    """
    report = RescueReport()
    if circuit.library is None:
        raise ValueError("rescue needs a library")
    if budget_per_endpoint <= 0 or not candidates:
        report.abandoned.extend(candidates)
        return report

    # Try shrinking prefixes of the cheapest candidates until a batch
    # pays for itself — at low overheads only a subset of masters is
    # worth rescuing, which is why the paper's G-RAR EDL counts drop
    # with growing c (Table VI).
    engine = circuit.engine
    by_cost = sorted(candidates, key=engine.endpoint_arrival)
    for fraction in (1.0, 0.75, 0.5, 0.25):
        subset = by_cost[: max(1, int(len(by_cost) * fraction))]
        batch = speed_paths(circuit, {e: target for e in subset})
        batch_rescued = [e for e in subset if e not in batch.unresolved]
        if batch_rescued and batch.area_delta <= budget_per_endpoint * len(
            batch_rescued
        ):
            report.rescued = batch_rescued
            report.abandoned = [
                e for e in candidates if e not in batch_rescued
            ]
            report.resized = dict(batch.resized)
            report.area_delta = batch.area_delta
            return report
        for name, (old_cell, _) in batch.resized.items():
            circuit.netlist.replace_cell(name, old_cell)

    queue = sorted(candidates, key=engine.endpoint_arrival)
    consecutive_failures = 0
    for endpoint in queue:
        if engine.endpoint_arrival(endpoint) <= target + EPS:
            report.rescued.append(endpoint)  # freebie
            continue
        if consecutive_failures >= 6:
            # Candidates are sorted by difficulty; once several in a
            # row fail the budget, the rest will too.
            report.abandoned.append(endpoint)
            continue
        single = speed_paths(circuit, {endpoint: target}, max_passes=40)
        if endpoint not in single.unresolved and (
            single.area_delta <= budget_per_endpoint
        ):
            consecutive_failures = 0
            report.rescued.append(endpoint)
            report.area_delta += single.area_delta
            for name, pair in single.resized.items():
                first = report.resized.get(name, pair)[0]
                report.resized[name] = (first, pair[1])
        else:
            consecutive_failures += 1
            for name, (old_cell, _) in single.resized.items():
                circuit.netlist.replace_cell(name, old_cell)
            report.abandoned.append(endpoint)
    return report
