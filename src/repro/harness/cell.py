"""One table cell: the task that computes it and the one code that does.

Every number in Tables II-IX and VI-D comes from a (circuit, method,
c) cell: a flow run, plus a Monte-Carlo error rate for Table VIII.
:func:`run_cell` is the only code in the harness that computes cells.
:class:`~repro.harness.experiments.ExperimentSuite` runs it in-process
when a table pulls a missing cell, and
:func:`~repro.harness.parallel.run_suite_parallel` ships the same
:class:`CellTask` to worker processes.  Either way the results settle
through one rule, :meth:`ExperimentSuite.settle`, so a sequential and
a ``--jobs`` sweep cannot disagree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

from repro.cells.library import Library
from repro.clocks import ClockScheme
from repro.errors import ReproError, stage_scope
from repro.flows import FlowOutcome, run_flow
from repro.latches.placement import SlavePlacement
from repro.latches.resilient import SequentialCost, TwoPhaseCircuit
from repro.netlist.netlist import Netlist
from repro.sim import estimate_error_rate_batched

_NAN = float("nan")


@dataclass(frozen=True)
class Recipe:
    """A flow's final circuit as the cell swaps (in netlist order) the
    flow made to the netlist it ran on, plus the final delay model."""

    swaps: Tuple[Tuple[str, str], ...]
    model: str

    def rebuild(
        self, netlist: Netlist, scheme: ClockScheme, library: Library,
        sta_mode: str = "incremental",
    ) -> TwoPhaseCircuit:
        """Copy ``netlist``, apply the swaps before any timing engine
        subscribes, and time the final circuit afresh."""
        final = netlist.copy()
        for gate, cell in self.swaps:
            final.replace_cell(gate, cell)
        return TwoPhaseCircuit(
            final, scheme, library, model=self.model, sta_mode=sta_mode
        )


@dataclass
class FlowRecord:
    """One settled cell: the numbers a completed run contributes to the
    tables, plus the sets and recipe its Table VIII simulation needs.

    The memo persists the numbers only (:meth:`numbers`), enough to
    re-render every table (re-costing included) without re-running the
    flow; a resumed record has no sets and no recipe.
    """

    method: str
    circuit_name: str
    overhead: float
    n_slaves: int
    n_masters: int
    n_edl: int
    latch_area: float
    comb_area: float
    runtime_s: float
    solver_backend: str = ""
    #: the final error-detecting masters.
    edl_endpoints: Optional[FrozenSet[str]] = None
    #: the slave placement's retimed nodes (``r = -1``).
    retimed: Optional[FrozenSet[str]] = None
    #: rebuilds the final circuit; ``None`` also when the flow changed
    #: the netlist's structure (``rvl-movable``'s flop retiming).
    recipe: Optional[Recipe] = None

    @property
    def cost(self) -> SequentialCost:
        return SequentialCost(
            self.n_slaves, self.n_masters, self.n_edl, self.overhead,
            self.latch_area,
        )

    @property
    def sequential_area(self) -> float:
        return self.cost.area

    @property
    def total_area(self) -> float:
        return self.comb_area + self.sequential_area

    @property
    def placement(self) -> SlavePlacement:
        return SlavePlacement(set(self.retimed))

    def numbers(self) -> Dict[str, Any]:
        """The memo's form: every field but the sets and the recipe."""
        return {k: v for k, v in vars(self).items()
                if k not in ("edl_endpoints", "retimed", "recipe")}

    @staticmethod
    def from_outcome(outcome: FlowOutcome, netlist: Netlist) -> "FlowRecord":
        """``outcome``'s record, with the recipe that rebuilds its final
        circuit from ``netlist``, the netlist the flow ran on."""
        final = outcome.circuit.netlist
        recipe = None
        if [(g.name, g.gtype, g.fanins) for g in final] == [
            (g.name, g.gtype, g.fanins) for g in netlist
        ]:
            recipe = Recipe(
                tuple((g.name, g.cell) for g, old in zip(final, netlist)
                      if g.cell != old.cell),
                outcome.circuit.engine.calculator.name,
            )
        return FlowRecord(
            method=outcome.method,
            circuit_name=outcome.circuit_name,
            # the counts, the overhead and the latch area
            **vars(outcome.cost),
            comb_area=outcome.comb_area,
            runtime_s=outcome.runtime_s,
            solver_backend=outcome.solver_backend,
            edl_endpoints=frozenset(outcome.edl_endpoints),
            retimed=frozenset(outcome.retiming.placement.retimed),
            recipe=recipe,
        )


@dataclass(frozen=True)
class CellTask:
    """One unit of table work: a (circuit, method) sweep of overheads.

    Carries the suite's exact inputs, so a worker process reproduces
    the in-process run bit for bit.
    """

    circuit: str
    method: str
    #: overheads this task runs, in order: one point, or a G-RAR
    #: circuit's whole sweep, so its compiled problem and warm basis
    #: carry from point to point.
    sweep: Tuple[float, ...]
    #: the points of ``sweep`` that also owe a simulated error rate.
    rate_overheads: Tuple[float, ...]
    netlist: Netlist
    scheme: ClockScheme
    library: Library
    guard: Optional[str]
    #: Table VIII simulation: cycles per seed, and the Monte-Carlo
    #: seeds, which share one compile; the cell reports their mean.
    cycles: int
    seeds: Tuple[int, ...]
    sim_backend: str
    sta_mode: str
    retime_cache: bool
    #: persistent artifact-store directory a worker opens once and runs
    #: the sweep under, sharing compiled problems across the fleet and
    #: later invocations.  An in-process run uses the suite's own store
    #: object instead.
    store_dir: Optional[str]

    @property
    def overhead(self) -> float:
        return self.sweep[0]

    @property
    def key(self) -> Tuple[str, str, float]:
        return (self.circuit, self.method, self.overhead)

    @property
    def error_rate(self) -> bool:
        """Whether any point of the sweep owes an error rate."""
        return bool(self.rate_overheads)


@dataclass
class CellResult:
    """One computed (circuit, method, c) cell, failures included."""

    circuit: str
    method: str
    overhead: float
    #: the flow's record; ``None`` when the flow failed.
    outcome: Optional[FlowRecord] = None
    #: the failure, flow or simulation, in :meth:`ReproError.to_dict`
    #: form.
    error: Optional[Dict[str, Any]] = None
    #: the raised error itself, kept in the process that raised it.
    raised: Optional[ReproError] = None
    error_rate: Optional[float] = None
    wall_s: float = 0.0
    #: which simulation backend produced the error rate (when one ran).
    sim_backend: Optional[str] = None
    #: simulation throughput of this cell's Table VIII run (``None``
    #: when no simulation ran or the wall clock read zero).
    sim_cycles_per_sec: Optional[float] = None

    @property
    def key(self) -> Tuple[str, str, float]:
        return (self.circuit, self.method, self.overhead)

    @property
    def failed(self) -> bool:
        """Whether the flow or its simulation failed."""
        return self.error is not None

    def fail(self, exc: ReproError) -> "CellResult":
        """Capture ``exc`` as this cell's failure."""
        exc.annotate(circuit=self.circuit)
        self.error = exc.to_dict()
        self.raised = exc
        return self

    def to_error(self) -> ReproError:
        """The cell's typed error: the raised one where it was raised,
        rebuilt from its dict after it crossed a process boundary."""
        if self.raised is not None:
            return self.raised
        return ReproError.from_dict(self.error or {})


def simulate(
    result: CellResult,
    circuit: TwoPhaseCircuit,
    cycles: int,
    seeds: Sequence[int],
    backend: str,
) -> CellResult:
    """Table VIII's step: the mean error rate over ``seeds`` of
    ``circuit``, the final circuit of ``result``'s record (live or
    rebuilt), or the typed failure (with a NaN rate).

    One compile serves the whole seed sweep; for a single seed the
    report is byte-identical to the per-seed estimate.
    """
    try:
        with stage_scope("simulate", circuit=result.circuit):
            reports = estimate_error_rate_batched(
                circuit,
                result.outcome.placement,
                result.outcome.edl_endpoints,
                cycles=cycles,
                seeds=seeds,
                backend=backend,
            )
    except ReproError as exc:
        result.fail(exc)
        result.error_rate = _NAN
        result.sim_backend = backend
    else:
        result.error_rate = sum(r.error_rate for r in reports) / len(reports)
        result.sim_backend = reports[0].backend
        result.sim_cycles_per_sec = reports[0].cycles_per_sec
    return result


def run_cell(task: CellTask) -> Iterator[CellResult]:
    """Compute ``task``'s sweep point by point, in order, yielding each
    result as it lands: the flow, then the simulation of its live
    circuit where the point owes an error rate.  Only the outcome's
    :class:`FlowRecord` leaves this function.

    Points run as the caller iterates, under the ambient artifact
    store at that time.  Each point's typed failure is captured on its
    result, never raised; the suite's settle rule decides what a
    failure does (a strict suite stops iterating at the first one).
    """
    for overhead in task.sweep:
        started = time.perf_counter()
        result = CellResult(task.circuit, task.method, overhead)
        try:
            outcome = run_flow(
                task.method,
                task.netlist,
                task.library,
                overhead,
                scheme=task.scheme,
                guard=task.guard,
                sta_mode=task.sta_mode,
                retime_cache=task.retime_cache,
            )
        except ReproError as exc:
            result.fail(exc)
        else:
            result.outcome = FlowRecord.from_outcome(outcome, task.netlist)
            if overhead in task.rate_overheads:
                simulate(
                    result, outcome.circuit, task.cycles, task.seeds,
                    task.sim_backend,
                )
            del outcome  # not held across the yield and the next flow
        result.wall_s = time.perf_counter() - started
        yield result
