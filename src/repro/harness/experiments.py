"""Experiment drivers: one method per paper table/figure.

:class:`ExperimentSuite` lazily generates the benchmark circuits,
computes each (circuit, method, c) cell a table pulls through the one
cell path (:mod:`repro.harness.cell`), memoizes its record across
tables (Tables IV-VII share the same runs), and renders each table in
the paper's layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import metrics
from repro.analysis.compare import average, improvement
from repro.cells import default_library
from repro.cells.library import Library
from repro.circuits import build_benchmark, suite_names
from repro.clocks import ClockScheme
from repro.errors import ReproError, stage_scope
from repro.flows import prepare_circuit
from repro.flows.run import check_timing_engine
from repro.harness.cell import (
    CellResult,
    CellTask,
    FlowRecord,
    run_cell,
    simulate,
)
from repro.harness.paper import OVERHEAD_LEVELS, PAPER_TABLE1
from repro.harness.tables import TableResult
from repro.latches.conversion import flop_resilient_area, original_flop_report
from repro.netlist.netlist import Netlist
from repro.store import (
    ArtifactStore,
    SweepMemo,
    decode_memo_cell_key,
    get_store,
    library_fingerprint,
    memo_cell_key,
    open_store,
    use_store,
)

LEVELS: Sequence[Tuple[str, float]] = tuple(OVERHEAD_LEVELS.items())

_NAN = float("nan")


@dataclass
class FailedOutcome:
    """Placeholder for a (circuit, method, c) run that raised.

    Exposes the same table-facing metrics as :class:`FlowRecord`, all
    NaN, so every table renders a ``FAILED`` cell instead of crashing
    or reporting a silently wrong number.
    """

    method: str
    circuit_name: str
    overhead: float
    stage: Optional[str]
    error: Dict[str, object]

    n_slaves = n_edl = sequential_area = total_area = runtime_s = _NAN


#: Anything `outcome()` may hand to the tables.
AnyOutcome = Union[FlowRecord, FailedOutcome]


class ExperimentSuite:
    """Shared state and drivers for all experiments."""

    def __init__(
        self,
        circuits: Optional[Sequence[str]] = None,
        library: Optional[Library] = None,
        error_rate_cycles: int = 192,
        sim_seed: int = 2017,
        sim_seeds: Optional[Sequence[int]] = None,
        sim_backend: str = "compiled",
        sta_mode: str = "incremental",
        sta_engine: str = "object",
        guard: Optional[str] = None,
        isolate: bool = False,
        memo_path: Optional[str] = None,
        checkpoint_every: int = 1,
        retime_cache: bool = True,
        store: Union[ArtifactStore, str, None] = None,
    ) -> None:
        check_timing_engine(sta_engine)
        self.circuit_names = list(circuits or suite_names())
        self.library = library or default_library()
        self.error_rate_cycles = error_rate_cycles
        self.sim_seed = sim_seed
        #: Monte-Carlo seed sweep: every seed simulates through one
        #: shared compile (:func:`estimate_error_rate_batched`), and
        #: the reported error rate is the mean over seeds.  Defaults
        #: to ``(sim_seed,)``, which is report-identical to the
        #: legacy single-seed path.
        self.sim_seeds: Tuple[int, ...] = (
            tuple(sim_seeds) if sim_seeds else (sim_seed,)
        )
        self.sim_backend = sim_backend
        self.sta_mode = sta_mode
        self.sta_engine = sta_engine
        self.guard = guard
        self.isolate = isolate
        #: reuse compiled retiming problems + simplex warm starts when
        #: sweeping overheads; ``False`` is the bit-parity oracle.
        self.retime_cache = retime_cache
        #: batched checkpointing: rewrite the memo only every N dirty
        #: cells, instead of a full JSON rewrite per cell.  1 = write
        #: every time.
        self.checkpoint_every = max(1, int(checkpoint_every))
        #: artifact store the flows run against (compiled problems); a
        #: *persistent* store additionally carries the memo as a
        #: ``"suite-memo"`` artifact, so suites sharing the store
        #: directory resume each other's runs without a ``memo_path``.
        self.store = open_store(store)
        self.failures: List[FailedOutcome] = []
        self._netlists: Dict[str, Netlist] = {}
        self._schemes: Dict[str, ClockScheme] = {}
        self._outcomes: Dict[Tuple[str, str, float], AnyOutcome] = {}
        self._error_rates: Dict[Tuple[str, str, float], float] = {}
        self._dirty_cells = 0
        self._memo = SweepMemo(
            "suite-memo", self._memo_config, memo_path, self.store
        )
        for memo_key, entry in self._memo.load().items():
            name, method, overhead = decode_memo_cell_key(memo_key)
            key = (str(name), str(method), float(overhead))
            if "run" in entry:
                self._outcomes[key] = FlowRecord(**entry["run"])
            if "error_rate" in entry:
                self._error_rates[key] = entry["error_rate"]

    # -- shared state ------------------------------------------------------

    def netlist(self, name: str) -> Netlist:
        """The (memoized) generated netlist for ``name``."""
        if name not in self._netlists:
            self._netlists[name] = build_benchmark(name, self.library)
        return self._netlists[name]

    def add_netlist(
        self,
        name: str,
        netlist: Netlist,
        scheme: Optional[ClockScheme] = None,
    ) -> None:
        """Register an external netlist as a suite circuit.

        Converted designs (ISCAS89 ``.bench`` files, exported Verilog)
        enter the suite here instead of through the generator; every
        table producer, the overhead sweep, and the parallel harness
        then treat ``name`` exactly like a built-in benchmark.  An
        explicit ``scheme`` (e.g. the one the conversion front end
        derived) pre-seeds the clock memo; omitted, the suite derives
        it with the standard recipe — the two are bit-identical for
        :func:`repro.convert.convert_to_two_phase` output.
        """
        self._netlists[name] = netlist
        if scheme is not None:
            self._schemes[name] = scheme
        if name not in self.circuit_names:
            self.circuit_names.append(name)

    def scheme(self, name: str) -> ClockScheme:
        """The (memoized) derived clock scheme for ``name``."""
        if name not in self._schemes:
            scheme, _ = prepare_circuit(self.netlist(name), self.library)
            self._schemes[name] = scheme
        return self._schemes[name]

    #: Methods whose retiming, sizing, and EDL decisions do not read
    #: the overhead at all — ``c`` only enters their cost arithmetic.
    #: (G-RAR variants are genuinely c-dependent: credits and rescue
    #: budgets scale with the overhead.)
    C_INDEPENDENT = frozenset(
        {"base", "evl", "nvl", "rvl", "rvl-noswap", "rvl-movable",
         "selective"}
    )

    #: c-dependent G-RAR variants: each overhead is a fresh solve, but
    #: the compiled problem + warm basis are shared across the sweep.
    GRAR_METHODS = frozenset({"grar", "grar-gate", "grar-lp"})

    def outcome(self, name: str, method: str, overhead: float) -> AnyOutcome:
        """The (memoized) flow record for (circuit, method, c).

        A missing cell is computed in-process by the task
        :meth:`task` builds, so its whole sweep lands at once.  For
        c-independent methods the flow runs once and other overheads
        are derived by re-costing (same placement, same EDL set) — a 3x
        saving on the full-suite tables.

        Failures follow :meth:`settle`: with ``isolate=True`` a run
        that raises a :class:`~repro.errors.ReproError` yields a
        :class:`FailedOutcome` (NaN metrics, rendered ``FAILED``)
        instead of killing the whole suite; with a ``memo_path``,
        completed runs resume from disk.
        """
        key = (name, method, overhead)
        if key not in self._outcomes:
            self._pull(name, method, overhead)
            if method in self.C_INDEPENDENT and overhead != 1.0:
                self._outcomes[key] = replace(
                    self._outcomes[(name, method, 1.0)], overhead=overhead
                )
        return self._outcomes[key]

    def error_rate(self, name: str, method: str, overhead: float) -> float:
        """The (memoized) simulated error rate in percent.

        c-independent methods share one simulation (identical
        placements and EDL sets across overheads).  A record with a
        recipe rebuilds its final circuit and simulates it on the spot
        (counted as ``suite.rebuilds``); a missing cell, or a record
        without one (resumed from the memo, or ``rvl-movable``), runs
        its flow with the rate owed.  Failed flows and simulations
        report NaN (rendered ``FAILED``).
        """
        if method in self.C_INDEPENDENT:
            overhead = 1.0
        key = (name, method, overhead)
        if key not in self._error_rates:
            out = self._outcomes.get(key)
            recipe = getattr(out, "recipe", None)
            if recipe is None:
                self._pull(name, method, overhead, rates=True)
            else:
                metrics.count("suite.rebuilds")
                circuit = recipe.rebuild(
                    self.netlist(name), self.scheme(name), self.library,
                    self.sta_mode,
                )
                result = CellResult(name, method, overhead, outcome=out)
                self.settle(simulate(
                    result, circuit, self.error_rate_cycles,
                    self.sim_seeds, self.sim_backend,
                ))
        return self._error_rates.get(key, _NAN)

    # -- the one cell path -------------------------------------------------

    def task(
        self, name: str, method: str, overhead: float, rates: bool = False
    ) -> Optional[CellTask]:
        """The task that computes cell (name, method, c), or ``None``
        when nothing is left to compute.

        The sweep rule: c-independent methods run at the canonical
        c = 1.0; a G-RAR method with the retime cache runs at every
        level, so the compiled problem and warm basis carry across the
        sweep; anything else runs at its one c.  Points already settled
        drop out, unless ``rates`` and they still owe an error rate
        (a failed cell owes none).

        The circuit's netlist and clock scheme are looked up under the
        ``prepare`` stage: a circuit that cannot be prepared settles
        every point of the sweep as failed (:meth:`settle`; a strict
        suite raises) and gets no task.
        """
        if method in self.C_INDEPENDENT:
            points: Tuple[float, ...] = (1.0,)
        elif method in self.GRAR_METHODS and self.retime_cache:
            points = tuple(c for _, c in LEVELS)
            if overhead not in points:
                points += (overhead,)
        else:
            points = (overhead,)

        def owes_rate(c: float) -> bool:
            key = (name, method, c)
            return (
                rates
                and key not in self._error_rates
                and not isinstance(self._outcomes.get(key), FailedOutcome)
            )

        sweep = tuple(
            c for c in points
            if (name, method, c) not in self._outcomes or owes_rate(c)
        )
        if not sweep:
            return None
        try:
            with stage_scope("prepare", circuit=name):
                netlist = self.netlist(name)
                scheme = self.scheme(name)
        except ReproError as exc:
            for c in sweep:
                self.settle(CellResult(name, method, c).fail(exc))
            return None
        return CellTask(
            circuit=name,
            method=method,
            sweep=sweep,
            rate_overheads=tuple(c for c in sweep if owes_rate(c)),
            netlist=netlist,
            scheme=scheme,
            library=self.library,
            guard=self.guard,
            cycles=self.error_rate_cycles,
            seeds=self.sim_seeds,
            sim_backend=self.sim_backend,
            sta_mode=self.sta_mode,
            retime_cache=self.retime_cache,
            store_dir=(
                str(self.store.root)
                if self.store is not None and self.store.persistent
                else None
            ),
        )

    def _pull(
        self, name: str, method: str, overhead: float, rates: bool = False
    ) -> None:
        """Compute a missing cell in-process: the same task
        :func:`~repro.harness.parallel.plan_cells` ships, run under the
        suite's own store object."""
        task = self.task(name, method, overhead, rates)
        if task is None:
            return
        store = self.store if self.store is not None else get_store()
        with use_store(store):
            for result in run_cell(task):
                self.settle(result)

    def settle(self, result: CellResult) -> None:
        """Fold one computed cell into the suite — the one settle rule,
        for in-process and worker results alike.

        A strict suite raises the cell's typed error, whether its flow
        or its simulation failed, and keeps nothing of the cell.  An
        isolated suite lists the failure in ``failures`` and keeps the
        cell: a failed flow as a :class:`FailedOutcome`, a failed
        simulation as a NaN rate next to its outcome.  Every settled
        cell marks the memo dirty.
        """
        failed = None
        if result.error is not None:
            if not self.isolate:
                raise result.to_error()
            failed = FailedOutcome(
                result.method, result.circuit, result.overhead,
                result.error.get("stage"), result.error,
            )
            self.failures.append(failed)
        self._outcomes[result.key] = (
            result.outcome if result.outcome is not None else failed
        )
        if result.error_rate is not None:
            self._error_rates[result.key] = result.error_rate
        self.checkpoint(force=False)

    # -- failure reporting and resumability --------------------------------

    def failure_report(self) -> Dict[str, object]:
        """Machine-readable account of every isolated failure."""
        return {
            "n_failures": len(self.failures),
            "failures": [
                {
                    "circuit": f.circuit_name,
                    "method": f.method,
                    "overhead": f.overhead,
                    "stage": f.stage,
                    "error": f.error,
                }
                for f in self.failures
            ],
        }

    @property
    def memo_path(self) -> Optional[str]:
        """The explicit JSON memo file (``None``: store memo only)."""
        return self._memo.path

    @memo_path.setter
    def memo_path(self, path: Optional[str]) -> None:
        self._memo.path = path

    def _memo_config(self) -> Dict[str, object]:
        """What the memoized values depend on: library content and
        simulated cycles and seeds.

        Bit-identical-by-contract switches (simulation backend, STA
        mode/engine, retime cache, jobs) stay out, so one memo serves
        any of their combinations.
        """
        return {
            "library": library_fingerprint(self.library),
            "cycles": self.error_rate_cycles,
            "seeds": list(self.sim_seeds),
        }

    def checkpoint(self, force: bool = True) -> bool:
        """Persist completed runs so a crashed suite can resume.

        ``force=False`` marks one cell dirty and only rewrites the
        memo once ``checkpoint_every`` cells accumulated — the
        batching that keeps a parallel suite from serializing on
        full-JSON rewrites.  The memo goes to ``memo_path`` and to a
        persistent store's ``"suite-memo"`` namespace
        (:class:`~repro.store.SweepMemo`); failed cells and NaN rates
        are left out, so a resumed suite re-runs them.  Returns True
        when the memo was written.
        """
        if not self._memo.enabled:
            return False
        if not force:
            self._dirty_cells += 1
            if self._dirty_cells < self.checkpoint_every:
                return False
        entries: Dict[str, Dict[str, object]] = {
            memo_cell_key(key): {"run": out.numbers()}
            for key, out in self._outcomes.items()
            if isinstance(out, FlowRecord)
        }
        for key, rate in self._error_rates.items():
            if rate == rate:  # not NaN
                entry = entries.setdefault(memo_cell_key(key), {})
                entry["error_rate"] = rate
        self._memo.save(entries)
        self._dirty_cells = 0
        return True

    # -- Table I ----------------------------------------------------------

    def table1(self) -> TableResult:
        """Circuit information of the original flop-based designs."""
        table = TableResult(
            "Table I",
            "circuit info of original flop-based designs",
            ["circuit", "P(ns)", "flop#", "NCE#", "gates", "area",
             "paper_P", "paper_flop#", "paper_NCE#"],
        )
        for name in self.circuit_names:
            paper = PAPER_TABLE1.get(name, (0, 0, 0, 0))
            try:
                with stage_scope("prepare", circuit=name):
                    netlist = self.netlist(name)
                    scheme = self.scheme(name)
                    report = original_flop_report(
                        netlist, scheme, self.library
                    )
            except ReproError as exc:
                if not self.isolate:
                    raise
                self.failures.append(FailedOutcome(
                    "table1", name, 0.0, exc.stage, exc.to_dict()
                ))
                table.add_row(
                    name, _NAN, _NAN, _NAN, _NAN, _NAN,
                    paper[0], paper[1], paper[2],
                )
                continue
            table.add_row(
                name,
                round(scheme.max_path_delay, 3),
                report.n_flops,
                report.n_near_critical,
                report.n_comb_gates,
                round(report.total_area, 2),
                paper[0],
                paper[1],
                paper[2],
            )
        table.add_note(
            "synthetic circuits matched to the paper's flop counts and "
            "NCE fractions; areas use the repro library's units"
        )
        return table

    # -- Table II -----------------------------------------------------------

    def table2(self) -> TableResult:
        """Gate-based vs path-based delay model G-RAR (total area)."""
        table = TableResult(
            "Table II",
            "total area: gate-based vs path-based G-RAR",
            ["circuit"]
            + [f"{lvl}:{col}" for lvl, _ in LEVELS
               for col in ("gate", "path", "impr%")],
        )
        for name in self.circuit_names:
            row: List = [name]
            for _, c in LEVELS:
                gate = self.outcome(name, "grar-gate", c).total_area
                path = self.outcome(name, "grar", c).total_area
                row += [round(gate, 1), round(path, 1),
                        round(improvement(gate, path), 2)]
            table.add_row(*row)
        for index, (lvl, _) in enumerate(LEVELS):
            col = f"{lvl}:impr%"
            table.add_note(
                f"average {lvl} improvement: "
                f"{average(table.column(col)):.2f}%"
            )
        return table

    # -- Table III -----------------------------------------------------------

    def table3(self) -> TableResult:
        """Area comparison of the virtual-library variants."""
        table = TableResult(
            "Table III",
            "total area of NVL / EVL / RVL",
            ["circuit"]
            + [f"{lvl}:{v}" for lvl, _ in LEVELS
               for v in ("NVL", "EVL", "RVL")],
        )
        for name in self.circuit_names:
            row: List = [name]
            for _, c in LEVELS:
                row += [
                    round(self.outcome(name, "nvl", c).total_area, 1),
                    round(self.outcome(name, "evl", c).total_area, 1),
                    round(self.outcome(name, "rvl", c).total_area, 1),
                ]
            table.add_row(*row)
        for lvl, _ in LEVELS:
            avgs = {
                v: average(table.column(f"{lvl}:{v}"))
                for v in ("NVL", "EVL", "RVL")
            }
            table.add_note(
                f"{lvl} averages: "
                + " ".join(f"{k}={v:.1f}" for k, v in avgs.items())
            )
        return table

    # -- Tables IV & V ---------------------------------------------------------

    def _comparison_table(
        self, table_id: str, title: str, metric: str
    ) -> TableResult:
        table = TableResult(
            table_id,
            title,
            ["circuit"]
            + [f"{lvl}:{col}" for lvl, _ in LEVELS
               for col in ("base", "rvl", "rvl%", "grar", "grar%")],
        )
        for name in self.circuit_names:
            row: List = [name]
            for _, c in LEVELS:
                base = getattr(self.outcome(name, "base", c), metric)
                rvl = getattr(self.outcome(name, "rvl", c), metric)
                grar = getattr(self.outcome(name, "grar", c), metric)
                row += [
                    round(base, 1),
                    round(rvl, 1),
                    round(improvement(base, rvl), 2),
                    round(grar, 1),
                    round(improvement(base, grar), 2),
                ]
            table.add_row(*row)
        for lvl, _ in LEVELS:
            table.add_note(
                f"{lvl} average improvement: "
                f"RVL {average(table.column(f'{lvl}:rvl%')):.2f}% "
                f"G-RAR {average(table.column(f'{lvl}:grar%')):.2f}%"
            )
        return table

    def table4(self) -> TableResult:
        """Sequential logic area: base vs RVL-RAR vs G-RAR."""
        return self._comparison_table(
            "Table IV",
            "sequential logic area: base / RVL / G-RAR",
            "sequential_area",
        )

    def table5(self) -> TableResult:
        """Total area: base vs RVL-RAR vs G-RAR."""
        return self._comparison_table(
            "Table V", "total area: base / RVL / G-RAR", "total_area"
        )

    # -- Table VI -----------------------------------------------------------

    def table6(self) -> TableResult:
        """Slave-latch and EDL-master counts per approach."""
        table = TableResult(
            "Table VI",
            "slave and error-detecting master counts",
            ["circuit", "approach"]
            + [f"{lvl}:{col}" for lvl, _ in LEVELS
               for col in ("slave#", "EDL#")],
        )
        for name in self.circuit_names:
            for method, label in (
                ("base", "Base"), ("rvl", "RVL"), ("grar", "G"),
            ):
                row: List = [name, label]
                for _, c in LEVELS:
                    out = self.outcome(name, method, c)
                    row += [out.n_slaves, out.n_edl]
                table.add_row(*row)
        return table

    # -- Table VII -----------------------------------------------------------

    def table7(self) -> TableResult:
        """Flow run-times (seconds)."""
        table = TableResult(
            "Table VII",
            "run-time (s) per approach",
            ["circuit"]
            + [f"{lvl}:{m}" for lvl, _ in LEVELS
               for m in ("base", "rvl", "grar")],
        )
        for name in self.circuit_names:
            row: List = [name]
            for _, c in LEVELS:
                row += [
                    round(self.outcome(name, "base", c).runtime_s, 2),
                    round(self.outcome(name, "rvl", c).runtime_s, 2),
                    round(self.outcome(name, "grar", c).runtime_s, 2),
                ]
            table.add_row(*row)
        return table

    # -- Table VIII -----------------------------------------------------------

    def table8(self) -> TableResult:
        """Error rates (%) per approach."""
        table = TableResult(
            "Table VIII",
            "error rate (%) per approach",
            ["circuit"]
            + [f"{lvl}:{m}" for lvl, _ in LEVELS
               for m in ("base", "rvl", "grar")],
        )
        for name in self.circuit_names:
            row: List = [name]
            for _, c in LEVELS:
                row += [
                    round(self.error_rate(name, "base", c), 2),
                    round(self.error_rate(name, "rvl", c), 2),
                    round(self.error_rate(name, "grar", c), 2),
                ]
            table.add_row(*row)
        for lvl, _ in LEVELS:
            table.add_note(
                f"{lvl} averages: base "
                f"{average(table.column(f'{lvl}:base')):.2f}% rvl "
                f"{average(table.column(f'{lvl}:rvl')):.2f}% grar "
                f"{average(table.column(f'{lvl}:grar')):.2f}%"
            )
        return table

    # -- Table IX -----------------------------------------------------------

    def table9(self) -> TableResult:
        """Fixed- vs movable-master RVL total area."""
        table = TableResult(
            "Table IX",
            "total area: fixed vs movable-master RVL",
            ["circuit"]
            + [f"{lvl}:{col}" for lvl, _ in LEVELS
               for col in ("fixed", "movable", "diff%")],
        )
        for name in self.circuit_names:
            row: List = [name]
            for _, c in LEVELS:
                fixed = self.outcome(name, "rvl", c).total_area
                movable = self.outcome(name, "rvl-movable", c).total_area
                row += [
                    round(fixed, 1),
                    round(movable, 1),
                    round(improvement(fixed, movable), 2),
                ]
            table.add_row(*row)
        for lvl, _ in LEVELS:
            table.add_note(
                f"{lvl} average diff: "
                f"{average(table.column(f'{lvl}:diff%')):.2f}%"
            )
        return table

    # -- Section VI-D flop-resilient comparison ---------------------------------

    def flop_comparison(self) -> TableResult:
        """Latch-based resilient vs flop-based resilient area."""
        table = TableResult(
            "VI-D",
            "latch-based (G-RAR) vs flop-based resilient area",
            ["circuit", "flop_design"]
            + [f"{lvl}:{col}" for lvl, _ in LEVELS
               for col in ("flop_res", "latch_res", "saving%")],
        )
        for name in self.circuit_names:
            # The G-RAR cells first: a circuit that cannot be prepared
            # then lists its failed cells, as a --jobs sweep does.
            latch = [self.outcome(name, "grar", c).total_area
                     for _, c in LEVELS]
            try:
                with stage_scope("prepare", circuit=name):
                    netlist = self.netlist(name)
                    scheme = self.scheme(name)
                    report = original_flop_report(
                        netlist, scheme, self.library
                    )
            except ReproError:
                if not self.isolate:
                    raise
                table.add_row(
                    name, _NAN, *([_NAN] * (3 * len(LEVELS)))
                )
                continue
            row: List = [name, round(report.total_area, 1)]
            for (_, c), latch_res in zip(LEVELS, latch):
                flop_res = flop_resilient_area(report, self.library, c)
                row += [
                    round(flop_res, 1),
                    round(latch_res, 1),
                    round(improvement(flop_res, latch_res), 2),
                ]
            table.add_row(*row)
        for lvl, _ in LEVELS:
            table.add_note(
                f"{lvl} average saving vs flop-resilient: "
                f"{average(table.column(f'{lvl}:saving%')):.2f}%"
            )
        return table

    # -- everything -------------------------------------------------------------

    def all_tables(self) -> List[TableResult]:
        """Every table, computed in order."""
        return [
            self.table1(),
            self.table2(),
            self.table3(),
            self.table4(),
            self.table5(),
            self.table6(),
            self.table7(),
            self.table8(),
            self.table9(),
            self.flop_comparison(),
        ]
