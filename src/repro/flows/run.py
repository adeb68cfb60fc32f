"""Flow orchestration: retime -> size-only compile -> final accounting.

``run_flow`` is the single entry point the benchmark harness uses; it
owns the details that make cross-method comparisons fair:

* every method runs on its own *copy* of the netlist (sizing mutates
  cells) under the *same* clock scheme, derived once from the original
  flop design;
* the sizing limits depend on the method's promises — endpoints the
  retimer claims are non-error-detecting get ``Pi`` max-delay
  constraints (so the claim survives placement-induced drift), the
  rest get the window close;
* endpoints sizing cannot rescue fall back to error-detecting, exactly
  like the paper's manual switch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro import metrics
from repro.cells.library import Library
from repro.clocks import ClockScheme, scheme_from_period
from repro.errors import FlowStageError, stage_scope
from repro.guard import CheckpointRecord, Guard, GuardPolicy
from repro.latches.conversion import ConversionReport
from repro.latches.resilient import EPS, SequentialCost, TwoPhaseCircuit
from repro.netlist.netlist import Netlist
from repro.retime.base import base_retime
from repro.retime.grar import grar_retime
from repro.retime.result import RetimingResult
from repro.sta import TimingEngine
from repro.store import ArtifactStore, get_store, open_store, use_store
from repro.synth.memo import sizing_memo_enabled, use_sizing_memo
from repro.synth.recovery import RecoveryReport, recover_area
from repro.synth.sizing import (
    RescueReport,
    SizingReport,
    rescue_paths,
    size_only_compile,
    speed_paths,
)
from repro.vl.flow import vl_retime
from repro.vl.variants import VlVariant, initial_types

#: Methods understood by :func:`run_flow`.
METHODS = (
    "base",
    "grar",
    "grar-gate",
    "grar-lp",
    "evl",
    "nvl",
    "rvl",
    "rvl-noswap",
    "rvl-movable",
    "selective",
)


def check_timing_engine(name: str) -> None:
    """Reject every timing engine name but ``"object"``.

    :class:`~repro.sta.engine.TimingEngine` is the one engine; the
    entry points that still take an engine name accept only its name.
    """
    if name != "object":
        raise ValueError(
            f"unknown STA engine {name!r}; the only engine is 'object'"
        )


@dataclass
class FlowOutcome:
    """Final, post-sizing state of one flow run."""

    method: str
    circuit_name: str
    overhead: float
    retiming: RetimingResult
    sizing: Optional[SizingReport]
    rescue: Optional[RescueReport]
    recovery: Optional[RecoveryReport]
    circuit: TwoPhaseCircuit
    edl_endpoints: Set[str]
    cost: SequentialCost
    comb_area: float
    runtime_s: float
    guard_records: List[CheckpointRecord] = field(default_factory=list)
    solver_backend: str = ""
    #: Set when the flow entered through the flop-to-two-phase
    #: conversion front end (``convert="two-phase"``).
    conversion: Optional[ConversionReport] = None

    @property
    def n_slaves(self) -> int:
        """Number of physical slave latches."""
        return self.cost.n_slaves

    @property
    def n_edl(self) -> int:
        """Number of error-detecting masters."""
        return self.cost.n_edl

    @property
    def sequential_area(self) -> float:
        """Sequential-logic area (Table IV metric)."""
        return self.cost.area

    @property
    def total_area(self) -> float:
        """Total area (Table V metric)."""
        return self.comb_area + self.sequential_area

    def summary(self) -> str:
        """One-line human-readable outcome summary."""
        return (
            f"{self.method}[{self.circuit_name}, c={self.overhead}]: "
            f"slaves={self.n_slaves} edl={self.n_edl} "
            f"seq={self.sequential_area:.1f} total={self.total_area:.1f} "
            f"({self.runtime_s:.2f}s)"
        )


def prepare_circuit(
    netlist: Netlist,
    library: Library,
    model: str = "path",
    clock_margin: float = 1.05,
    scheme: Optional[ClockScheme] = None,
    sta_mode: str = "incremental",
    sta_engine: str = "object",
    convert: Optional[str] = None,
) -> Tuple[ClockScheme, TwoPhaseCircuit]:
    """Derive the clock from the flop design and build the two-phase view.

    The clock follows the Table I recipe with ``P`` set to the measured
    worst arrival times ``clock_margin`` (synthesized netlists meet
    their period with a little slack; the conversion borrows it for the
    latch delays).

    ``sta_engine`` must be ``"object"``, the one timing engine.

    ``convert="two-phase"`` routes an external flop netlist through
    the conversion front end (:mod:`repro.convert`) instead: the same
    clock recipe, plus feasibility and phase-legality validation — the
    returned scheme/circuit are bit-identical to the direct path.
    """
    check_timing_engine(sta_engine)
    if convert is not None:
        if convert != "two-phase":
            raise ValueError(
                f"unknown conversion {convert!r}; only 'two-phase' is "
                f"supported"
            )
        from repro.convert import convert_to_two_phase

        design = convert_to_two_phase(
            netlist, library, scheme=scheme, clock_margin=clock_margin,
            model=model, sta_mode=sta_mode,
        )
        return design.scheme, design.circuit
    if scheme is None:
        engine = TimingEngine(
            netlist, library, model=model,
            incremental=(sta_mode == "incremental"),
        )
        worst = engine.worst_arrival()
        if worst <= 0:
            raise ValueError(f"netlist {netlist.name!r} has no timing paths")
        scheme = scheme_from_period(worst * clock_margin)
    circuit = TwoPhaseCircuit(
        netlist, scheme, library, model=model, sta_mode=sta_mode
    )
    return scheme, circuit


def run_flow(
    method: str,
    netlist: Netlist,
    library: Library,
    overhead: float,
    scheme: Optional[ClockScheme] = None,
    model: Optional[str] = None,
    sizing: bool = True,
    rescue_budget_scale: float = 1.0,
    guard: Union[Guard, GuardPolicy, str, None] = None,
    sta_mode: str = "incremental",
    sta_engine: str = "object",
    retime_cache: bool = True,
    harden_fraction: float = 0.5,
    convert: Optional[str] = None,
    store: Union[ArtifactStore, str, None] = None,
) -> FlowOutcome:
    """Run one method end to end on a private copy of ``netlist``.

    ``store`` scopes the run to an artifact store (an
    :class:`~repro.store.ArtifactStore` or a directory path): compiled
    retiming problems (and, in its memory tier, replayable sizing
    runs) are fetched from / landed in it instead of the ambient
    (process-default) store.  A persistent store shares those
    compiles across processes and invocations; results are
    bit-identical either way — the store only changes where the
    invariant work comes from.

    ``convert="two-phase"`` treats ``netlist`` as an external flop
    design entering through the conversion front end: the clock is
    derived by the conversion pass (validating region feasibility and
    phase legality on the way, with a ``phase_legality`` guard
    checkpoint), and the outcome carries the
    :class:`~repro.latches.conversion.ConversionReport`.  The
    conversion leaves the netlist structurally unchanged — the DFF
    gate *is* the master/slave carrier — so a converted flow is
    bit-identical to running the native path on the same netlist.

    ``harden_fraction`` applies to the ``"selective"`` method only:
    the fraction of the fragility-ranked window-violating masters
    committed to error-detecting latches (the rest are sped out of
    the window, falling back to EDL only when sizing cannot rescue
    them).

    ``sta_mode`` selects between event-driven cone-scoped timing
    updates (``"incremental"``, the default) and whole-engine
    invalidation on every netlist change (``"full"``, the parity
    oracle) — results are bit-identical, only the cost differs.

    ``sta_engine`` must be ``"object"``, the one timing engine.

    ``retime_cache`` enables the compiled-retiming cache and simplex
    warm-starts across an overhead sweep, and the replay of repeated
    sizing runs (:mod:`repro.synth.memo`); ``False`` recomputes and
    cold-starts every solve and re-runs every sizing pass, the
    bit-parity oracle — results are identical, only the cost differs.
    The rescue pass resizes gates under a c-dependent budget, so the
    post-rescue re-retime misses the cache by fingerprint — again
    correct, merely slower.

    ``rescue_budget_scale`` scales the G-RAR EDL-avoidance budget: 0
    disables the combinational speed-ups entirely, values above 1 buy
    error-rate reductions beyond the area-optimal point (the Section
    VI-D observation that ~5% extra area can drive error rates to 0).

    ``guard`` enables the inter-stage invariant checkpoints
    (:class:`repro.guard.GuardPolicy` or its string name — or a
    pre-built :class:`repro.guard.Guard` to share records).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    check_timing_engine(sta_engine)
    if store is not None or sizing_memo_enabled() != bool(retime_cache):
        # Re-enter with the store ambient and the sizing memo scoped to
        # the cache flag, so every cache site below (compile_retiming
        # in the retimers, the sizing passes) reads them without
        # threading the handles through.
        with use_store(open_store(store) or get_store()), use_sizing_memo(
            retime_cache
        ):
            return run_flow(
                method, netlist, library, overhead, scheme=scheme,
                model=model, sizing=sizing,
                rescue_budget_scale=rescue_budget_scale, guard=guard,
                sta_mode=sta_mode, retime_cache=retime_cache,
                harden_fraction=harden_fraction, convert=convert,
            )
    started = time.perf_counter()
    if isinstance(guard, Guard):
        sentinel = guard
        sentinel.circuit_name = sentinel.circuit_name or netlist.name
    else:
        sentinel = Guard(guard, circuit_name=netlist.name)

    delay_model = model or ("gate" if method == "grar-gate" else "path")
    conversion: Optional[ConversionReport] = None
    if convert is not None:
        if convert != "two-phase":
            raise ValueError(
                f"unknown conversion {convert!r}; only 'two-phase' is "
                f"supported"
            )
        with stage_scope("convert", circuit=netlist.name):
            from repro.convert import convert_to_two_phase

            design = convert_to_two_phase(
                netlist, library, scheme=scheme, model=delay_model,
                sta_mode=sta_mode,
            )
            scheme = design.scheme
            conversion = design.report
            sentinel.phase_legality(netlist, design.placement, "convert")
    working = netlist.copy()
    with stage_scope("prepare", circuit=netlist.name):
        if method == "rvl-movable":
            # Release the do-not-retime constraint on the masters: the
            # tool first repositions the flops themselves (Section V /
            # Table IX), then the ordinary fixed-master RVL flow runs on
            # the retimed netlist under the same clock.
            from repro.retime.ffretime import ff_retime_min_area

            if scheme is None:
                scheme, _ = prepare_circuit(
                    working, library, model=delay_model, sta_mode=sta_mode
                )
            ff_result = ff_retime_min_area(
                working, library,
                period=scheme.max_path_delay, model=delay_model,
            )
            working = ff_result.netlist
        scheme, circuit = prepare_circuit(
            working, library, model=delay_model, scheme=scheme,
            sta_mode=sta_mode,
        )
        sentinel.netlist_valid(working, library, "prepare")
        sentinel.timing_sane(circuit, "prepare")

    # The gate-based decision model is deliberately pessimistic; its
    # region conflicts are artifacts, not real infeasibilities.
    conflict_policy = "prefer-vm" if delay_model == "gate" else "error"
    window_open = scheme.window_open
    # Headroom below Pi a path needs so that some latch position keeps
    # the eq. (5) arrival out of the window (D->Q delay plus slack).
    path_target = (window_open - 2 * circuit.latch_d_q) * 0.995
    rescue_report: Optional[RescueReport] = None

    with stage_scope("retime", circuit=netlist.name):
        if method == "base":
            retiming = base_retime(
                circuit, overhead, conflict_policy=conflict_policy,
                retime_cache=retime_cache,
            )
        elif method in ("grar", "grar-gate", "grar-lp"):
            grar_solver = "lp" if method == "grar-lp" else "flow"
            retiming = grar_retime(
                circuit, overhead,
                solver=grar_solver, conflict_policy=conflict_policy,
                retime_cache=retime_cache,
            )
            if sizing:
                # Cost-aware EDL avoidance: speed the paths of masters
                # the retimer could not rescue below Pi where doing so
                # is cheaper than their EDL overhead, then re-retime so
                # the slave positions (and credits) exploit the faster
                # logic — the paper's "small area penalty to speed-up
                # the combinational logic and avoid more EDLs".
                candidates = [
                    name
                    for name in circuit.endpoint_names
                    if circuit.engine.endpoint_arrival(name)
                    > path_target + EPS
                ]
                # Budget: the EDL overhead saved plus roughly one slave
                # latch — rescued masters free their cut-set
                # constraints, which the re-retiming converts into
                # fewer slaves.
                rescue_report = rescue_paths(
                    circuit,
                    candidates,
                    target=path_target,
                    budget_per_endpoint=(
                        rescue_budget_scale
                        * (1.0 + overhead)
                        * circuit.latch_area
                    ),
                )
                if rescue_report.resized:
                    retiming = grar_retime(
                        circuit, overhead,
                        solver=grar_solver, conflict_policy=conflict_policy,
                        retime_cache=retime_cache,
                    )
        elif method == "selective":
            # Fragility-ranked selective hardening: retime for minimum
            # latch cost first, rank masters by slack under that
            # placement, commit the top ``harden_fraction`` most
            # fragile to EDL, speed the remaining fragile paths out of
            # the window, then re-retime so slave positions exploit
            # both decisions.  The committed set is the method's typed
            # promise (like a VL typing), not a timing observation.
            from repro.scenarios.fragility import (
                rank_fragility,
                select_hardened,
            )

            retiming = base_retime(
                circuit, overhead, conflict_policy=conflict_policy,
                retime_cache=retime_cache,
            )
            fragility = rank_fragility(circuit, retiming.placement)
            hardened = select_hardened(
                fragility, harden_fraction, threshold=path_target
            )
            _apply_master_cells(circuit, hardened)
            if sizing:
                mandatory = {
                    entry.endpoint: path_target
                    for entry in fragility.entries
                    if entry.endpoint not in hardened
                    and entry.arrival > path_target + EPS
                }
                if mandatory:
                    speed_paths(circuit, mandatory)
            retiming = base_retime(
                circuit, overhead, conflict_policy=conflict_policy,
                retime_cache=retime_cache,
            )
            retiming.method = "selective"
            retiming.edl_endpoints = set(hardened)
            retiming.cost = circuit.sequential_cost(
                retiming.placement, overhead, retiming.edl_endpoints
            )
            retiming.notes["harden_fraction"] = str(harden_fraction)
            retiming.notes["fragile_candidates"] = str(
                len(fragility.fragile(path_target))
            )
        elif method in ("evl", "nvl", "rvl", "rvl-noswap", "rvl-movable"):
            variant = VlVariant(method.split("-")[0])
            types = initial_types(circuit, variant)
            # The typing instantiates the virtual-library cells up
            # front; error-detecting masters load their drivers harder
            # (Fig. 2).
            _apply_master_cells(
                circuit, {name for name, is_edl in types.items() if is_edl}
            )
            if sizing:
                # The virtual library's extended-setup non-EDL latches
                # force the tool to keep their arrivals out of the
                # window; paths that cannot are sped up unconditionally
                # (the typing is committed).  EDL-typed masters exert
                # no setup pressure — the decoupling the paper
                # measures.
                mandatory = {
                    name: path_target
                    for name, is_edl in types.items()
                    if not is_edl
                    and circuit.engine.endpoint_arrival(name)
                    > path_target + EPS
                }
                if mandatory:
                    speed_paths(circuit, mandatory)
            retiming = vl_retime(
                circuit,
                overhead,
                variant=variant,
                post_swap=(method != "rvl-noswap"),
                types=types,
            )
        else:  # pragma: no cover - guarded above
            raise FlowStageError(
                f"method {method!r} passed validation but has no "
                f"retimer dispatch",
                stage="retime",
            )
        sentinel.retiming_sane(circuit, retiming, "retime")
        sentinel.cut_legality(circuit, retiming.placement, "retime")
        sentinel.phase_legality(working, retiming.placement, "retime")

    # Retiming decisions may use a conservative model (grar-gate), but
    # the final evaluation always uses the accurate path-based timing —
    # Table II judges both variants with the tool's own engine.
    if delay_model != "path":
        _, circuit = prepare_circuit(
            working, library, model="path", scheme=scheme,
            sta_mode=sta_mode,
        )

    placement = retiming.placement
    sizing_report: Optional[SizingReport] = None
    recovery_report: Optional[RecoveryReport] = None
    if sizing:
        with stage_scope("sizing", circuit=netlist.name):
            sizing_report = _incremental_compile(
                circuit, retiming, overhead, method
            )
            # Commercial-style area recovery against the method's
            # limits.  For VL flows the limits come from the latch
            # *types* — the relaxed EDL setups let recovery drift
            # arrivals into the window, which is what defeats the swap
            # step under EVL.
            recovery_report = recover_area(
                circuit,
                placement,
                _recovery_limits(circuit, retiming, method),
            )
            sentinel.netlist_valid(circuit.netlist, library, "sizing")
            sentinel.cut_legality(circuit, placement, "sizing")

    with stage_scope("finalize", circuit=netlist.name):
        edl, cost = _finalize(circuit, retiming, overhead)
        comb_area = working.comb_area(library)
        sentinel.area_accounting(
            cost,
            comb_area,
            "finalize",
            recovery_delta=(
                -recovery_report.area_saved
                if recovery_report is not None
                else None
            ),
        )
    runtime_s = time.perf_counter() - started
    metrics.count("flow.runs")
    metrics.count(f"flow.method.{method}")
    metrics.count("flow.wall_s", runtime_s)
    return FlowOutcome(
        method=method,
        circuit_name=netlist.name,
        overhead=overhead,
        retiming=retiming,
        sizing=sizing_report,
        rescue=rescue_report,
        recovery=recovery_report,
        circuit=circuit,
        edl_endpoints=edl,
        cost=cost,
        comb_area=comb_area,
        runtime_s=runtime_s,
        guard_records=sentinel.records,
        solver_backend=retiming.notes["solver_backend"],
        conversion=conversion,
    )


def _is_vl(retiming: RetimingResult) -> bool:
    return retiming.method.split("-")[0] in ("evl", "nvl", "rvl")


def _is_typed(retiming: RetimingResult) -> bool:
    """Methods whose EDL set is a committed *typing* (VL variants and
    selective hardening) rather than a post-hoc timing observation."""
    return _is_vl(retiming) or retiming.method == "selective"


def _incremental_compile(
    circuit: TwoPhaseCircuit,
    retiming: RetimingResult,
    overhead: float,
    method: str,
) -> SizingReport:
    """The post-retiming size-only incremental compile.

    Max-delay constraints: ``Pi`` for masters promised non-error-
    detecting (credited by G-RAR, or typed non-EDL by the virtual
    library), the window close for the rest — the hard limit every
    legal two-phase design must meet regardless of resiliency.
    """
    window_open = circuit.scheme.window_open
    window_close = circuit.scheme.window_close
    placement = retiming.placement

    if _is_typed(retiming):
        non_edl = set(circuit.endpoint_names) - retiming.edl_endpoints
    elif method == "base":
        non_edl = set()
    else:
        arrivals = circuit.endpoint_arrivals(placement)
        non_edl = set(retiming.credited_endpoints) | {
            name
            for name, arrival in arrivals.items()
            if arrival <= window_open + EPS
        }
    hard = {
        name: window_open if name in non_edl else window_close
        for name in circuit.endpoint_names
    }
    report = size_only_compile(circuit, placement, hard)

    # Constraint (6) clean-up: a conservative decision model (the
    # gate-based ablation resolves Vm/Vn conflicts in Vm's favour) can
    # leave slave-latch drivers arriving after the transparency closes;
    # speed their forward cones — a size-only fix like the rest.
    legality = circuit.check_legality(placement)
    if legality.forward_violations:
        fix = speed_paths(
            circuit,
            {
                node: circuit.scheme.forward_limit
                for node in set(legality.forward_violations)
            },
        )
        report.resized.update(fix.resized)
        report.area_delta += fix.area_delta
        report.unresolved.update(
            {f"(6):{k}": v for k, v in fix.unresolved.items()}
        )
    return report


def _apply_master_cells(circuit: TwoPhaseCircuit, edl_flops: Set[str]) -> None:
    """Instantiate the right master cell per flop: error-detecting
    masters present the Fig. 2 sampler load on their D pins."""
    netlist = circuit.netlist
    for gate in netlist.flops():
        want = "DFF_ED_X1" if gate.name in edl_flops else "DFF_X1"
        if gate.cell != want:
            # replace_cell emits a change event; the engine repairs the
            # flop's load cone (or fully invalidates in "full" mode).
            netlist.replace_cell(gate.name, want)


def _recovery_limits(
    circuit: TwoPhaseCircuit,
    retiming: RetimingResult,
    method: str,
) -> Dict[str, float]:
    """Per-master arrival limits for the area-recovery pass.

    Resiliency-aware and base flows pin every master that currently
    meets ``Pi`` at ``Pi`` (the tool keeps constraints it has met);
    VL flows take the limit from the instantiated latch type, so
    EDL-typed masters expose the full window to the optimizer.
    """
    window_open = circuit.scheme.window_open
    window_close = circuit.scheme.window_close
    if _is_typed(retiming):
        return {
            name: (
                window_close
                if name in retiming.edl_endpoints
                else window_open
            )
            for name in circuit.endpoint_names
        }
    arrivals = circuit.endpoint_arrivals(retiming.placement)
    return {
        name: (
            window_open
            if arrivals.get(name, 0.0) <= window_open + EPS
            else window_close
        )
        for name in circuit.endpoint_names
    }


def _finalize(
    circuit: TwoPhaseCircuit,
    retiming: RetimingResult,
    overhead: float,
) -> Tuple[Set[str], SequentialCost]:
    """Final EDL set and sequential cost after sizing.

    Graph-based methods derive EDL from post-sizing arrivals; VL
    methods keep their latch types but upgrade any endpoint whose
    arrival still violates the non-EDL setup (the manual switch).
    """
    placement = retiming.placement
    window_open = circuit.scheme.window_open

    def by_timing() -> Set[str]:
        arrivals = circuit.endpoint_arrivals(placement)
        return {
            name
            for name, arrival in arrivals.items()
            if arrival > window_open + EPS
        }

    keep_types = (
        _is_vl(retiming) and retiming.method.endswith("-noswap")
    ) or retiming.method == "selective"
    typed = set(retiming.edl_endpoints) if keep_types else set()
    # Swapping in error-detecting masters adds D-pin load, which can
    # push further borderline masters into the window; iterate to a
    # (monotone, hence convergent) fixed point.
    edl = typed | by_timing()
    for _ in range(3):
        _apply_master_cells(circuit, edl)
        grown = typed | by_timing() | edl
        if grown == edl:
            break
        edl = grown
    else:
        # Rarely non-converged within the cap; make the instantiated
        # master cells consistent with the final (largest) set.
        _apply_master_cells(circuit, edl)
    return edl, circuit.sequential_cost(placement, overhead, edl)


def run_methods(
    methods: List[str],
    netlist: Netlist,
    library: Library,
    overhead: float,
    scheme: Optional[ClockScheme] = None,
    sizing: bool = True,
    sta_mode: str = "incremental",
    retime_cache: bool = True,
) -> Dict[str, FlowOutcome]:
    """Run several methods under one shared clock scheme."""
    if scheme is None:
        scheme, _ = prepare_circuit(netlist, library, sta_mode=sta_mode)
    return {
        method: run_flow(
            method,
            netlist,
            library,
            overhead,
            scheme=scheme,
            sizing=sizing,
            sta_mode=sta_mode,
            retime_cache=retime_cache,
        )
        for method in methods
    }
