"""Scenario matrix engine: circuits × corners × upsets × policies.

One scenario is a full flow-plus-simulation run: harden the circuit
under a *policy* (uniform-``c`` G-RAR, fragility-ranked selective
hardening, or the base flow), then measure its error rate under a
delay-variation *corner* and an *upset model* (SEU capture flips and
glitch pulses from :mod:`repro.scenarios.injectors`).  The engine
sweeps the whole matrix through the deadline-enforcing parallel
runner with **graceful degradation as the contract**:

* a scenario that crashes, trips a strict guard, or exceeds the
  per-scenario deadline becomes a typed FAILED entry in the report —
  the sweep never aborts;
* transient worker deaths (and deadline kills) are retried once with
  backoff before being recorded;
* every settled scenario is checkpointed to a resumable JSON memo the
  moment it lands, so a killed sweep continues corner-by-corner.

Two corners exist purely to drill that contract: ``chaos-crash``
raises deterministically and ``chaos-hang`` sleeps past any deadline.
They are failure-injection fixtures, not physics.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import metrics
from repro.cells.library import Library
from repro.clocks import ClockScheme
from repro.errors import FlowStageError, ReproError
from repro.flows.run import METHODS, prepare_circuit, run_flow
from repro.netlist.netlist import Netlist
from repro.scenarios.injectors import build_injection_plan
from repro.sim import SIM_BACKENDS, estimate_error_rate_batched
from repro.store import (
    ArtifactStore,
    SweepMemo,
    content_digest,
    library_fingerprint,
    memo_cell_key,
    open_store,
)

#: Scenario report schema version.
REPORT_SCHEMA = "repro-scenarios/1"


@dataclass(frozen=True)
class CornerSpec:
    """One delay-variation corner (or a chaos drill)."""

    name: str
    #: systematic delay multiplier (voltage/temperature shift).
    systematic: float = 1.0
    #: per-gate random sigma (process variation).
    sigma: float = 0.0
    #: ``"crash"`` / ``"hang"`` turn the corner into a deliberate
    #: degradation drill; ``""`` is a real corner.
    chaos: str = ""


@dataclass(frozen=True)
class UpsetSpec:
    """One upset model: per-cycle strike probabilities."""

    name: str
    seu_rate: float = 0.0
    glitch_rate: float = 0.0


#: The named variation corners the CLI exposes.
CORNERS: Dict[str, CornerSpec] = {
    spec.name: spec
    for spec in (
        CornerSpec("nominal"),
        CornerSpec("slow", systematic=1.05),
        CornerSpec("fast", systematic=0.95),
        CornerSpec("sigma", sigma=0.04),
        CornerSpec("slow-sigma", systematic=1.05, sigma=0.04),
        CornerSpec("chaos-crash", chaos="crash"),
        CornerSpec("chaos-hang", chaos="hang"),
    )
}

#: The named upset models.
UPSETS: Dict[str, UpsetSpec] = {
    spec.name: spec
    for spec in (
        UpsetSpec("none"),
        UpsetSpec("seu", seu_rate=0.05),
        UpsetSpec("glitch", glitch_rate=0.05),
        UpsetSpec("seu-glitch", seu_rate=0.05, glitch_rate=0.05),
    )
}

#: Hardening policies a scenario can run (a subset of flow METHODS).
POLICIES: Tuple[str, ...] = ("base", "grar", "selective")

DEFAULT_CORNERS: Tuple[str, ...] = ("nominal", "slow", "sigma")
DEFAULT_UPSETS: Tuple[str, ...] = ("none", "seu", "glitch")
DEFAULT_POLICIES: Tuple[str, ...] = ("grar", "selective")


def scenario_seed(
    base_seed: int,
    circuit: str,
    corner: str,
    upset: str,
    policy: str,
    lane: int = 0,
) -> int:
    """The derived per-scenario seed.

    One CLI ``--seed`` fans out to every scenario through a hash of
    the scenario's identity, so (a) two identical invocations are
    byte-identical and (b) no two scenarios share vector/injection
    streams by accident.  ``lane`` indexes the Monte-Carlo seed within
    a multi-seed scenario; lane 0 hashes the legacy text so existing
    memos and reports keep their seeds.
    """
    fields = [str(base_seed), circuit, corner, upset, policy]
    if lane:
        fields.append(str(lane))
    text = "\x1f".join(fields)
    return int(content_digest(text, 8), 16)


@dataclass(frozen=True)
class ScenarioTask:
    """One scenario, fully provisioned for a worker process."""

    circuit: str
    corner: CornerSpec
    upset: UpsetSpec
    policy: str
    netlist: Netlist
    scheme: ClockScheme
    library: Library
    overhead: float
    cycles: int
    seed: int
    sim_backend: str = "compiled"
    #: the full Monte-Carlo seed sweep; empty means ``(seed,)``.
    #: ``seeds[0]`` is always the legacy lane-0 ``seed``.
    seeds: Tuple[int, ...] = ()
    guard: Optional[str] = None
    harden_fraction: float = 0.5
    #: how long a chaos-hang corner sleeps (tests shorten it).
    hang_s: float = 3600.0
    #: persistent artifact-store directory the worker's flow runs
    #: under (compiled problems shared across the matrix).
    store_dir: Optional[str] = None

    @property
    def key(self) -> Tuple[str, str, str, str]:
        return (self.circuit, self.corner.name, self.upset.name, self.policy)


def run_scenario(task: ScenarioTask) -> Dict[str, Any]:
    """Worker entry: one flow + injected simulation, as a report entry.

    Raises :class:`ReproError` on failure — the parallel runner turns
    that into a typed :class:`~repro.harness.parallel.TaskFailure`.
    """
    corner = task.corner
    if corner.chaos == "crash":
        raise FlowStageError(
            f"chaos corner {corner.name!r}: deliberate failure drill",
            stage="scenario",
            circuit=task.circuit,
        )
    if corner.chaos == "hang":
        time.sleep(task.hang_s)

    outcome = run_flow(
        task.policy,
        task.netlist,
        task.library,
        task.overhead,
        scheme=task.scheme,
        guard=task.guard,
        harden_fraction=task.harden_fraction,
        store=task.store_dir,
    )
    plan = build_injection_plan(
        outcome.circuit.netlist,
        task.scheme,
        cycles=task.cycles,
        seed=task.seed,
        systematic=corner.systematic,
        sigma=corner.sigma,
        seu_rate=task.upset.seu_rate,
        glitch_rate=task.upset.glitch_rate,
        placement=outcome.retiming.placement,
        label=f"{corner.name}/{task.upset.name}",
    )
    seeds = task.seeds or (task.seed,)
    # One compile shared across the whole seed sweep; each report is
    # comparison-identical to a per-seed estimate_error_rate call.
    reports = estimate_error_rate_batched(
        outcome.circuit,
        outcome.retiming.placement,
        outcome.edl_endpoints,
        cycles=task.cycles,
        seeds=seeds,
        backend=task.sim_backend,
        injection=plan,
    )
    if len(reports) == 1:
        # Legacy single-seed blob shape, so existing state digests in
        # memos stay valid.
        states: Any = [
            sorted(reports[0].final_flop_state.items()),
            sorted(reports[0].final_latch_state.items()),
        ]
    else:
        states = [
            [
                sorted(r.final_flop_state.items()),
                sorted(r.final_latch_state.items()),
            ]
            for r in reports
        ]
    state_blob = json.dumps(states, separators=(",", ":"))
    entry = {
        "circuit": task.circuit,
        "corner": corner.name,
        "upset": task.upset.name,
        "policy": task.policy,
        "status": "ok",
        "seed": task.seed,
        "cycles": task.cycles,
        "error_cycles": sum(r.error_cycles for r in reports),
        "error_rate": sum(r.error_rate for r in reports) / len(reports),
        "non_edl_violations": sum(
            r.non_edl_violations for r in reports
        ),
        "n_edl": outcome.n_edl,
        "n_slaves": outcome.n_slaves,
        "total_area": outcome.total_area,
        "injected": plan.counts(),
        "state_digest": content_digest(state_blob, 16),
    }
    if len(seeds) > 1:
        entry["seeds"] = list(seeds)
        entry["per_seed_error_rates"] = [r.error_rate for r in reports]
    return entry


def _failed_entry(
    key: Tuple[str, str, str, str],
    kind: str,
    message: str,
    attempts: int = 1,
    stage: Optional[str] = None,
    error: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A typed FAILED report entry (the degradation contract's unit)."""
    circuit, corner, upset, policy = key
    return {
        "circuit": circuit,
        "corner": corner,
        "upset": upset,
        "policy": policy,
        "status": "failed",
        "failure_kind": kind,
        "attempts": attempts,
        "stage": stage or (error or {}).get("stage"),
        "message": message,
        "error": error,
    }


@dataclass
class ScenarioReport:
    """The settled scenario matrix."""

    seed: int
    overhead: float
    cycles: int
    sim_backend: str
    harden_fraction: float
    entries: List[Dict[str, Any]] = field(default_factory=list)
    #: wall clock of this invocation; deliberately not serialized so
    #: identical invocations produce byte-identical report files.
    wall_s: float = 0.0

    @property
    def ok_entries(self) -> List[Dict[str, Any]]:
        return [e for e in self.entries if e["status"] == "ok"]

    @property
    def failed_entries(self) -> List[Dict[str, Any]]:
        return [e for e in self.entries if e["status"] != "ok"]

    def to_dict(self) -> Dict[str, Any]:
        """JSON form: run parameters plus sorted entries.

        The producing backend and wall-clock times are excluded on
        purpose: both backends must render the identical file (CI
        diffs them), and identical invocations must be byte-identical.
        """
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "overhead": self.overhead,
            "cycles": self.cycles,
            "harden_fraction": self.harden_fraction,
            "n_ok": len(self.ok_entries),
            "n_failed": len(self.failed_entries),
            "entries": self.entries,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def run_scenarios(
    circuits: Union[Mapping[str, Netlist], Sequence[Tuple[str, Netlist]]],
    library: Library,
    corners: Sequence[str] = DEFAULT_CORNERS,
    upsets: Sequence[str] = DEFAULT_UPSETS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    overhead: float = 1.0,
    cycles: int = 96,
    seed: int = 2017,
    n_seeds: int = 1,
    sim_backend: str = "compiled",
    guard: Optional[str] = None,
    jobs: int = 1,
    deadline_s: Optional[float] = None,
    memo_path: Optional[Union[str, Path]] = None,
    retry_failed: bool = False,
    harden_fraction: float = 0.5,
    hang_s: float = 3600.0,
    store: Union[ArtifactStore, str, Path, None] = None,
) -> ScenarioReport:
    """Run the scenario matrix; degrade gracefully, resume from memo.

    Every (circuit, corner, upset, policy) combination runs once in a
    killable worker process; crashes, strict-guard trips, worker
    deaths, and deadline misses settle as typed FAILED entries (with
    one retry for the transient kinds) and the sweep continues.  With
    ``memo_path``, completed scenarios are checkpointed as they land
    and skipped on re-runs (``retry_failed`` re-attempts FAILED ones).

    ``n_seeds`` widens each scenario into a Monte-Carlo sweep over
    derived seeds sharing one simulator compile (lane 0 is the
    single-seed scenario's seed); entries then carry the mean
    ``error_rate`` plus per-seed rates.

    ``store`` attaches an artifact store: workers run their flows
    under it (compiled problems shared across the matrix and across
    invocations), and a *persistent* store additionally carries the
    memo as a ``"scenario-memo"`` artifact keyed by the run config —
    a warm rerun resumes from the store with no ``memo_path`` at all.
    Reports are byte-identical with or without a store.  Either memo
    (:class:`~repro.store.SweepMemo`) resumes only a run of the same
    library, cycles, seeds, overhead and harden fraction; the
    simulation backend is bit-identical by contract and stays out of
    that config.
    """
    if sim_backend not in SIM_BACKENDS:
        raise ValueError(
            f"unknown simulation backend {sim_backend!r}; "
            f"expected one of {SIM_BACKENDS}"
        )
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    for name, known, label in (
        (corners, CORNERS, "corner"),
        (upsets, UPSETS, "upset model"),
    ):
        unknown = [n for n in name if n not in known]
        if unknown:
            raise ValueError(
                f"unknown {label}(s) {unknown}; "
                f"choose from {sorted(known)}"
            )
    bad_policies = [p for p in policies if p not in METHODS]
    if bad_policies:
        raise ValueError(
            f"unknown polic(ies) {bad_policies}; choose from {METHODS}"
        )

    if isinstance(circuits, Mapping):
        pairs = sorted(circuits.items())
    else:
        pairs = list(circuits)

    store_obj = open_store(store)
    store_dir = (
        str(store_obj.root)
        if store_obj is not None and store_obj.persistent
        else None
    )
    memo = SweepMemo(
        "scenario-memo",
        lambda: {
            "library": library_fingerprint(library),
            "cycles": cycles,
            "seed": seed,
            "n_seeds": n_seeds,
            "overhead": overhead,
            "harden_fraction": harden_fraction,
        },
        memo_path,
        store_obj,
    )
    entries: Dict[str, Dict[str, Any]] = memo.load()

    started = time.perf_counter()
    all_keys: List[Tuple[str, str, str, str]] = []
    tasks: List[ScenarioTask] = []
    for circuit_name, netlist in pairs:
        try:
            scheme, _ = prepare_circuit(netlist, library)
        except (ReproError, ValueError, KeyError) as exc:
            # A circuit that cannot even prepare degrades to FAILED
            # entries across its whole sub-matrix.
            for corner_name in corners:
                for upset_name in upsets:
                    for policy in policies:
                        key = (circuit_name, corner_name, upset_name, policy)
                        all_keys.append(key)
                        entries[memo_cell_key(key)] = _failed_entry(
                            key,
                            kind="crash",
                            message=str(exc),
                            stage="prepare",
                            error=(
                                exc.to_dict()
                                if isinstance(exc, ReproError)
                                else None
                            ),
                        )
            continue
        for corner_name in corners:
            for upset_name in upsets:
                for policy in policies:
                    key = (circuit_name, corner_name, upset_name, policy)
                    all_keys.append(key)
                    existing = entries.get(memo_cell_key(key))
                    if existing is not None and (
                        existing.get("status") == "ok" or not retry_failed
                    ):
                        metrics.count("scenarios.memo_hits")
                        continue
                    lane_seeds = tuple(
                        scenario_seed(
                            seed, circuit_name, corner_name,
                            upset_name, policy, lane=lane,
                        )
                        for lane in range(n_seeds)
                    )
                    tasks.append(
                        ScenarioTask(
                            circuit=circuit_name,
                            corner=CORNERS[corner_name],
                            upset=UPSETS[upset_name],
                            policy=policy,
                            netlist=netlist,
                            scheme=scheme,
                            library=library,
                            overhead=overhead,
                            cycles=cycles,
                            seed=lane_seeds[0],
                            seeds=lane_seeds,
                            sim_backend=sim_backend,
                            guard=guard,
                            harden_fraction=harden_fraction,
                            hang_s=hang_s,
                            store_dir=store_dir,
                        )
                    )

    def settle(index: int, outcome: Any) -> None:
        task = tasks[index]
        if isinstance(outcome, dict):
            entry = outcome
        else:
            # A TaskFailure from the deadline runner.
            entry = _failed_entry(
                task.key,
                kind=outcome.kind,
                message=outcome.message,
                attempts=outcome.attempts,
                error=outcome.error,
            )
            metrics.count(f"scenarios.failed.{outcome.kind}")
        entries[memo_cell_key(task.key)] = entry
        memo.save(entries)

    if tasks:
        # Import here: parallel imports experiments imports flows —
        # a module-load cycle if pulled at the top.
        from repro.harness.parallel import run_tasks_with_deadline

        run_tasks_with_deadline(
            run_scenario,
            tasks,
            jobs=jobs,
            deadline_s=deadline_s,
            on_result=settle,
        )

    report = ScenarioReport(
        seed=seed,
        overhead=overhead,
        cycles=cycles,
        sim_backend=sim_backend,
        harden_fraction=harden_fraction,
        entries=[entries[memo_cell_key(key)] for key in sorted(set(all_keys))],
        wall_s=time.perf_counter() - started,
    )
    metrics.count("scenarios.runs")
    metrics.count("scenarios.entries", len(report.entries))
    metrics.count("scenarios.failed", len(report.failed_entries))
    return report
