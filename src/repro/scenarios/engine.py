"""Scenario matrix engine: circuits × corners × upsets × policies.

A scenario hardens a circuit under a *policy* (uniform-``c`` G-RAR,
fragility-ranked selective hardening, or the base flow), then measures
its error rate under a delay-variation *corner* and an *upset model*
(SEU capture flips and glitch pulses from
:mod:`repro.scenarios.injectors`).  One runner task hardens a
(circuit, policy) group once and simulates each of its scenarios.  The
engine sweeps the matrix through the deadline-enforcing parallel
runner with **graceful degradation as the contract**:

* a scenario that crashes, trips a strict guard, or whose task exceeds
  the deadline becomes a typed FAILED entry in the report — the sweep
  never aborts;
* transient worker deaths (and deadline kills) are retried once with
  backoff before being recorded;
* every settled task is checkpointed to a resumable JSON memo the
  moment it lands, so a killed sweep continues group-by-group.

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


#: One scenario of a group: its corner, its upset model and its
#: Monte-Carlo seeds (``seeds[0]`` is the legacy lane-0 seed).
Scenario = Tuple[CornerSpec, UpsetSpec, Tuple[int, ...]]


@dataclass(frozen=True)
class ScenarioGroup:
    """One runner task: a (circuit, policy) flow plus the scenarios
    simulated against it, fully provisioned for a worker process."""

    circuit: str
    policy: str
    scenarios: Tuple[Scenario, ...]
    netlist: Netlist
    scheme: ClockScheme
    library: Library
    overhead: float
    cycles: int
    sim_backend: str = "compiled"
    guard: Optional[str] = None
    harden_fraction: float = 0.5
    #: how long a chaos-hang corner sleeps (tests shorten it).
    hang_s: float = 3600.0
    #: persistent artifact-store directory the worker's flow runs
    #: under (compiled problems shared across the matrix).
    store_dir: Optional[str] = None

    @property
    def keys(self) -> List[Tuple[str, str, str, str]]:
        return [
            (self.circuit, corner.name, upset.name, self.policy)
            for corner, upset, _ in self.scenarios
        ]


def run_scenario_group(group: ScenarioGroup) -> List[Dict[str, Any]]:
    """Worker entry: one flow, then one injected simulation per
    scenario, as report entries in ``group.scenarios`` order.

    A chaos drill or a failed flow raises :class:`ReproError` — the
    parallel runner turns that into a typed
    :class:`~repro.harness.parallel.TaskFailure` for the whole group.
    A failed simulation becomes its own scenario's FAILED entry, the
    one the runner reports for a task that raised it.
    """
    from repro.harness.parallel import crash_report

    corner = group.scenarios[0][0]
    if corner.chaos == "crash":
        raise FlowStageError(
            f"chaos corner {corner.name!r}: deliberate failure drill",
            stage="scenario",
            circuit=group.circuit,
        )
    if corner.chaos == "hang":
        time.sleep(group.hang_s)

    outcome = run_flow(
        group.policy,
        group.netlist,
        group.library,
        group.overhead,
        scheme=group.scheme,
        guard=group.guard,
        harden_fraction=group.harden_fraction,
        store=group.store_dir,
    )
    entries = []
    for key, (corner, upset, seeds) in zip(group.keys, group.scenarios):
        try:
            plan = build_injection_plan(
                outcome.circuit.netlist,
                group.scheme,
                cycles=group.cycles,
                seed=seeds[0],
                systematic=corner.systematic,
                sigma=corner.sigma,
                seu_rate=upset.seu_rate,
                glitch_rate=upset.glitch_rate,
                placement=outcome.retiming.placement,
                label=f"{corner.name}/{upset.name}",
            )
            # One compile shared across the whole seed sweep; each
            # report is comparison-identical to a per-seed
            # estimate_error_rate call.
            reports = estimate_error_rate_batched(
                outcome.circuit,
                outcome.retiming.placement,
                outcome.edl_endpoints,
                cycles=group.cycles,
                seeds=seeds,
                backend=group.sim_backend,
                injection=plan,
            )
        except Exception as exc:  # noqa: BLE001 - reported as the runner would
            crash = crash_report(exc)
            message, error = crash["message"], crash["error"]
            entries.append(_failed_entry(key, "crash", message, error=error))
            continue
        if len(reports) == 1:
            # Legacy single-seed blob shape, so existing state digests
            # in memos stay valid.
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
            "circuit": group.circuit,
            "corner": corner.name,
            "upset": upset.name,
            "policy": group.policy,
            "status": "ok",
            "seed": seeds[0],
            "cycles": group.cycles,
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
        entries.append(entry)
    return entries


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

    Each (circuit, policy) group's missing scenarios run as one task
    in a killable worker process (a chaos corner's scenarios one per
    task); crashes, strict-guard trips, worker deaths, and deadline
    misses settle as typed FAILED entries (with one retry for the
    transient kinds) and the sweep continues.  With ``memo_path``,
    settled scenarios are checkpointed as their task lands and
    skipped on re-runs (``retry_failed`` re-attempts FAILED ones).

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
    tasks: List[ScenarioGroup] = []
    for circuit_name, netlist in pairs:
        keys = [
            (circuit_name, corner, upset, policy)
            for corner in corners for upset in upsets for policy in policies
        ]
        all_keys.extend(keys)
        try:
            scheme, _ = prepare_circuit(netlist, library)
        except (ReproError, ValueError, KeyError) as exc:
            # A circuit that cannot even prepare degrades to FAILED
            # entries across its whole sub-matrix.
            error = exc.to_dict() if isinstance(exc, ReproError) else None
            for key in keys:
                entries[memo_cell_key(key)] = _failed_entry(
                    key, "crash", str(exc), stage="prepare", error=error
                )
            continue
        groups: Dict[Tuple[str, ...], List[Scenario]] = {}
        for key in keys:
            existing = entries.get(memo_cell_key(key))
            if existing is not None and (
                existing.get("status") == "ok" or not retry_failed
            ):
                metrics.count("scenarios.memo_hits")
                continue
            _, corner, upset, policy = key
            seeds = tuple(
                scenario_seed(seed, *key, lane=lane) for lane in range(n_seeds)
            )
            # A chaos drill travels alone: it fails only its scenario.
            group = key if CORNERS[corner].chaos else (policy,)
            groups.setdefault(group, []).append(
                (CORNERS[corner], UPSETS[upset], seeds)
            )
        tasks.extend(
            ScenarioGroup(
                circuit=circuit_name, policy=group[-1],
                scenarios=tuple(scenarios), netlist=netlist, scheme=scheme,
                library=library, overhead=overhead, cycles=cycles,
                sim_backend=sim_backend, guard=guard,
                harden_fraction=harden_fraction, hang_s=hang_s,
                store_dir=store_dir,
            )
            for group, scenarios in groups.items()
        )

    def settle(index: int, outcome: Any) -> None:
        keys = tasks[index].keys
        if not isinstance(outcome, list):
            # A TaskFailure from the deadline runner fails the group.
            outcome = [
                _failed_entry(
                    key, outcome.kind, outcome.message, outcome.attempts,
                    error=outcome.error,
                )
                for key in keys
            ]
        for key, entry in zip(keys, outcome):
            if entry["status"] != "ok":
                metrics.count(f"scenarios.failed.{entry['failure_kind']}")
            entries[memo_cell_key(key)] = entry
        memo.save(entries)

    if tasks:
        # Import here: parallel imports experiments imports flows —
        # a module-load cycle if pulled at the top.
        from repro.harness.parallel import run_tasks_with_deadline

        run_tasks_with_deadline(
            run_scenario_group,
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
