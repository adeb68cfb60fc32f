"""Parallel experiment engine: fan suite cells out over processes.

The paper's table sweep is embarrassingly parallel — every
(circuit, method, overhead) cell is an independent flow run — yet
:class:`~repro.harness.experiments.ExperimentSuite` computes cells
lazily, one task at a time, as the tables pull on them.  This module
adds the production-scale path: :func:`run_suite_parallel` plans the
tasks a table selection needs — the same
:class:`~repro.harness.cell.CellTask` a lazy pull builds — fans them
out over :func:`run_tasks_with_deadline`, the one process runner,
which the scenario matrix uses too, and settles each result into the
suite the moment it lands, so the tables render from warm cache.

Design points:

* **one cell path** — a worker runs
  :func:`~repro.harness.cell.run_cell`, the code the suite runs
  in-process, on the parent's exact netlist, clock scheme and library,
  and the parent settles its results with
  :meth:`ExperimentSuite.settle`, the in-process rule.  Parallel tables
  are bit-identical to sequential ones by construction.
* **c-independent re-costing is respected** — methods in
  ``ExperimentSuite.C_INDEPENDENT`` run once at the canonical
  overhead ``c = 1.0``; the other overheads are derived in-process by
  re-costing, so derived cells never spawn a worker.
* **cells that need error rates simulate in the worker** — Table VIII
  methods carry the simulation along, so a resumed
  :class:`~repro.harness.cell.FlowRecord` never forces a sequential
  re-run.
* **batched checkpoints** — each settled cell marks the suite's memo
  dirty (a write every ``checkpoint_every`` cells) and the sweep
  flushes once more when it ends or is interrupted, so a killed sweep
  resumes from its last checkpoint.
* **metrics ride along** — the runner runs every worker under a fresh
  :mod:`repro.metrics` collector and merges it into the caller's
  ambient collector as each result arrives, so ``--bench-out`` sees
  the whole fleet.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as connection_wait
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import metrics
from repro.errors import DeadlineError, FlowStageError, ReproError
from repro.harness.cell import CellResult, CellTask, run_cell
from repro.harness.experiments import LEVELS, ExperimentSuite
from repro.store import get_store, open_store, use_store

#: Methods whose cells the full table set (I-IX + VI-D) reads.
TABLE_METHODS: Tuple[str, ...] = (
    "base",
    "evl",
    "nvl",
    "rvl",
    "rvl-movable",
    "grar",
    "grar-gate",
)

#: Methods Table VIII simulates error rates for.
ERROR_RATE_METHODS = frozenset({"base", "rvl", "grar"})

#: Flow methods each table pulls on (table ids as the CLI spells them).
TABLE_METHOD_NEEDS: Dict[str, Tuple[str, ...]] = {
    "table i": (),
    "table ii": ("grar-gate", "grar"),
    "table iii": ("nvl", "evl", "rvl"),
    "table iv": ("base", "rvl", "grar"),
    "table v": ("base", "rvl", "grar"),
    "table vi": ("base", "rvl", "grar"),
    "table vii": ("base", "rvl", "grar"),
    "table viii": ("base", "rvl", "grar"),
    "table ix": ("rvl", "rvl-movable"),
    "vi-d": ("grar",),
}

#: Tables that additionally need simulated error rates.
ERROR_RATE_TABLES = frozenset({"table viii"})


def methods_for_tables(
    wanted: Optional[Iterable[str]],
) -> Tuple[Tuple[str, ...], bool]:
    """(methods, need_error_rates) for a table selection (None = all)."""
    if not wanted:
        return TABLE_METHODS, True
    methods: List[str] = []
    need_rates = False
    for table_id in wanted:
        table_id = table_id.lower()
        for method in TABLE_METHOD_NEEDS.get(table_id, ()):
            if method not in methods:
                methods.append(method)
        if table_id in ERROR_RATE_TABLES:
            need_rates = True
    return tuple(methods), need_rates


def plan_cells(
    suite: ExperimentSuite,
    methods: Sequence[str] = TABLE_METHODS,
    error_rates: bool = True,
) -> List[CellTask]:
    """The tasks the suite still needs, ready to ship.

    Each is the task :meth:`ExperimentSuite.task` builds for a
    (circuit, method) at some overhead level, one per distinct sweep:
    c-independent methods contribute only their canonical ``c = 1.0``
    cell, and cells already settled — including from a resumed memo —
    are skipped unless they still owe an error rate.
    """
    tasks: List[CellTask] = []
    for name in suite.circuit_names:
        for method in methods:
            rates = error_rates and method in ERROR_RATE_METHODS
            planned: Set[float] = set()
            for _, level in LEVELS:
                task = suite.task(name, method, level, rates)
                if task is not None and planned.isdisjoint(task.sweep):
                    tasks.append(task)
                    planned.update(task.sweep)
    return tasks


def _ship_cell(task: CellTask) -> List[CellResult]:
    """Worker entry: :func:`run_cell` under the task's shared store
    directory (opened once for the whole sweep, so its memory tier
    carries from point to point); a raised error stays behind, and its
    dict crosses the pipe."""
    store = open_store(task.store_dir) if task.store_dir else get_store()
    with use_store(store):
        return [replace(result, raised=None) for result in run_cell(task)]


# -- deadline-enforcing task runner ------------------------------------------

#: Failure kinds worth a second attempt: a killed-at-deadline or dead
#: worker may have been a transient resource blip; a worker that
#: *reported* an exception is deterministic and retrying cannot help.
RETRYABLE_KINDS = frozenset({"deadline", "worker-death"})


@dataclass
class TaskFailure:
    """Typed outcome of a task that could not produce a result."""

    #: ``"deadline"`` (killed at the per-task deadline),
    #: ``"worker-death"`` (process died without reporting), or
    #: ``"crash"`` (the worker reported an exception).
    kind: str
    message: str
    attempts: int
    wall_s: float = 0.0
    #: structured ``ReproError`` dict when the worker reported one.
    error: Optional[Dict[str, Any]] = None
    error_type: Optional[str] = None
    payload: Dict[str, Any] = field(default_factory=dict)

    def error_dict(self) -> Dict[str, Any]:
        """The failure in :meth:`ReproError.to_dict` form: the worker's
        own error (when it reported one) plus the failure kind and the
        attempt count; a deadline miss is a :class:`DeadlineError`."""
        error = dict(self.error or {})
        error.setdefault("message", self.message)
        error["stage"] = error.get("stage") or "parallel"
        if self.kind == "deadline":
            error["type"] = DeadlineError.__name__
        else:
            error.setdefault(
                "type", self.error_type or FlowStageError.__name__
            )
        payload = dict(error.get("payload") or {})
        payload.update(self.payload)
        payload["failure_kind"] = self.kind
        payload["attempts"] = self.attempts
        error["payload"] = payload
        return error

    def to_error(self) -> ReproError:
        """The failure as a raisable typed error."""
        return ReproError.from_dict(self.error_dict())


def crash_report(exc: BaseException) -> Dict[str, Any]:
    """How a task that raised ``exc`` is reported: its message, its
    :meth:`ReproError.to_dict` form (``None`` when untyped) and its
    type name.  The runner reports every crashed task by this rule,
    and the scenario worker a failed simulation inside its group."""
    typed = isinstance(exc, ReproError)
    return {
        "message": str(exc) if typed else f"{type(exc).__name__}: {exc}",
        "error": exc.to_dict() if typed else None,
        "type": type(exc).__name__,
    }


def _deadline_entry(conn, worker, task) -> None:
    """Child-process entry: run the task under a fresh metrics
    collector, then report the outcome and the collector over the
    pipe."""
    collector = metrics.MetricsCollector()
    with conn:
        try:
            with metrics.collect_into(collector):
                report = ("ok", worker(task))
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - crosses a process
            report = ("crash", crash_report(exc))
        conn.send(report + (collector.to_dict(),))


def _stop(process) -> None:
    """Terminate a worker process (escalating to a kill)."""
    process.terminate()
    process.join(5.0)
    if process.is_alive():  # pragma: no cover - stuck kill
        process.kill()
        process.join()


def run_tasks_with_deadline(
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: int = 1,
    deadline_s: Optional[float] = None,
    backoff_s: float = 0.25,
    retry_kinds: frozenset = RETRYABLE_KINDS,
    max_attempts: int = 2,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Union[Any, TaskFailure]]:
    """Run ``worker(task)`` per task in killable worker processes.

    The one process runner of both sweeps (the table suite and the
    scenario matrix).  It owns its processes — one
    :class:`multiprocessing.Process` plus pipe per attempt, at most
    ``jobs`` live at a time, even at ``jobs=1`` — because only a
    separate process can be killed: a task that exceeds ``deadline_s``
    is terminated and recorded as ``TaskFailure(kind="deadline")``; a
    worker that dies without reporting (OOM kill, segfault) as
    ``kind="worker-death"``.  Kinds in ``retry_kinds`` are retried
    after a ``backoff_s`` pause (scaled by the attempt number) up to
    ``max_attempts`` total attempts; reported exceptions
    (``kind="crash"``) are deterministic and fail immediately.

    Each worker runs under a fresh :mod:`repro.metrics` collector,
    merged into the caller's ambient collector whenever a worker
    reports (ok or crash) — a killed or dead worker's counters are
    lost with it.  If the runner itself is interrupted, it stops every
    live worker before the exception propagates.

    Returns one entry per task, in task order: the worker's return
    value or a :class:`TaskFailure`.  The caller decides whether a
    failure degrades gracefully (a FAILED report entry) or raises
    (:meth:`TaskFailure.to_error`).

    ``on_result`` is invoked as ``on_result(task_index, outcome)`` the
    moment each task settles (result or final failure, not interim
    retries) — the hook resumable sweeps use to checkpoint their memo
    while later tasks are still running.
    """
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    jobs = max(1, int(jobs))
    ambient = metrics.current()
    results: List[Union[Any, TaskFailure]] = [None] * len(tasks)
    queue = deque((index, 1) for index in range(len(tasks)))
    #: retries waiting out their backoff: (not_before, index, attempt).
    delayed: List[Tuple[float, int, int]] = []
    #: conn -> (task index, attempt, process, start time).
    live: Dict[Any, Tuple[int, int, Any, float]] = {}

    def settle(index: int, attempt: int, outcome: Any) -> None:
        if (
            isinstance(outcome, TaskFailure)
            and outcome.kind in retry_kinds
            and attempt < max_attempts
        ):
            metrics.count("parallel.deadline.retries")
            delayed.append(
                (time.monotonic() + backoff_s * attempt, index, attempt + 1)
            )
        else:
            results[index] = outcome
            if on_result is not None:
                on_result(index, outcome)

    try:
        while queue or delayed or live:
            now = time.monotonic()
            still_delayed: List[Tuple[float, int, int]] = []
            for not_before, index, attempt in delayed:
                if now >= not_before:
                    queue.append((index, attempt))
                else:
                    still_delayed.append((not_before, index, attempt))
            delayed = still_delayed

            while queue and len(live) < jobs:
                index, attempt = queue.popleft()
                parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
                process = multiprocessing.Process(
                    target=_deadline_entry,
                    args=(child_conn, worker, tasks[index]),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                live[parent_conn] = (
                    index, attempt, process, time.monotonic()
                )

            if not live:
                if delayed:
                    pause = min(nb for nb, _, _ in delayed) - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                continue

            now = time.monotonic()
            bounds: List[float] = [nb - now for nb, _, _ in delayed]
            if deadline_s is not None:
                bounds.extend(
                    started + deadline_s - now
                    for (_, _, _, started) in live.values()
                )
            timeout = max(0.0, min(bounds)) if bounds else None
            ready = connection_wait(list(live), timeout=timeout)

            for conn in ready:
                index, attempt, process, started = live.pop(conn)
                wall_s = time.monotonic() - started
                try:
                    tag, body, worker_metrics = conn.recv()
                except EOFError:
                    process.join()
                    outcome = TaskFailure(
                        kind="worker-death",
                        message=(
                            f"worker died without reporting a result "
                            f"(exit code {process.exitcode})"
                        ),
                        attempts=attempt,
                        wall_s=wall_s,
                        payload={"exitcode": process.exitcode},
                    )
                else:
                    process.join()
                    if ambient is not None:
                        ambient.merge_dict(worker_metrics)
                    outcome = body if tag == "ok" else TaskFailure(
                        kind="crash",
                        message=body["message"],
                        attempts=attempt,
                        wall_s=wall_s,
                        error=body.get("error"),
                        error_type=body.get("type"),
                    )
                finally:
                    conn.close()
                settle(index, attempt, outcome)

            if deadline_s is not None:
                now = time.monotonic()
                for conn in [
                    c
                    for c, (_, _, _, started) in live.items()
                    if now - started > deadline_s
                ]:
                    index, attempt, process, started = live.pop(conn)
                    _stop(process)
                    conn.close()
                    metrics.count("parallel.deadline.kills")
                    settle(
                        index,
                        attempt,
                        TaskFailure(
                            kind="deadline",
                            message=(
                                f"task exceeded its {deadline_s:g}s "
                                f"deadline and was killed "
                                f"(attempt {attempt})"
                            ),
                            attempts=attempt,
                            wall_s=time.monotonic() - started,
                            payload={"deadline_s": deadline_s},
                        ),
                    )
    finally:
        for conn, (_, _, process, _) in live.items():
            _stop(process)
            conn.close()
    return results


def _failure_results(
    task: CellTask, failure: TaskFailure
) -> List[CellResult]:
    """One FAILED :class:`CellResult` per sweep point of a dead task."""
    error = failure.error_dict()
    error["circuit"] = error.get("circuit") or task.circuit
    return [
        CellResult(
            circuit=task.circuit,
            method=task.method,
            overhead=overhead,
            error=error,
            wall_s=failure.wall_s if position == 0 else 0.0,
        )
        for position, overhead in enumerate(task.sweep)
    ]


def run_suite_parallel(
    suite: ExperimentSuite,
    jobs: int,
    methods: Optional[Sequence[str]] = None,
    error_rates: bool = True,
    checkpoint_every: Optional[int] = None,
    deadline_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Prewarm the suite's memo with ``jobs`` worker processes.

    Every planned task runs through :func:`run_tasks_with_deadline`
    (at ``jobs=1`` too, in one worker process) and settles into the
    suite — and its memo checkpoints — the moment it lands, so an
    interrupted sweep keeps every cell up to its last checkpoint and
    flushes the memo once more on the way out.  Returns a bench
    summary (cells, wall clock, per-cell timings); the suite
    afterwards renders every table from the warm memo.  Nothing the
    sweep leaves behind depends on the order tasks complete in: the
    memo's keys are sorted and the new failures are reported in
    (circuit, method, c) order.

    ``deadline_s`` enforces a per-task wall-clock deadline: a hung
    cell is terminated, retried once, and on the second miss recorded
    as a ``FailedOutcome`` whose error is a :class:`DeadlineError`
    dict.

    Failures settle by the suite's one rule
    (:meth:`ExperimentSuite.settle`): isolated suites record
    ``FailedOutcome`` cells and NaN rates, strict suites finish the
    sweep and then raise the lowest (circuit, method, c) cell's error,
    a failed simulation's as a failed flow's, with its original
    :class:`ReproError` type.
    """
    if checkpoint_every is None:
        checkpoint_every = max(suite.checkpoint_every, 8)
    suite.checkpoint_every = max(1, int(checkpoint_every))

    # Taken before planning: a circuit that cannot be prepared settles
    # its failed cells while the tasks are planned.
    known_failures = len(suite.failures)
    tasks = plan_cells(
        suite, methods=tuple(methods or TABLE_METHODS),
        error_rates=error_rates,
    )
    started = time.perf_counter()
    # Cells settled as failed while planning ran no task; the summary
    # lists them all the same, at no wall time.
    results: List[CellResult] = [
        CellResult(f.circuit_name, f.method, f.overhead, error=f.error)
        for f in suite.failures[known_failures:]
    ]
    strict_errors: List[Tuple[Tuple[str, str, float], ReproError]] = []

    def settle(index: int, outcome: Any) -> None:
        if isinstance(outcome, TaskFailure):
            outcome = _failure_results(tasks[index], outcome)
        for result in outcome:
            results.append(result)
            try:
                suite.settle(result)
            except ReproError as exc:
                strict_errors.append((result.key, exc))

    try:
        run_tasks_with_deadline(
            _ship_cell, tasks, jobs=jobs, deadline_s=deadline_s,
            on_result=settle,
        )
    finally:
        suite.failures[known_failures:] = sorted(
            suite.failures[known_failures:],
            key=lambda f: (f.circuit_name, f.method, f.overhead),
        )
        suite.checkpoint(force=True)
    wall_s = time.perf_counter() - started
    if strict_errors:
        raise min(strict_errors, key=lambda item: item[0])[1]

    results.sort(key=lambda r: r.key)
    busy_s = sum(r.wall_s for r in results)
    # None = unmeasured (no simulation, or a wall clock too coarse to
    # resolve the run) — only measured cells enter the average.
    sim_rates = [
        r.sim_cycles_per_sec
        for r in results
        if r.sim_cycles_per_sec is not None
    ]
    summary: Dict[str, Any] = {
        "jobs": jobs,
        "sim_backend": suite.sim_backend,
        "sim_cells": len(sim_rates),
        "sim_cycles_per_sec": round(
            sum(sim_rates) / len(sim_rates), 2
        ) if sim_rates else None,
        "n_cells": len(results),
        "n_failed": sum(1 for r in results if r.failed),
        "wall_s": round(wall_s, 6),
        "cells_wall_s": round(busy_s, 6),
        "parallel_efficiency": round(
            busy_s / (wall_s * jobs), 4
        ) if wall_s > 0 and jobs > 0 else 0.0,
        "cells": [
            {
                "circuit": r.circuit,
                "method": r.method,
                "overhead": r.overhead,
                "wall_s": round(r.wall_s, 6),
                "failed": r.failed,
                "solver_backend": getattr(r.outcome, "solver_backend", ""),
                "sim_backend": r.sim_backend,
                "sim_cycles_per_sec": (
                    None
                    if r.sim_cycles_per_sec is None
                    else round(r.sim_cycles_per_sec, 2)
                ),
            }
            for r in results
        ],
    }
    metrics.count("parallel.cells", len(results))
    metrics.count("parallel.wall_s", wall_s)
    return summary
