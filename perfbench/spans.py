"""Outside-in layer spans for the traced benchmark run.

The program records flat counters only (``repro.metrics``).  This
module wraps each layer's public entry points from outside: every call
opens a span (name, start, end, parent) on a :class:`Tracer`, spans
stay in memory, and the run writes them out at the end as Chrome
trace-event JSON.  A layer's self time is its spans' duration minus
the time their direct child spans cover.

Scenario sweeps run each task in a forked worker whose
``repro.metrics`` collector dies with it.  The runner wrapper hands
every worker a fresh collector and tracer state, and the worker dumps
both into a per-worker spool file that the parent folds back into the
run's trace once the runner returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import metrics

#: (span name, defining module, attribute) of every wrapped entry
#: point.  A dotted attribute names a method on a class.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("circuits.build", "repro.circuits.suite", "build_benchmark"),
    ("netlist.parse", "repro.convert.twophase", "load_netlist"),
    ("convert", "repro.convert.twophase", "convert_to_two_phase"),
    ("latches.legality", "repro.latches.resilient",
     "TwoPhaseCircuit.check_legality"),
    ("latches.arrivals", "repro.latches.resilient",
     "TwoPhaseCircuit.endpoint_arrivals"),
    ("flows.run", "repro.flows.run", "run_flow"),
    ("flows.prepare", "repro.flows.run", "prepare_circuit"),
    ("retime.grar", "repro.retime.grar", "grar_retime"),
    ("retime.base", "repro.retime.base", "base_retime"),
    ("retime.ff", "repro.retime.ffretime", "ff_retime_min_area"),
    ("retime.compile", "repro.retime.compile", "compile_retiming"),
    ("retime.solve", "repro.retime.mincostflow", "solve_min_cost_flow"),
    ("vl.retime", "repro.vl.flow", "vl_retime"),
    ("synth.speed", "repro.synth.sizing", "speed_paths"),
    ("synth.recover", "repro.synth.recovery", "recover_area"),
    ("synth.size", "repro.synth.sizing", "size_only_compile"),
    ("synth.rescue", "repro.synth.sizing", "rescue_paths"),
    ("sim", "repro.sim.batch", "estimate_error_rate_batched"),
    ("scenarios.plan", "repro.scenarios.injectors", "build_injection_plan"),
    ("harness", "repro.harness.parallel", "run_tasks_with_deadline"),
)


def _flow_attrs(args: tuple, kwargs: dict) -> Dict[str, Any]:
    """The (circuit, method, c) identity of a ``run_flow`` call."""
    named = dict(zip(("method", "netlist", "library", "overhead"), args))
    named.update(kwargs)
    return {
        "circuit": named["netlist"].name,
        "method": named["method"],
        "c": named["overhead"],
    }


class Tracer:
    """In-memory span recorder for one benchmark run (one process, plus
    the spans its forked workers send back through the spool)."""

    def __init__(self, workload: str, run_id: str, spool: Path) -> None:
        self.workload = workload
        self.run_id = run_id
        self.spool = spool
        self.collector = metrics.MetricsCollector()
        #: [id, parent, name, start, end, pid, attrs]
        self.spans: List[list] = []
        self._stack: List[Optional[str]] = [None]
        self._next = 0

    def open(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> list:
        self._next += 1
        pid = os.getpid()
        span = [f"{pid}.{self._next}", self._stack[-1], name,
                time.perf_counter(), None, pid, attrs]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        span = self.open(name, attrs)
        try:
            yield span
        finally:
            self.close(span)

    # -- forked workers ----------------------------------------------------

    def worker_entry(self, spool: Path, worker: Callable, task: Any) -> Any:
        """Run ``worker(task)`` inside a forked worker, then spool the
        worker's spans and counters for the parent to merge."""
        # The fork copied the parent's spans; this worker reports only
        # its own, parented under the runner span still on the stack.
        self.spans = []
        self.collector = metrics.MetricsCollector()
        layer = worker.__module__.split(".")[1]
        try:
            with metrics.collect_into(self.collector):
                with self.span(f"{layer}.task"):
                    return worker(task)
        finally:
            path = spool / f"worker-{os.getpid()}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps({
                "spans": self.spans,
                "metrics": self.collector.to_dict(),
            }))
            os.replace(tmp, path)

    def absorb_spool(self, spool: Path) -> None:
        """Fold every worker's spool file into this run."""
        for path in sorted(spool.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            self.spans.extend(payload["spans"])
            self.collector.merge_dict(payload["metrics"])
            path.unlink()

    # -- output ------------------------------------------------------------

    def chrome_trace(self, origin: float) -> Dict[str, Any]:
        """The run as Chrome trace-event JSON (loads in Perfetto);
        ``origin`` is the ``perf_counter`` time of timestamp 0."""
        events = []
        for sid, parent, name, start, end, pid, attrs in self.spans:
            args = {"id": sid, "parent": parent, "workload": self.workload,
                    "run": self.run_id}
            args.update(attrs or {})
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": pid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    attrs_of = _flow_attrs if name == "flows.run" else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name, attrs_of(args, kwargs) if attrs_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return traced


def _wrap_runner(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(worker, tasks, *args, **kwargs):
        span = tracer.open("harness", {"tasks": len(tasks)})
        spool = tracer.spool / span[0]
        spool.mkdir(parents=True)
        entry = functools.partial(tracer.worker_entry, spool, worker)
        try:
            return fn(entry, tasks, *args, **kwargs)
        finally:
            tracer.close(span)
            tracer.absorb_spool(spool)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every entry point wherever a ``repro`` module bound it.

    Call sites that import the entry point inside a function body
    resolve it from the defining module at call time, which is patched
    too.
    """
    for name, module_name, attr in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            setattr(owner, method, _wrap(tracer, name, getattr(owner, method)))
            continue
        original = getattr(module, attr)
        wrapper = (
            _wrap_runner(tracer, original) if name == "harness"
            else _wrap(tracer, name, original)
        )
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)


# -- per-layer metrics --------------------------------------------------------

#: span name -> per-layer self-time metric name.  A runner span's self
#: time is its dispatch cost: runner wall minus the workers' walls.
SELF_TIME = {
    **{name: f"{name}.self_s" for name, _, _ in ENTRY_POINTS},
    "scenarios.task": "scenarios.task.self_s",
    "harness": "harness.dispatch_s",
}

#: program counters reported as they are.
COUNTERS = {
    "simplex.pivots": "simplex.pivots",
    "mcf.solves": "mcf.solves",
    "sta.incremental.events": "sta.incremental.events",
    "sta.incremental.nodes_recomputed": "sta.incremental.nodes_recomputed",
    "sta.full_recompute": "sta.full_recompute",
    "sta.forward.compute": "sta.forward.compute",
    "sim.cycles": "sim.cycles",
    "harness.retries": "parallel.deadline.retries",
    "store.compiled-grar.hits": "store.compiled-grar.hits",
    "store.compiled-grar.misses": "store.compiled-grar.misses",
    "store.compiled-grar.evictions": "store.compiled-grar.evictions",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[list], counters: Dict[str, float],
                  body_id: str) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``body_id`` is the workload body's root span; its own self time is
    the part of the body no layer span covers.
    """
    by_id = {span[0]: span for span in spans}
    covered: Dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for sid, parent, name, start, end, *_ in spans:
        self_s[name] += (end - start) - covered[sid]
        calls[name] += 1

    def nested_in_flow(span: list) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == "flows.run":
                return True
            parent = by_id.get(parent[1])
        return False

    flows = [s for s in spans if s[2] == "flows.run" and not nested_in_flow(s)]
    distinct = {(s[6]["circuit"], s[6]["method"], s[6]["c"]) for s in flows}
    sim_s = sum(s[4] - s[3] for s in spans if s[2] == "sim")
    body = by_id[body_id]
    body_s = body[4] - body[3]

    out = {metric: self_s.get(name, 0.0) for name, metric in SELF_TIME.items()}
    out.update({metric: counters.get(name, 0.0)
                for metric, name in COUNTERS.items()})
    simplex_solves = (counters.get("mcf.attempt.simplex.ok", 0.0)
                      + counters.get("mcf.attempt.simplex.failed", 0.0))
    hits = counters.get("store.compiled-grar.hits", 0.0)
    misses = counters.get("store.compiled-grar.misses", 0.0)
    out.update({
        "convert.calls": calls["convert"],
        "latches.legality.calls": calls["latches.legality"],
        "flows.runs": len(flows),
        "flows.distinct_ratio": _ratio(len(distinct), len(flows)),
        "retime.compile.hit_ratio": _ratio(
            counters.get("retime.compile.hits", 0.0),
            counters.get("retime.compile.hits", 0.0)
            + counters.get("retime.compile.misses", 0.0),
        ),
        "simplex.warm_ratio": _ratio(
            counters.get("simplex.basis_reused", 0.0), simplex_solves
        ),
        "mcf.fallbacks": sum(
            value for key, value in counters.items()
            if key.startswith("mcf.attempt.") and key.endswith(".failed")
        ),
        "sim.calls": calls["sim"],
        "sim.lane_cycles_per_s": _ratio(counters.get("sim.cycles", 0.0), sim_s),
        "harness.tasks": sum(
            (s[6] or {}).get("tasks", 0) for s in spans if s[2] == "harness"
        ),
        "store.compiled-grar.hit_ratio": _ratio(hits, hits + misses),
        "trace.wall_s": body_s,
        "trace.attributed_frac": 1.0 - _ratio(
            body_s - covered[body_id], body_s
        ),
        "trace.spans": len(spans),
    })
    return out
