"""Lightweight runtime metrics: stage timers, peak RSS, counters.

Every perf claim in this repo is grounded in a ``BENCH_*.json``
artifact, and this module is the substrate that produces them.  It
depends on nothing in ``repro`` but the :mod:`repro.atomic_io` leaf
(the error taxonomy, the store and the flow pipeline all import it)
and costs next to nothing when disabled: the ambient collector lives
in a :class:`contextvars.ContextVar`, and every instrumentation hook
is a no-op while no collector is installed.

Three layers:

* :class:`MetricsCollector` — the mutable sink: named counters plus
  per-stage wall-clock / call-count / peak-RSS stats.  Collectors
  merge, so per-worker collectors from the parallel experiment engine
  fold into one suite-level view.
* the ambient API — :func:`collect_into` installs a collector for the
  current context; :func:`count` and :func:`stage_timer` are the
  hooks sprinkled through ``run_flow``, the min-cost-flow fallback
  chain, and :class:`~repro.sta.engine.TimingEngine`.
* :func:`write_bench` — atomic JSON emission of a bench report
  (the ``BENCH_suite.json`` artifact the CLI's ``--bench-out`` flag
  produces).

Peak RSS uses ``resource.getrusage`` (kilobytes on Linux); on
platforms without the ``resource`` module the RSS fields are zero and
everything else still works.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.atomic_io import atomic_write_text

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource

    def peak_rss_kb() -> float:
        """High-water-mark RSS of this process, in kilobytes."""
        usage = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        # Linux reports kilobytes, macOS bytes.
        return usage / 1024.0 if usage > 1 << 30 else float(usage)

except ImportError:  # pragma: no cover - non-POSIX fallback

    def peak_rss_kb() -> float:
        """High-water-mark RSS; 0 when the platform cannot report it."""
        return 0.0


#: Version tag written into every bench artifact.
BENCH_SCHEMA = "repro-bench/1"


@dataclass
class StageStats:
    """Aggregated wall-clock / RSS stats of one named stage."""

    calls: int = 0
    wall_s: float = 0.0
    #: largest process high-water-mark RSS observed at any stage exit.
    peak_rss_kb: float = 0.0

    def absorb(self, other: "StageStats") -> None:
        """Fold another stage's stats into this one."""
        self.calls += other.calls
        self.wall_s += other.wall_s
        self.peak_rss_kb = max(self.peak_rss_kb, other.peak_rss_kb)

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly form."""
        return {
            "calls": self.calls,
            "wall_s": round(self.wall_s, 6),
            "peak_rss_kb": round(self.peak_rss_kb, 1),
        }


@dataclass
class ValueStats:
    """Aggregated samples of one named measurement (a gauge).

    Counters answer "how many"; this answers "how large" — wall-clock
    seconds, batch sizes, throughputs.  Keeping them separate stops a
    measurement like ``sim.wall_s`` from masquerading as an event
    count in bench artifacts.
    """

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    last: float = 0.0

    def add(self, value: float) -> None:
        """Record one sample."""
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.total += value
        self.last = value

    def absorb(self, other: "ValueStats") -> None:
        """Fold another series' stats into this one."""
        if other.count == 0:
            return
        if self.count == 0:
            self.min = other.min
            self.max = other.max
        else:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.count += other.count
        self.total += other.total
        self.last = other.last

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly form."""
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "min": round(self.min, 6),
            "max": round(self.max, 6),
            "last": round(self.last, 6),
        }


class MetricsCollector:
    """A sink for counters and stage timings.

    Thread-compatible for the repo's usage (each worker process owns
    its collector; the parent merges results after the fact).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.stages: Dict[str, StageStats] = {}
        self.values: Dict[str, ValueStats] = {}

    # -- recording -----------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def record_value(self, name: str, value: float) -> None:
        """Record one sample of the named measurement."""
        self.values.setdefault(name, ValueStats()).add(value)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a stage; records even when the body raises."""
        started = time.perf_counter()
        try:
            yield
        finally:
            stats = self.stages.setdefault(name, StageStats())
            stats.calls += 1
            stats.wall_s += time.perf_counter() - started
            stats.peak_rss_kb = max(stats.peak_rss_kb, peak_rss_kb())

    # -- aggregation ---------------------------------------------------

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector (e.g. from a worker) into this one."""
        for name, value in other.counters.items():
            self.count(name, value)
        for name, stats in other.stages.items():
            self.stages.setdefault(name, StageStats()).absorb(stats)
        for name, stats in other.values.items():
            self.values.setdefault(name, ValueStats()).absorb(stats)

    def merge_dict(self, payload: Mapping[str, Any]) -> None:
        """Merge the :meth:`to_dict` form (crossed a process boundary)."""
        for name, value in payload.get("counters", {}).items():
            self.count(name, float(value))
        for name, raw in payload.get("stages", {}).items():
            self.stages.setdefault(name, StageStats()).absorb(
                StageStats(
                    calls=int(raw.get("calls", 0)),
                    wall_s=float(raw.get("wall_s", 0.0)),
                    peak_rss_kb=float(raw.get("peak_rss_kb", 0.0)),
                )
            )
        for name, raw in payload.get("values", {}).items():
            self.values.setdefault(name, ValueStats()).absorb(
                ValueStats(
                    count=int(raw.get("count", 0)),
                    total=float(raw.get("total", 0.0)),
                    min=float(raw.get("min", 0.0)),
                    max=float(raw.get("max", 0.0)),
                    last=float(raw.get("last", 0.0)),
                )
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (inverse of :meth:`merge_dict`).

        The ``values`` key is additive over the original
        ``repro-bench/1`` layout — absent when nothing was recorded,
        so existing artifacts and their consumers are untouched.
        """
        payload: Dict[str, Any] = {
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            },
            "stages": {
                name: self.stages[name].to_dict()
                for name in sorted(self.stages)
            },
        }
        if self.values:
            payload["values"] = {
                name: self.values[name].to_dict()
                for name in sorted(self.values)
            }
        return payload


# -- the ambient collector --------------------------------------------------

_CURRENT: ContextVar[Optional[MetricsCollector]] = ContextVar(
    "repro_metrics_collector", default=None
)


def current() -> Optional[MetricsCollector]:
    """The collector installed for this context, if any."""
    return _CURRENT.get()


@contextmanager
def collect_into(collector: MetricsCollector) -> Iterator[MetricsCollector]:
    """Install ``collector`` as the ambient sink for the block."""
    token = _CURRENT.set(collector)
    try:
        yield collector
    finally:
        _CURRENT.reset(token)


def count(name: str, value: float = 1.0) -> None:
    """Bump a counter on the ambient collector (no-op when absent)."""
    collector = _CURRENT.get()
    if collector is not None:
        collector.count(name, value)


def record_value(name: str, value: float) -> None:
    """Record a measurement sample on the ambient collector (no-op
    when absent)."""
    collector = _CURRENT.get()
    if collector is not None:
        collector.record_value(name, value)


@contextmanager
def stage_timer(name: str) -> Iterator[None]:
    """Time a stage on the ambient collector (no-op when absent)."""
    collector = _CURRENT.get()
    if collector is None:
        yield
        return
    with collector.stage(name):
        yield


# -- bench artifacts ---------------------------------------------------------


def bench_report(
    collector: MetricsCollector, **extra: Any
) -> Dict[str, Any]:
    """A schema-tagged bench payload around a collector snapshot."""
    payload: Dict[str, Any] = {"schema": BENCH_SCHEMA}
    payload.update(extra)
    payload.update(collector.to_dict())
    return payload


def write_bench(path: str, payload: Mapping[str, Any]) -> None:
    """Atomically write a bench artifact as indented JSON."""
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")
