"""Structured exception taxonomy for the whole tool flow.

Every failure the pipeline can diagnose is a :class:`ReproError`
carrying three pieces of machine-readable context:

* ``stage`` — the flow stage that failed (``prepare`` / ``retime`` /
  ``sizing`` / ``finalize`` / ...);
* ``circuit`` — the circuit being processed, when known;
* ``payload`` — free-form diagnostic details (violated constraints,
  solver attempt records, offending gate names, ...).

The concrete classes mirror the subsystems:

* :class:`NetlistError` — structural problems (missing drivers, bad
  cells, parse failures);
* :class:`TimingError` — timing-model and feasibility problems
  (NaN/negative delays, clocks too tight for a legal cut);
* :class:`SolverError` — min-cost-flow / LP breakdowns (infeasible,
  unbounded, iteration budget, cycling, cross-check mismatch);
* :class:`SimulationError` — the timed logic simulation left its
  modeling envelope (e.g. a net's event count blew past the hard cap,
  so the waveform could no longer be trusted);
* :class:`FlowStageError` — a stage of the end-to-end flow failed;
  :class:`InvariantError` is its guard-checkpoint specialization.

Each class also inherits the builtin exception its call sites
historically raised (``ValueError`` / ``RuntimeError``), so existing
``except`` clauses keep working while new code can catch the whole
taxonomy with ``except ReproError``.  Unlike a bare ``assert``, these
checks survive ``python -O``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro import metrics

#: Every loaded :class:`ReproError` class by name — the lookup table of
#: :meth:`ReproError.from_dict` (subclasses register on definition, so
#: ones declared outside this module resolve too).
_TYPES: Dict[str, type] = {}


class ReproError(Exception):
    """Base class: a diagnosable failure anywhere in the pipeline."""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        _TYPES[cls.__name__] = cls

    def __init__(
        self,
        message: str,
        *,
        stage: Optional[str] = None,
        circuit: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.stage = stage
        self.circuit = circuit
        self.payload = dict(payload or {})

    def annotate(
        self, stage: Optional[str] = None, circuit: Optional[str] = None
    ) -> "ReproError":
        """Fill in missing context in place (never overwrites)."""
        if self.stage is None:
            self.stage = stage
        if self.circuit is None:
            self.circuit = circuit
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (JSON-serializable)."""
        return {
            "type": type(self).__name__,
            "message": self.message,
            "stage": self.stage,
            "circuit": self.circuit,
            "payload": _jsonable(self.payload),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ReproError":
        """Inverse of :meth:`to_dict`: the typed error, e.g. one a
        worker process reported.  A ``type`` naming no loaded
        :class:`ReproError` class (an untyped exception that crossed a
        process boundary) rebuilds as :class:`FlowStageError`."""
        cls = _TYPES.get(str(data.get("type")), FlowStageError)
        payload = dict(data.get("payload") or {})
        message = str(data.get("message", ""))
        if issubclass(cls, NetlistError):
            # Its constructor takes the problem list the message joins.
            message = payload.get("problems") or message
        return cls(
            message,
            stage=data.get("stage"),
            circuit=data.get("circuit"),
            payload=payload,
        )

    def __str__(self) -> str:
        prefix = ""
        if self.stage or self.circuit:
            where = "/".join(p for p in (self.circuit, self.stage) if p)
            prefix = f"[{where}] "
        return f"{prefix}{self.message}"


_TYPES["ReproError"] = ReproError


class NetlistError(ReproError, ValueError):
    """A netlist is structurally invalid or unparseable.

    ``problems`` lists every issue found, so one validation pass
    reports everything instead of failing on the first.
    """

    def __init__(
        self,
        problems: Union[str, List[str]],
        *,
        stage: Optional[str] = None,
        circuit: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        merged = dict(payload or {})
        merged.setdefault("problems", list(self.problems))
        super().__init__(
            "; ".join(self.problems),
            stage=stage,
            circuit=circuit,
            payload=merged,
        )


class ConversionError(NetlistError):
    """A flop netlist cannot be converted to a legal two-phase design.

    Raised by :mod:`repro.convert` when the conversion front end finds
    the design infeasible (Vm/Vn region conflicts, no timing paths) or
    the resulting phase assignment illegal (same-phase latch-to-latch
    paths, unphased sequential elements); ``payload`` carries the
    offending nodes.
    """


class TimingError(ReproError, ValueError):
    """Timing queries or timing feasibility broke down."""


class SolverError(ReproError, RuntimeError):
    """A flow/LP solver failed to produce a usable answer."""


class UnboundedFlowError(SolverError):
    """The flow problem is unbounded (a negative-cost cycle with no
    reverse-arc limit) — indicates a malformed retiming graph."""


class InfeasibleFlowError(SolverError):
    """No flow satisfies the node demands."""


class SolverTimeoutError(SolverError):
    """A solver exceeded its iteration budget or wall-clock deadline."""


class SimulationError(ReproError, RuntimeError):
    """The timed logic simulation exceeded its modeling limits.

    Raised instead of silently degrading the waveform model (the old
    behaviour was to truncate event lists, which under-reported error
    rates); ``payload`` carries the offending gate and event counts.
    """


class FlowStageError(ReproError, RuntimeError):
    """One stage of the end-to-end flow failed."""


class InvariantError(FlowStageError):
    """An inter-stage guard checkpoint found a violated invariant."""


class DeadlineError(FlowStageError):
    """A unit of work blew its wall-clock deadline and was killed.

    Raised (or recorded as a typed FAILED entry, under isolation) by
    the parallel harness when a worker process exceeds its per-task
    deadline; ``payload`` carries the deadline and the attempt count.
    """


#: Exception classes that must never be swallowed by isolation layers.
_PASSTHROUGH = (KeyboardInterrupt, SystemExit, GeneratorExit)


@contextmanager
def stage_scope(
    stage: str, circuit: Optional[str] = None
) -> Iterator[None]:
    """Attribute any failure inside the block to a named flow stage.

    Typed :class:`ReproError` exceptions pass through with their
    missing ``stage``/``circuit`` context filled in; anything else is
    wrapped in a :class:`FlowStageError` so callers can rely on the
    taxonomy instead of catching bare ``Exception``.

    When a :mod:`repro.metrics` collector is ambient, the block is
    also timed as stage ``stage`` (wall clock + peak RSS) — this is
    how the per-stage counters of ``BENCH_*.json`` artifacts are fed
    without a second instrumentation layer in every flow.
    """
    with metrics.stage_timer(stage):
        try:
            yield
        except ReproError as exc:
            raise exc.annotate(stage=stage, circuit=circuit)
        except _PASSTHROUGH:
            raise
        except Exception as exc:
            raise FlowStageError(
                f"stage {stage!r} failed: {exc}",
                stage=stage,
                circuit=circuit,
                payload={"cause": type(exc).__name__},
            ) from exc


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of payloads to JSON-encodable values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
