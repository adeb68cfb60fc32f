"""Replay of repeated sizing runs (the ``sizing`` store namespace).

An overhead sweep runs each G-RAR method at every ``c``.  The rescue
pass's speed-up trials, the post-retiming size-only compile and the
area recovery read the netlist, the limits and the delay model, not
``c``: only whether a rescue trial is accepted reads the
``(1 + c)``-scaled budget.  So most sweep points repeat sizing runs an
earlier point already made, input for input.

:func:`memoized` keys a run by content
(:func:`repro.store.sizing_fingerprint`) and keeps its outcome in the
memory-only ``sizing`` namespace of the ambient
:class:`~repro.store.ArtifactStore`: the net cell swaps (every gate
whose cell differs after the run) plus a private copy of the report.
A hit applies the swaps with ``Netlist.replace_cell`` and returns a
fresh copy of the report; the timing engine repairs the swapped
cones exactly (DESIGN §10), so a replayed netlist times bit-identically
to a re-run.  A run that raises stores nothing.

Only the stock delay calculators are memoized: any other calculator
(the fault injectors' sabotaged one, fixed textbook delays, test
subclasses) may compute delays the key cannot see, so it runs fresh.
``run_flow(retime_cache=False)`` scopes its flow with
:func:`use_sizing_memo` off, which makes the cache-off oracle re-run
every sizing pass.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Callable,
    Collection,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
)

from repro.latches.resilient import TwoPhaseCircuit
from repro.sta.delay_models import GateBasedCalculator, PathBasedCalculator
from repro.store import get_store, sizing_fingerprint

__all__ = ["NAMESPACE", "memoized", "sizing_memo_enabled", "use_sizing_memo"]

#: The artifact-store namespace sizing runs live in (memory-only).
NAMESPACE = "sizing"

#: The calculators whose delays are a function of the key's content.
_STOCK_CALCULATORS = (PathBasedCalculator, GateBasedCalculator)

_ENABLED: "ContextVar[bool]" = ContextVar("repro_sizing_memo", default=True)

Report = TypeVar("Report")


def sizing_memo_enabled() -> bool:
    """Whether sizing runs in this context read and write the memo."""
    return _ENABLED.get()


@contextmanager
def use_sizing_memo(enabled: bool) -> Iterator[None]:
    """Scope the sizing memo on or off (``run_flow``'s cache flag)."""
    token = _ENABLED.set(bool(enabled))
    try:
        yield
    finally:
        _ENABLED.reset(token)


def memoized(
    kind: str,
    circuit: TwoPhaseCircuit,
    retimed: Optional[Collection[str]],
    limits: Mapping[str, float],
    params: Sequence[object],
    run: Callable[[], Report],
) -> Report:
    """``run()``'s report, replayed when this input was sized before.

    ``kind`` names the entry point, ``retimed`` is the placement's
    retimed set (``None`` when the run reads plain arrivals) and
    ``params`` the entry point's remaining arguments.
    """
    calculator = type(circuit.engine.calculator)
    if not _ENABLED.get() or calculator not in _STOCK_CALCULATORS:
        return run()
    store = get_store()
    key = sizing_fingerprint(kind, circuit, retimed, limits, params)
    netlist = circuit.netlist
    entry = store.get(NAMESPACE, key)
    if entry is not None:
        swaps, report = entry
        for name, cell in swaps:
            netlist.replace_cell(name, cell)
        return copy.deepcopy(report)
    before = [gate.cell for gate in netlist]
    report = run()
    swaps = tuple(
        (gate.name, gate.cell)
        for gate, cell in zip(netlist, before)
        if gate.cell != cell
    )
    store.put(NAMESPACE, key, (swaps, copy.deepcopy(report)))
    return report
