"""Compiled G-RAR problems: cache the c-independent work of a sweep.

The overhead sweep (Table VII, the VI-D trade-off curve) solves the
same G-RAR instance once per ``c`` — yet regions (Section IV-B), the
per-master cut sets ``g(t)`` (IV-C), and the retiming-graph skeleton
(IV-A) do not depend on ``c`` at all: only the ``P(t) -> host`` credit
breadth carries it, entering the flow problem through node *demands*,
never arc costs.  This module compiles that invariant part once per
circuit and re-costs it per sweep point:

* :func:`repro.store.circuit_fingerprint` — a content hash over
  everything the invariant part *does* depend on (netlist structure
  and cells, clock scheme, latch timing, delay model, library content,
  conflict policy).  Re-sized netlists (the rescue pass changes gate
  cells, and its budget is c-dependent) therefore miss the cache —
  correctly.
* :func:`build_problem` — the one builder: regions, cut sets and the
  graph at the given ``c``, from scratch.
* :func:`compile_retiming` — fetches compiled problems from the
  ambient :class:`~repro.store.ArtifactStore` (namespace
  ``"compiled-grar"``), calling :func:`build_problem` on a miss;
  emits ``retime.compile.{hits,misses}``.  With a persistent store,
  compiled problems land on disk and successive CLI invocations (and
  parallel workers sharing the directory) hit across process
  boundaries.
* :class:`CompiledRetiming` — regions + cut sets + graph skeleton,
  plus the previous sweep point's optimal simplex basis
  (``last_basis``) so the next solve can warm-start.  A fresh miss
  seeds ``last_basis`` from the most recent entry of the same circuit
  and conflict policy, carried onto its own arcs by arc identity.

Parity: with the cache *off* the retimers call :func:`build_problem`
directly — no store, no sibling seeding, no warm basis — the bit-exact
oracle.  With it *on*, :func:`recost_graph` reproduces
``build_retiming_graph`` exactly (same node and edge order), and the
solver canonicalizes its dual potentials, so ``r_values``, objective,
placement and EDL sets are identical either way (asserted by
``tests/test_retime_compile.py`` and the CI parity job) — including
when the compiled problem was unpickled from disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import metrics
from repro.latches.resilient import TwoPhaseCircuit
from repro.retime.cutset import CutSet, compute_cut_sets
from repro.retime.graph import (
    RetimingGraph,
    build_retiming_graph,
    recost_graph,
)
from repro.retime.regions import Regions, compute_regions
from repro.retime.simplex import WarmBasis
from repro.store import circuit_fingerprint, get_store

__all__ = [
    "CompiledRetiming",
    "NAMESPACE",
    "build_problem",
    "circuit_fingerprint",
    "clear_cache",
    "compile_retiming",
]

#: The artifact-store namespace compiled problems live in.
NAMESPACE = "compiled-grar"


@dataclass
class CompiledRetiming:
    """The c-independent two thirds of a G-RAR problem."""

    fingerprint: str
    circuit_name: str
    conflict_policy: str
    regions: Regions
    cut_sets: Dict[str, CutSet]
    #: Graph built at the first requested overhead; re-costed per c.
    skeleton: RetimingGraph
    #: Optimal basis of the most recent solve of this problem — arc
    #: costs are identical across the sweep, so it warm-starts the
    #: next overhead's simplex.  Updated in place by ``grar_retime``.
    last_basis: Optional[WarmBasis] = field(default=None)

    def graph_for(self, overhead: float) -> RetimingGraph:
        """The full G-RAR graph at ``overhead`` (credit re-cost only)."""
        return recost_graph(self.skeleton, overhead)


def build_problem(
    circuit: TwoPhaseCircuit,
    overhead: float,
    conflict_policy: str = "error",
    fingerprint: str = "",
) -> CompiledRetiming:
    """Build the problem for ``circuit`` from scratch: regions, cut
    sets, and the graph at ``overhead`` as its skeleton.

    :func:`compile_retiming` calls it on a miss, passing its store key
    as ``fingerprint``; the ``retime_cache=False`` oracle calls it
    directly, at any ``overhead >= 0``.
    """
    regions = compute_regions(circuit, conflict_policy=conflict_policy)
    cut_sets = compute_cut_sets(circuit, regions)
    return CompiledRetiming(
        fingerprint=fingerprint,
        circuit_name=circuit.netlist.name,
        conflict_policy=conflict_policy,
        regions=regions,
        cut_sets=cut_sets,
        skeleton=build_retiming_graph(
            circuit, regions, cut_sets=cut_sets, overhead=overhead
        ),
    )


def compile_retiming(
    circuit: TwoPhaseCircuit,
    overhead: float,
    conflict_policy: str = "error",
) -> CompiledRetiming:
    """Fetch or build the compiled problem for ``circuit``.

    ``overhead`` seeds the skeleton on a cache miss (any positive
    value yields the same skeleton modulo credit breadths, which
    :func:`recost_graph` patches per solve); it must be positive, as
    the c=0 graph has no pseudo nodes and is not resiliency-aware.
    """
    if overhead <= 0:
        raise ValueError("compile_retiming requires overhead > 0")
    store = get_store()
    key = circuit_fingerprint(circuit, conflict_policy)
    entry = store.get(NAMESPACE, key)
    if entry is not None:
        metrics.count("retime.compile.hits")
        return entry
    metrics.count("retime.compile.misses")
    entry = build_problem(circuit, overhead, conflict_policy, key)
    # Seed the warm start from the most recent sibling problem of the
    # same circuit (e.g. the pristine problem, when the rescue pass
    # resized a few gates and forced this miss), carried over by arc
    # identity: the simplex repairs the forest to primal feasibility,
    # and the canonical dual potentials make the result independent
    # of the seed.
    for other in reversed(store.memory_values(NAMESPACE)):
        if (
            other.circuit_name == entry.circuit_name
            and other.conflict_policy == entry.conflict_policy
            and other.last_basis is not None
        ):
            entry.last_basis = _translate_basis(
                other.last_basis, other.skeleton, entry.skeleton
            )
            metrics.count("retime.compile.basis_seeded")
            break
    store.put(NAMESPACE, key, entry)
    return entry


def _arc_identities(graph: RetimingGraph) -> List[Tuple[Any, ...]]:
    """Per edge: ``(tail, head, weight, kind, occurrence)``, where
    ``occurrence`` counts earlier edges with the same first four
    fields.  The breadth is left out: a credit edge's moves with ``c``,
    and no breadth enters the arc costs."""
    seen: Dict[Tuple[Any, ...], int] = {}
    identities = []
    for edge in graph.edges:
        key = (edge.tail, edge.head, edge.weight, edge.kind)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        identities.append(key + (occurrence,))
    return identities


def _translate_basis(
    basis: WarmBasis, old: RetimingGraph, new: RetimingGraph
) -> WarmBasis:
    """Carry ``basis`` (arc ids of ``old``) onto ``new``'s arc ids.

    Arcs are matched by identity (:func:`_arc_identities`); basis arcs
    ``new`` lacks are dropped.  A subset of a forest over the same
    node names is still a forest, which the simplex re-roots and
    repairs like any other warm basis.
    """
    position = {
        identity: index
        for index, identity in enumerate(_arc_identities(new))
    }
    old_identities = _arc_identities(old)
    real_arcs = sorted(
        position[old_identities[arc]]
        for arc in basis.real_arcs
        if old_identities[arc] in position
    )
    return WarmBasis(
        n=len(new.nodes), m=len(new.edges), real_arcs=tuple(real_arcs)
    )


def clear_cache() -> None:
    """Drop the in-memory compiled problems (tests).  Disk artifacts
    of a persistent store are kept — use ``ArtifactStore.clear(
    NAMESPACE)`` / ``repro cache clear`` for those."""
    get_store().clear_memory(NAMESPACE)
