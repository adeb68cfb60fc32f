"""The timing engine: forward arrivals, backward delays, endpoints.

Terminology follows the paper (Section III):

* ``D^f(u)`` — maximum delay from any stage source (master latch / PI)
  to the *output* of gate ``u``;
* ``D^b(v, t)`` — maximum delay from the output of gate ``v`` to the
  endpoint ``t`` (a master latch D pin or primary output), computed
  backward from ``t``;
* endpoint arrival — ``max_u D^f(u)`` over the endpoint's fanins;
* min arrival — the earliest arrival at a gate output (hold side):
  min-mode arc delays and a min-over-fanins DP, repaired by the same
  cone worklist as ``D^f``.

Sources launch at time 0 by default (the paper's convention: a master
always propagates data at time 0), with optional per-source offsets.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro import metrics
from repro.cells.cell import CombCell
from repro.cells.library import Library
from repro.errors import NetlistError, TimingError
from repro.netlist.netlist import Gate, GateType, Netlist, NetlistEvent
from repro.sta.delay_models import (
    DelayCalculator,
    PathBasedCalculator,
    make_calculator,
)
from repro.sta.loads import LoadModel

NEG_INF = float("-inf")
POS_INF = float("inf")
NAN = float("nan")


class TimingEngine:
    """Answers the timing queries of the retiming flows and hold fixing.

    The engine subscribes to its netlist's change events.  In the
    default **incremental** mode, each event is translated into scoped
    cache repair: only the touched arcs are evicted and the max and
    min arrivals are re-propagated with one levelized worklist seeded
    at the changed gates, stopping wherever a recomputed value is
    unchanged.  Repairs re-run the exact per-node max/min DP
    operations of the full pass in topological order, so incremental
    results are bit-identical to a from-scratch recompute — the
    ``incremental=False`` mode, which answers every event with
    whole-engine invalidation, is kept as the parity oracle.

    :meth:`invalidate` still drops everything explicitly (for callers
    that mutate the netlist behind the event layer's back, e.g. the
    fault injectors).
    """

    def __init__(
        self,
        netlist: Netlist,
        library: Optional[Library],
        model: str = "path",
        load_model: Optional[LoadModel] = None,
        source_offsets: Optional[Mapping[str, float]] = None,
        calculator: Optional[DelayCalculator] = None,
        incremental: bool = True,
    ) -> None:
        self.netlist = netlist
        self.library = library
        if calculator is not None:
            self.calculator = calculator
        else:
            if library is None:
                raise ValueError("library required unless calculator given")
            self.calculator = make_calculator(
                model, netlist, library, load_model
            )
        self.source_offsets = dict(source_offsets or {})
        self.incremental = bool(incremental)
        self._forward: Optional[Dict[str, float]] = None
        #: Per-transition arrivals of the rise/fall DP; kept alongside
        #: ``_forward`` so cone repair can re-seed from both states.
        self._rise: Optional[Dict[str, float]] = None
        self._fall: Optional[Dict[str, float]] = None
        #: Min (hold) arrivals, repaired by the same cone worklist.
        self._min: Optional[Dict[str, float]] = None
        self._backward_any: Optional[Dict[str, float]] = None
        self._backward_to: Dict[str, Dict[str, float]] = {}
        self._reverse_topo_cache: Optional[List[str]] = None
        self._topo_index: Dict[str, int] = {}
        #: Event accumulation between queries (incremental mode).
        self._pending_dirty: Set[str] = set()
        self._pending_removed: Set[str] = set()
        self._pending_structural = False
        netlist.subscribe(self)

    # -- cache management ----------------------------------------------

    def on_netlist_event(self, event: NetlistEvent) -> None:
        """React to a netlist mutation (the subscriber protocol hook)."""
        if not self.incremental:
            # Parity-oracle mode: every event costs a full recompute,
            # exactly like the historical mutate-then-invalidate flow.
            self.invalidate()
            return
        metrics.count("sta.incremental.events")
        self._pending_dirty |= event.dirty_gates(self.netlist)
        self._pending_removed.update(event.removed_gates())
        if event.structural:
            self._pending_structural = True

    def invalidate(self) -> None:
        """Drop all timing caches (after sizing)."""
        metrics.count("sta.invalidate")
        self.calculator.invalidate()
        self._forward = None
        self._rise = None
        self._fall = None
        self._min = None
        self._backward_any = None
        self._backward_to.clear()
        self._reverse_topo_cache = None
        self._topo_index = {}
        self._pending_dirty.clear()
        self._pending_removed.clear()
        self._pending_structural = False

    def _flush_events(self) -> None:
        """Apply pending change events as scoped cache repair."""
        if not (self._pending_dirty or self._pending_removed):
            return
        dirty = self._pending_dirty
        removed = self._pending_removed
        structural = self._pending_structural
        self._pending_dirty = set()
        self._pending_removed = set()
        self._pending_structural = False
        if structural:
            # Connectivity changed: the levelization is stale.
            self._reverse_topo_cache = None
            self._topo_index = {}
        # Per-endpoint backward memos: evict only the tables whose
        # fanin cone can see a changed arc (the changed gates' fanout
        # cones), instead of the historical wholesale clear.
        if self._backward_to:
            affected: Set[str] = set(removed)
            for name in dirty:
                if name in self.netlist:
                    affected |= self.netlist.fanout_cone(name)
            for endpoint in [t for t in self._backward_to if t in affected]:
                del self._backward_to[endpoint]
        # The any-endpoint table is one O(V+E) reverse pass; rebuild it
        # lazily (it is queried between sizing passes, not inside them).
        self._backward_any = None
        try:
            if self._forward is not None:
                self._repair_forward(dirty, removed)
            if self._min is not None:
                self._repair_cone(
                    dirty, removed, (self._min,),
                    _scalar_step(self._min, self._min_node),
                )
        except BaseException:
            # A repair that raises (e.g. a gate made unreachable
            # mid-mutation) must not leave half-updated arrivals; the
            # next query recomputes from scratch and reports the same
            # error a full pass would.
            self._forward = None
            self._rise = None
            self._fall = None
            self._min = None
            raise

    # -- forward timing --------------------------------------------------

    def _source_offset(self, name: str) -> float:
        return self.source_offsets.get(name, 0.0)

    def _forward_node(self, name: str, gate: Gate,
                      arrivals: Dict[str, float]) -> float:
        """Scalar arrival of one gate from its fanins' arrivals.

        Shared by the full DP and the cone repair so both run the exact
        same float operations per node (the bit-identity argument).
        """
        if gate.is_source:
            return self._source_offset(name)
        calc = self.calculator
        best = NEG_INF
        saw_nan = False
        for driver in gate.fanins:
            if driver not in arrivals:
                raise TimingError(
                    f"gate {name!r} reads {driver!r}, which has "
                    f"no forward arrival (endpoint or outside "
                    f"the combinational cloud)",
                    payload={"gate": name, "fanin": driver},
                )
            candidate = arrivals[driver] + calc.edge_delay(
                driver, name
            )
            if candidate != candidate:
                # NaN delay: keep it visible for the guard's
                # sanity checkpoint; max() would swallow it.
                saw_nan = True
                continue
            best = max(best, candidate)
        if best == NEG_INF:
            if saw_nan:
                return NAN
            raise TimingError(
                f"gate {name!r} has no fanins to propagate "
                f"arrivals from",
                payload={"gate": name},
            )
        return best

    def _forward_node_rf(
        self,
        name: str,
        gate: Gate,
        rise: Dict[str, float],
        fall: Dict[str, float],
    ) -> Tuple[float, float]:
        """Rise/fall arrivals of one gate from its fanins' states."""
        if gate.is_source:
            offset = self._source_offset(name)
            return offset, offset
        calc = self.calculator
        best_rise = NEG_INF
        best_fall = NEG_INF
        saw_nan = False
        for driver in set(gate.fanins):
            if driver not in rise:
                raise TimingError(
                    f"gate {name!r} reads {driver!r}, which has no "
                    f"forward arrival (endpoint or outside the "
                    f"combinational cloud)",
                    payload={"gate": name, "fanin": driver},
                )
            for in_rising, out_rising, delay in calc.transition_edges(
                driver, name
            ):
                base = rise[driver] if in_rising else fall[driver]
                if base == NEG_INF:
                    continue
                candidate = base + delay
                if candidate != candidate:
                    # NaN delay or NaN upstream state: keep it
                    # visible for the guard's sanity checkpoint
                    # instead of letting max() swallow it.
                    saw_nan = True
                    continue
                if out_rising:
                    best_rise = max(best_rise, candidate)
                else:
                    best_fall = max(best_fall, candidate)
        if best_rise == NEG_INF and best_fall == NEG_INF:
            if saw_nan:
                return NAN, NAN
            # Silently storing -inf would poison every
            # downstream max(); name the gate instead.
            raise TimingError(
                f"gate {name!r} is unreachable under the "
                f"rise/fall transition edges of its fanins "
                f"{sorted(set(gate.fanins))}",
                payload={
                    "gate": name,
                    "fanins": sorted(set(gate.fanins)),
                },
            )
        return best_rise, best_fall

    def _scalar_dp(
        self, node: Callable[[str, Gate, Dict[str, float]], float]
    ) -> Dict[str, float]:
        """One full topological pass of a scalar per-node DP."""
        arrivals: Dict[str, float] = {}
        for name in self.netlist.topo_order():
            gate = self.netlist[name]
            if gate.gtype is GateType.OUTPUT:
                continue
            arrivals[name] = node(name, gate, arrivals)
        return arrivals

    def _compute_forward(self) -> Dict[str, float]:
        calc = self.calculator
        if isinstance(calc, PathBasedCalculator):
            return self._compute_forward_rf()
        self._rise = None
        self._fall = None
        return self._scalar_dp(self._forward_node)

    def _compute_forward_rf(self) -> Dict[str, float]:
        """Two-state (rise/fall) forward DP for the path-based model."""
        calc = self.calculator
        if not isinstance(calc, PathBasedCalculator):
            raise TimingError(
                f"rise/fall forward DP needs a path-based calculator, "
                f"got {type(calc).__name__}"
            )
        rise: Dict[str, float] = {}
        fall: Dict[str, float] = {}
        for name in self.netlist.topo_order():
            gate = self.netlist[name]
            if gate.gtype is GateType.OUTPUT:
                continue
            rise[name], fall[name] = self._forward_node_rf(
                name, gate, rise, fall
            )
        self._rise = rise
        self._fall = fall
        return {
            name: max(rise[name], fall[name])
            for name in rise
        }

    def _repair_cone(
        self,
        dirty: Set[str],
        removed: Set[str],
        tables: Tuple[Dict[str, float], ...],
        recompute: Callable[[str, Gate], bool],
    ) -> None:
        """Re-propagate one arrival DP from the changed gates only.

        Seeds are the dirty gates plus their direct fanouts (the sinks
        of every possibly-changed arc); nodes pop off a heap keyed by
        topological index so each is recomputed at most once, after all
        of its upstream repairs.  ``recompute(name, gate)`` updates the
        node's entries in ``tables`` and returns whether any changed;
        propagation past a node stops when none did.
        """
        netlist = self.netlist
        for name in removed:
            for table in tables:
                table.pop(name, None)
        seeds: Set[str] = set()
        for name in dirty:
            if name not in netlist:
                continue
            seeds.add(name)
            seeds.update(netlist.fanouts(name))
        if not seeds:
            return
        self._reverse_topo()  # (re)build the cached topo index
        index = self._topo_index
        size = len(index)
        # _topo_index maps into the *reversed* order, so forward
        # topological priority is size - reverse_index.
        heap = [
            (size - index[name], name) for name in seeds if name in index
        ]
        heapq.heapify(heap)
        queued = {name for _, name in heap}
        recomputed = 0
        while heap:
            _, name = heapq.heappop(heap)
            gate = netlist[name]
            if gate.gtype is GateType.OUTPUT:
                continue
            recomputed += 1
            if not recompute(name, gate):
                continue
            for user in netlist.fanouts(name):
                if user in queued or user not in index:
                    continue
                queued.add(user)
                heapq.heappush(heap, (size - index[user], user))
        metrics.count("sta.incremental.nodes_recomputed", recomputed)

    def _repair_forward(self, dirty: Set[str], removed: Set[str]) -> None:
        """Cone-repair ``D^f`` (and the rise/fall states it derives from)."""
        forward = self._forward
        assert forward is not None
        if not isinstance(self.calculator, PathBasedCalculator):
            self._repair_cone(
                dirty, removed, (forward,),
                _scalar_step(forward, self._forward_node),
            )
            return
        rise = self._rise
        fall = self._fall
        if rise is None or fall is None:
            # Rise/fall state lost (e.g. engine restored from pickle):
            # repair is impossible, fall back to a full recompute.
            self._forward = None
            return

        def recompute(name: str, gate: Gate) -> bool:
            new_rise, new_fall = self._forward_node_rf(
                name, gate, rise, fall
            )
            # != is deliberately NaN-propagating: a NaN result always
            # counts as changed and keeps flowing downstream.
            changed = (
                name not in rise
                or rise[name] != new_rise
                or fall[name] != new_fall
            )
            rise[name] = new_rise
            fall[name] = new_fall
            forward[name] = max(new_rise, new_fall)
            return changed

        self._repair_cone(dirty, removed, (forward, rise, fall), recompute)

    def forward_arrival(self, name: str) -> float:
        """``D^f``: latest arrival at the output of gate ``name``."""
        metrics.count("sta.forward.query")
        self._flush_events()
        if self._forward is None:
            metrics.count("sta.forward.compute")
            metrics.count("sta.full_recompute")
            self._forward = self._compute_forward()
        try:
            return self._forward[name]
        except KeyError:
            raise KeyError(f"no forward arrival for {name!r}") from None

    def endpoint_arrival(self, endpoint: str) -> float:
        """Latest data arrival at an endpoint (flop D pin / PO)."""
        gate = self.netlist[endpoint]
        if gate.gtype not in (GateType.OUTPUT, GateType.DFF):
            raise ValueError(f"{endpoint!r} is not an endpoint")
        if not gate.fanins:
            raise TimingError(
                f"endpoint {endpoint!r} has no fanins: nothing arrives "
                f"at it",
                payload={"endpoint": endpoint},
            )
        return max(self.forward_arrival(d) for d in gate.fanins)

    # -- min (hold) timing ----------------------------------------------------

    def min_edge_delay(self, driver: str, sink: str) -> float:
        """Fastest single-transition delay of ``sink`` from ``driver``."""
        # Re-entrant from the min repair: pending sets are already
        # drained there, so this flush is a no-op during repair itself.
        self._flush_events()
        gate = self.netlist[sink]
        if not gate.is_comb:
            return 0.0
        if self.library is None:
            raise TimingError(
                f"gate {sink!r}: min arrivals need a cell library, and "
                f"this engine has only a delay calculator",
                payload={"gate": sink},
            )
        cell = self.library[gate.cell]
        if not isinstance(cell, CombCell):
            raise NetlistError(
                [f"gate {gate.name!r}: cell {gate.cell!r} is not "
                 f"combinational"]
            )
        load = self.calculator.load(sink)
        best = POS_INF
        for pin, fanin in zip(cell.inputs, gate.fanins):
            if fanin != driver:
                continue
            best = min(best, cell.arc(pin).min_delay(load, 0.0))
        if best == POS_INF:
            raise KeyError(f"{driver!r} does not drive {sink!r}")
        return best

    def _min_node(
        self, name: str, gate: Gate, arrivals: Dict[str, float]
    ) -> float:
        """Min arrival of one gate (shared by full DP and repair)."""
        if gate.is_source:
            return self._source_offset(name)
        if not gate.fanins:
            raise TimingError(
                f"gate {name!r} has no fanins to propagate "
                f"min arrivals from",
                payload={"gate": name},
            )
        for driver in gate.fanins:
            if driver not in arrivals:
                raise TimingError(
                    f"gate {name!r} reads {driver!r}, which has "
                    f"no min arrival (endpoint or outside the "
                    f"combinational cloud)",
                    payload={"gate": name, "fanin": driver},
                )
        return min(
            arrivals[d] + self.min_edge_delay(d, name)
            for d in gate.fanins
        )

    def min_arrival(self, name: str) -> float:
        """Earliest possible arrival at the output of ``name``."""
        self._flush_events()
        if self._min is None:
            self._min = self._scalar_dp(self._min_node)
        return self._min[name]

    def min_endpoint_arrival(self, endpoint: str) -> float:
        """Earliest data arrival at an endpoint's input."""
        gate = self.netlist[endpoint]
        if gate.gtype not in (GateType.OUTPUT, GateType.DFF):
            raise ValueError(f"{endpoint!r} is not an endpoint")
        if not gate.fanins:
            raise TimingError(
                f"endpoint {endpoint!r} has no fanins; min arrival is "
                f"undefined",
                payload={"gate": endpoint},
            )
        return min(self.min_arrival(d) for d in gate.fanins)

    def trace_min_path(self, endpoint: str) -> List[str]:
        """The fastest path into ``endpoint`` (for hold fixing)."""
        gate = self.netlist[endpoint]
        current = min(gate.fanins, key=self.min_arrival)
        path = [endpoint, current]
        while not self.netlist[current].is_source:
            node = self.netlist[current]
            current = min(
                node.fanins,
                key=lambda d: self.min_arrival(d)
                + self.min_edge_delay(d, current),
            )
            path.append(current)
        path.reverse()
        return path

    def hold_violations(self, required_min: float) -> Dict[str, float]:
        """Endpoints whose fastest path undercuts ``required_min``.

        For a two-phase resilient design the bound is the resiliency
        window width plus the master's hold time: data launched at the
        next cycle's time-0 must not reach an error-detecting master
        before its window (which extends ``phi1`` past the capturing
        edge) has closed.
        """
        out: Dict[str, float] = {}
        for gate in self.endpoints():
            arrival = self.min_endpoint_arrival(gate.name)
            if arrival < required_min - 1e-12:
                out[gate.name] = required_min - arrival
        return out

    # -- backward timing ---------------------------------------------------

    def _reverse_topo(self) -> List[str]:
        """Reverse topological order, cached until :meth:`invalidate`.

        Re-materializing ``list(reversed(topo_order()))`` per endpoint
        made every backward query pay an O(V) rebuild; the suite asks
        for hundreds of endpoint tables between invalidations.
        """
        if self._reverse_topo_cache is None:
            self._reverse_topo_cache = list(
                reversed(self.netlist.topo_order())
            )
            self._topo_index = {
                name: index
                for index, name in enumerate(self._reverse_topo_cache)
            }
        return self._reverse_topo_cache

    def _compute_backward_any(self) -> Dict[str, float]:
        calc = self.calculator
        netlist = self.netlist
        result: Dict[str, float] = {}
        for name in self._reverse_topo():
            best = NEG_INF
            for user_name in netlist.fanouts(name):
                user = netlist[user_name]
                if user.gtype in (GateType.OUTPUT, GateType.DFF):
                    best = max(best, 0.0)
                else:
                    downstream = result.get(user_name, NEG_INF)
                    if downstream != NEG_INF:
                        best = max(
                            best,
                            calc.edge_delay(name, user_name) + downstream,
                        )
            result[name] = best
        return result

    def max_backward(self, name: str) -> float:
        """``max_t D^b(name, t)`` over all endpoints (-inf if none)."""
        metrics.count("sta.backward_any.query")
        self._flush_events()
        if self._backward_any is None:
            metrics.count("sta.backward_any.compute")
            self._backward_any = self._compute_backward_any()
        return self._backward_any.get(name, NEG_INF)

    def _compute_backward_to(self, endpoint: str) -> Dict[str, float]:
        gate = self.netlist[endpoint]
        if gate.gtype not in (GateType.OUTPUT, GateType.DFF):
            raise ValueError(f"{endpoint!r} is not an endpoint")
        cone = self.netlist.fanin_cone(endpoint)
        calc = self.calculator
        netlist = self.netlist
        self._reverse_topo()  # ensure the cached topo index exists
        topo_index = self._topo_index
        result: Dict[str, float] = {endpoint: 0.0}
        # Only the fanin cone can reach the endpoint: visiting just its
        # members (in reverse topological order) turns the per-endpoint
        # cost from O(V + E) into O(|cone| log |cone| + E_cone).
        for name in sorted(cone, key=topo_index.__getitem__):
            if name == endpoint:
                continue
            best = NEG_INF
            for user_name in netlist.fanouts(name):
                if user_name == endpoint:
                    best = max(best, 0.0)
                    continue
                if user_name not in cone:
                    continue
                user = netlist[user_name]
                if user.gtype in (GateType.OUTPUT, GateType.DFF):
                    continue  # a different endpoint
                downstream = result.get(user_name, NEG_INF)
                if downstream != NEG_INF:
                    best = max(
                        best, calc.edge_delay(name, user_name) + downstream
                    )
            result[name] = best
        return result

    def backward_delay(self, name: str, endpoint: str) -> float:
        """``D^b(name, endpoint)``; -inf when no path exists."""
        metrics.count("sta.backward_to.query")
        self._flush_events()
        table = self._backward_to.get(endpoint)
        if table is None:
            metrics.count("sta.backward_to.compute")
            table = self._compute_backward_to(endpoint)
            self._backward_to[endpoint] = table
        return table.get(name, NEG_INF)

    # -- convenience ---------------------------------------------------------

    def edge_delay(self, driver: str, sink: str) -> float:
        """Scalar delay of ``sink`` driven from ``driver``."""
        return self.calculator.edge_delay(driver, sink)

    def endpoints(self) -> List[Gate]:
        """The endpoint gates (flop Ds and PO markers)."""
        return self.netlist.endpoints()

    def endpoint_arrivals(self) -> Dict[str, float]:
        """Latest data arrival of every endpoint."""
        return {
            gate.name: self.endpoint_arrival(gate.name)
            for gate in self.endpoints()
        }

    def worst_arrival(self) -> float:
        """The largest endpoint arrival (the critical delay)."""
        arrivals = self.endpoint_arrivals()
        return max(arrivals.values()) if arrivals else 0.0

    def violations(self, limit: float) -> Dict[str, float]:
        """Endpoints whose arrival exceeds ``limit`` and by how much."""
        out: Dict[str, float] = {}
        for gate in self.endpoints():
            arrival = self.endpoint_arrival(gate.name)
            if arrival > limit + 1e-12:
                out[gate.name] = arrival - limit
        return out


def _scalar_step(
    table: Dict[str, float],
    node: Callable[[str, Gate, Dict[str, float]], float],
) -> Callable[[str, Gate], bool]:
    """A :meth:`TimingEngine._repair_cone` step for a scalar DP table."""

    def recompute(name: str, gate: Gate) -> bool:
        value = node(name, gate, table)
        changed = name not in table or table[name] != value
        table[name] = value
        return changed

    return recompute
