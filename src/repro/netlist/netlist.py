"""Core gate-level netlist model.

The model follows the ISCAS89 ``.bench`` convention: every gate drives
a single net named after the gate, so connectivity is expressed as an
ordered tuple of driver names per gate.  Four gate types exist:

* ``INPUT`` — primary input (no fanin);
* ``OUTPUT`` — primary output marker (one fanin, no fanout, no logic);
* ``DFF`` — a flip-flop: its single fanin is the D input, its name is
  the Q net (a combinational source);
* ``COMB`` — a combinational gate mapped to a library cell.

The retiming flows view the netlist *cut at its flops*: every DFF/PI
drives the combinational cloud and every DFF-D/PO terminates it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from enum import Enum

from repro import metrics
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.cells.library import Library


class GateType(Enum):
    """The four gate roles: INPUT, OUTPUT, DFF, COMB."""
    INPUT = "input"
    OUTPUT = "output"
    DFF = "dff"
    COMB = "comb"


#: Gate types that launch data into the comb cloud (a stage boundary).
_SOURCE_TYPES = (GateType.INPUT, GateType.DFF)


@dataclass(frozen=True)
class Gate:
    """One gate (and the net it drives, which shares its name)."""

    name: str
    gtype: GateType
    fanins: Tuple[str, ...] = ()
    #: Library cell name; required for COMB, optional for DFF.
    cell: Optional[str] = None

    def __post_init__(self) -> None:
        if self.gtype is GateType.INPUT and self.fanins:
            raise ValueError(f"input {self.name!r} cannot have fanins")
        if self.gtype is GateType.OUTPUT and len(self.fanins) != 1:
            raise ValueError(f"output {self.name!r} needs exactly one fanin")
        if self.gtype is GateType.DFF and len(self.fanins) != 1:
            raise ValueError(f"flop {self.name!r} needs exactly one fanin")
        if self.gtype is GateType.COMB and not self.fanins:
            raise ValueError(f"comb gate {self.name!r} needs fanins")
        if self.gtype is GateType.COMB and self.cell is None:
            raise ValueError(f"comb gate {self.name!r} needs a cell")

    @property
    def is_comb(self) -> bool:
        """True for combinational gates."""
        return self.gtype is GateType.COMB

    @property
    def is_flop(self) -> bool:
        """True for flip-flops."""
        return self.gtype is GateType.DFF

    @property
    def is_source(self) -> bool:
        """True when the gate launches data into the comb cloud."""
        return self.gtype in _SOURCE_TYPES

    def with_cell(self, cell: str) -> "Gate":
        """Copy of the gate with a different library cell."""
        return replace(self, cell=cell)


# -- change events ----------------------------------------------------------
#
# Every mutator emits one typed event *after* the netlist reflects the
# change.  Subscribers (the timing engine, the delay calculators, the
# min-delay analysis) translate events into scoped cache repair instead
# of whole-engine invalidation; anything the new netlist state cannot
# answer anymore (the old cell, a removed gate's drivers) rides in the
# event itself.


@dataclass(frozen=True)
class NetlistEvent:
    """Base class of the typed netlist change events."""

    #: True when the event changes connectivity (and hence the
    #: topological order); cell swaps keep the structure intact.
    structural: ClassVar[bool] = True

    def dirty_gates(self, netlist: "Netlist") -> Set[str]:
        """Surviving gates whose electrical context the event changed.

        "Electrical context" means anything the STA caches derive from:
        the gate's cell, its fanin pin mapping, the load it drives, or
        its output slew.  Resolved against the *post-mutation* netlist,
        so subscribers must call this at delivery time.
        """
        raise NotImplementedError

    def removed_gates(self) -> Tuple[str, ...]:
        """Gates the event deleted (empty for non-removal events)."""
        return ()


@dataclass(frozen=True)
class CellSwapped(NetlistEvent):
    """A gate changed library cell (sizing / Vt swap / master typing)."""

    gate: str
    old_cell: Optional[str]
    new_cell: Optional[str]

    structural: ClassVar[bool] = False

    def dirty_gates(self, netlist: "Netlist") -> Set[str]:
        # The swapped gate's arcs, load-dependent slew, and every
        # driver whose load includes its (changed) input pin caps.
        return {self.gate, *netlist[self.gate].fanins}


@dataclass(frozen=True)
class FaninRewired(NetlistEvent):
    """A sink's fanin moved from one driver to another (buffering)."""

    sink: str
    old_driver: str
    new_driver: str

    def dirty_gates(self, netlist: "Netlist") -> Set[str]:
        # Both drivers gained/lost a connection (load change); the sink
        # itself has a new pin mapping.
        return {self.sink, self.old_driver, self.new_driver}


@dataclass(frozen=True)
class GateAdded(NetlistEvent):
    """A new gate was inserted (e.g. a hold buffer)."""

    gate: str

    def dirty_gates(self, netlist: "Netlist") -> Set[str]:
        # The new gate needs fresh caches; its drivers see extra load.
        return {self.gate, *netlist[self.gate].fanins}


@dataclass(frozen=True)
class GateRemoved(NetlistEvent):
    """One or more fanout-free gates were deleted."""

    gates: Tuple[str, ...]
    #: Surviving drivers of the removed gates — their loads shrank.
    #: Recorded here because the removed gates are gone from the
    #: netlist by the time subscribers see the event.
    fanins: Tuple[str, ...]

    def dirty_gates(self, netlist: "Netlist") -> Set[str]:
        return {name for name in self.fanins if name in netlist}

    def removed_gates(self) -> Tuple[str, ...]:
        return self.gates


class ChangeLog:
    """A subscriber that simply records every event, in order.

    Useful for tests, debugging, and replay tooling::

        log = ChangeLog()
        netlist.subscribe(log)
        netlist.replace_cell("g1", "NAND2_X2")
        assert isinstance(log.events[-1], CellSwapped)
    """

    def __init__(self) -> None:
        self.events: List[NetlistEvent] = []

    def on_netlist_event(self, event: NetlistEvent) -> None:
        """Record one event (the subscriber protocol hook)."""
        self.events.append(event)

    def clear(self) -> None:
        """Forget all recorded events."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


class Netlist:
    """A named collection of gates with derived connectivity queries.

    Gates are stored in insertion order.  Mutation is limited to
    :meth:`add`, :meth:`replace_cell` and :meth:`remove` so that the
    cached fanout map and topological order can be invalidated
    reliably.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._gates: Dict[str, Gate] = {}
        self._dirty = True
        self._fanouts: Dict[str, Tuple[str, ...]] = {}
        self._topo: Tuple[str, ...] = ()
        #: Weak references to subscribers (see :meth:`subscribe`); weak
        #: so a netlist outliving its timing engines never pins them.
        self._subscribers: List["weakref.ref"] = []

    # -- change notification ------------------------------------------

    def subscribe(self, subscriber: object) -> None:
        """Register an object to receive change events.

        ``subscriber`` must expose ``on_netlist_event(event)``; it is
        held weakly, so subscribers need no explicit unsubscribe when
        they go out of scope.
        """
        if not hasattr(subscriber, "on_netlist_event"):
            raise TypeError(
                f"subscriber {subscriber!r} has no on_netlist_event()"
            )
        ref = weakref.ref(subscriber)
        if all(existing() is not subscriber for existing in self._subscribers):
            self._subscribers.append(ref)

    def unsubscribe(self, subscriber: object) -> None:
        """Remove a subscriber (no-op when not registered)."""
        self._subscribers = [
            ref
            for ref in self._subscribers
            if ref() is not None and ref() is not subscriber
        ]

    def _emit(self, event: NetlistEvent) -> None:
        """Deliver ``event`` to live subscribers, pruning dead refs."""
        if not self._subscribers:
            return
        live: List["weakref.ref"] = []
        for ref in self._subscribers:
            subscriber = ref()
            if subscriber is None:
                continue
            live.append(ref)
            subscriber.on_netlist_event(event)
        self._subscribers = live

    def __getstate__(self) -> Dict[str, object]:
        # Subscribers are weakrefs (unpicklable) and process-local by
        # nature: a netlist shipped to a worker starts with none.
        state = self.__dict__.copy()
        state["_subscribers"] = []
        return state

    # -- construction -------------------------------------------------

    def add(self, gate: Gate) -> None:
        """Insert a gate (names must be unique)."""
        if gate.name in self._gates:
            raise ValueError(f"duplicate gate name {gate.name!r}")
        self._gates[gate.name] = gate
        self._dirty = True
        self._emit(GateAdded(gate.name))

    def replace_cell(self, name: str, cell: str) -> None:
        """Swap the library cell of a gate (sizing); keeps connectivity."""
        gate = self[name]
        self._gates[name] = gate.with_cell(cell)
        # Connectivity unchanged; topo/fanout caches stay valid.
        self._emit(CellSwapped(name, gate.cell, cell))

    def rewire_fanin(
        self, sink: str, old_driver: str, new_driver: str
    ) -> None:
        """Replace every ``old_driver`` fanin of ``sink`` (buffering)."""
        gate = self[sink]
        if old_driver not in gate.fanins:
            raise ValueError(
                f"{old_driver!r} does not drive {sink!r}"
            )
        if new_driver not in self._gates:
            raise KeyError(f"no gate {new_driver!r}")
        fanins = tuple(
            new_driver if fanin == old_driver else fanin
            for fanin in gate.fanins
        )
        self._gates[sink] = replace(gate, fanins=fanins)
        self._dirty = True
        self._emit(FaninRewired(sink, old_driver, new_driver))

    def remove(self, name: str) -> None:
        """Delete a gate that drives nothing."""
        gate = self[name]
        users = self.fanouts(name)
        if users:
            raise ValueError(
                f"cannot remove {name!r}: still drives {sorted(users)}"
            )
        del self._gates[gate.name]
        self._dirty = True
        self._emit(GateRemoved((gate.name,), tuple(gate.fanins)))

    def remove_many(self, names: Iterable[str]) -> None:
        """Remove a closed set of gates in one shot.

        Every remaining gate must keep all of its drivers; the check is
        done once after the bulk delete (O(E)), which is what makes
        dead-logic sweeps linear instead of quadratic.
        """
        doomed = set(names)
        for name in doomed:
            if name not in self._gates:
                raise KeyError(f"no gate {name!r} in netlist {self.name!r}")
        for gate in self._gates.values():
            if gate.name in doomed:
                continue
            broken = [d for d in gate.fanins if d in doomed]
            if broken:
                raise ValueError(
                    f"cannot remove {sorted(broken)}: gate {gate.name!r} "
                    f"still reads them"
                )
        survivors: Set[str] = set()
        for name in doomed:
            for driver in self._gates[name].fanins:
                if driver not in doomed:
                    survivors.add(driver)
        for name in doomed:
            del self._gates[name]
        self._dirty = True
        self._emit(
            GateRemoved(tuple(sorted(doomed)), tuple(sorted(survivors)))
        )

    # -- access -------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._gates

    def __getitem__(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise KeyError(f"no gate {name!r} in netlist {self.name!r}") from None

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates.values())

    def __len__(self) -> int:
        return len(self._gates)

    @property
    def gates(self) -> Dict[str, Gate]:
        """Name-to-gate mapping (a copy)."""
        return dict(self._gates)

    def names(self) -> List[str]:
        """Gate names in insertion order."""
        return list(self._gates)

    def inputs(self) -> List[Gate]:
        """Primary-input gates."""
        return [g for g in self if g.gtype is GateType.INPUT]

    def outputs(self) -> List[Gate]:
        """Primary-output marker gates."""
        return [g for g in self if g.gtype is GateType.OUTPUT]

    def flops(self) -> List[Gate]:
        """Flip-flop gates."""
        return [g for g in self if g.gtype is GateType.DFF]

    def comb_gates(self) -> List[Gate]:
        """Combinational gates."""
        return [g for g in self if g.gtype is GateType.COMB]

    def sources(self) -> List[Gate]:
        """Gates launching data into the comb cloud (PIs and flops)."""
        return [g for g in self if g.is_source]

    def endpoints(self) -> List[Gate]:
        """Gates terminating the comb cloud (POs and flop D pins)."""
        return [g for g in self if g.gtype in (GateType.OUTPUT, GateType.DFF)]

    # -- derived connectivity ------------------------------------------

    def _rebuild(self) -> None:
        fanouts: Dict[str, List[str]] = {name: [] for name in self._gates}
        for gate in self:
            for driver in gate.fanins:
                if driver not in self._gates:
                    raise KeyError(
                        f"gate {gate.name!r} references missing driver "
                        f"{driver!r}"
                    )
                fanouts[driver].append(gate.name)
        self._fanouts = {k: tuple(v) for k, v in fanouts.items()}
        self._topo = tuple(self._levelize())
        self._dirty = False

    def _levelize(self) -> List[str]:
        """Topological order of the combinational cloud.

        Sources (PIs, flop Qs) come first; DFF fanins do not create
        edges (the cloud is cut at flops), so any cycle detected is a
        genuine combinational loop.
        """
        indeg: Dict[str, int] = {}
        for gate in self:
            if gate.is_source:
                indeg[gate.name] = 0
            else:
                indeg[gate.name] = len(gate.fanins)
        order: List[str] = [g.name for g in self if g.is_source]
        head = 0
        while head < len(order):
            current = order[head]
            head += 1
            for user_name in self._fanouts[current]:
                user = self._gates[user_name]
                if user.is_source:
                    continue  # flop D input: edge cut here
                indeg[user_name] -= 1
                if indeg[user_name] == 0:
                    order.append(user_name)
        remaining = [n for n, d in indeg.items() if d > 0]
        if remaining:
            raise ValueError(
                f"netlist {self.name!r} has a combinational cycle through "
                f"{sorted(remaining)[:8]}"
            )
        return order

    def _ensure(self) -> None:
        if self._dirty:
            self._rebuild()

    def fanouts(self, name: str) -> Tuple[str, ...]:
        """Names of gates whose fanin includes ``name``."""
        self._ensure()
        return self._fanouts[name]

    def topo_order(self) -> Tuple[str, ...]:
        """Sources first, then comb gates/outputs in dependency order.

        Returns the cached immutable tuple directly: this is called
        inside the DP/repair loops, and the historical per-call
        ``list(...)`` copy was pure overhead (no caller mutates the
        order — it is consumed by iteration, ``reversed`` and
        indexing only).
        """
        self._ensure()
        metrics.count("netlist.topo.copies_avoided")
        return self._topo

    def comb_edges(self) -> Iterator[Tuple[str, str]]:
        """All (driver, sink) edges of the combinational cloud.

        Edges into flop D pins and output markers are included (they
        terminate paths); edges out of flop Q / PIs are included (they
        launch paths).
        """
        for gate in self:
            for driver in gate.fanins:
                yield (driver, gate.name)

    def fanin_cone(self, name: str) -> Set[str]:
        """All gates with a combinational path to ``name`` (inclusive)."""
        gates = self._gates
        cone = {name}
        stack = list(self[name].fanins)
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            gate = gates[current]
            if gate.gtype not in _SOURCE_TYPES:  # else the stage boundary
                stack.extend(gate.fanins)
        return cone

    def fanout_cone(self, name: str) -> Set[str]:
        """All gates reachable from ``name`` without crossing a flop."""
        return self.fanout_cones((name,))

    def fanout_cones(self, names: Iterable[str]) -> Set[str]:
        """The union of :meth:`fanout_cone` over ``names``, in one walk.

        Every name is expanded, a flop included: a flop reached only
        as another cone's boundary (its D pin) is not.
        """
        self._ensure()
        fanouts = self._fanouts
        gates = self._gates
        expanded: Set[str] = set()
        boundary: Set[str] = set()
        stack = list(names)
        while stack:
            current = stack.pop()
            if current in expanded:
                continue
            expanded.add(current)
            for user in fanouts[current]:
                if gates[user].gtype in _SOURCE_TYPES:
                    boundary.add(user)
                else:
                    stack.append(user)
        return expanded | boundary

    # -- metrics -------------------------------------------------------

    def comb_area(self, library: Library) -> float:
        """Sum of combinational cell areas."""
        total = 0.0
        for gate in self.comb_gates():
            total += library[gate.cell].area
        return total

    def flop_area(self, library: Library) -> float:
        """Sum of flop cell areas."""
        ff = library.default_flip_flop()
        total = 0.0
        for gate in self.flops():
            cell = library[gate.cell] if gate.cell else ff
            total += cell.area
        return total

    def total_area(self, library: Library) -> float:
        """Combinational plus flop area."""
        return self.comb_area(library) + self.flop_area(library)

    def stats(self) -> Dict[str, int]:
        """Gate counts by kind."""
        return {
            "inputs": len(self.inputs()),
            "outputs": len(self.outputs()),
            "flops": len(self.flops()),
            "comb_gates": len(self.comb_gates()),
            "gates": len(self),
        }

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """A structural copy sharing immutable gates."""
        dup = Netlist(name or self.name)
        dup._gates = dict(self._gates)
        dup._dirty = True
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"Netlist({self.name!r}, gates={s['gates']}, "
            f"flops={s['flops']}, pi={s['inputs']}, po={s['outputs']})"
        )
