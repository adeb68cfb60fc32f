"""Gate-based and path-based delay calculators (Table II ablation).

Both calculators expose the same interface: a scalar ``edge_delay(u, v)``
— the delay contribution of gate ``v`` when driven from gate ``u`` —
plus per-gate output slews.  Edges into endpoints (flop D pins and
primary-output markers) have zero delay.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.cells.cell import CombCell
from repro.errors import NetlistError
from repro.cells.library import Library
from repro.netlist.netlist import Gate, GateType, Netlist, NetlistEvent
from repro.sta.loads import LoadModel

#: Reference load used by the conservative gate-based model: a heavily
#: loaded net, making every gate delay a pessimistic constant as in
#: the DAC'17 gate-delay formulation ("the gate delay model is
#: conservative and can negatively impact the region calculations").
#: Calibrated so the model sits ~25-40% above path-based arrivals on
#: realistic clouds — the regime where Table II's comparison shows the
#: paper's 5-8% penalty.
GATE_MODEL_REFERENCE_LOAD = 6.0
GATE_MODEL_REFERENCE_SLEW = 0.050


class DelayCalculator:
    """Shared machinery for the two delay models."""

    name = "abstract"

    def __init__(
        self,
        netlist: Netlist,
        library: Library,
        load_model: Optional[LoadModel] = None,
    ) -> None:
        self.netlist = netlist
        self.library = library
        self.load_model = load_model or LoadModel()
        self._loads: Dict[str, float] = {}
        self._slews: Dict[str, float] = {}
        #: Arc delays keyed ``(driver, sink)``; every key is an arc of
        #: the netlist as of the last refresh (see :meth:`edge_delay`).
        self._edge_cache: Dict[Tuple[str, str], float] = {}
        self._dirty = True
        #: Gates whose load/slew/arcs must be repaired before the next
        #: query (fed by netlist change events, drained by _refresh).
        self._pending_dirty: Set[str] = set()
        #: True once a pending event changed connectivity.
        self._pending_structural = False
        netlist.subscribe(self)

    # -- cache management ---------------------------------------------

    def on_netlist_event(self, event: NetlistEvent) -> None:
        """Record a netlist change for scoped cache repair."""
        if self._dirty:
            return  # a full refresh is already owed
        self._pending_dirty |= event.dirty_gates(self.netlist)
        # Removed gates keep no cache entries either.
        self._pending_dirty.update(event.removed_gates())
        self._pending_structural |= event.structural

    def invalidate(self) -> None:
        """Drop caches after a netlist mutation (e.g. sizing)."""
        self._dirty = True
        self._edge_cache.clear()
        self._pending_dirty.clear()
        self._pending_structural = False

    def _evict_arcs(self, dirty: Set[str], structural: bool) -> None:
        """Drop every cached delay of an arc into or out of ``dirty``.

        After cell swaps alone the netlist's arcs are the ones the
        cached keys were made from, so walking each dirty gate's
        fanouts and fanins finds exactly the keys a scan would.  A
        structural change may have removed a cached arc (or a dirty
        gate), so it scans the whole cache instead.
        """
        cache = self._edge_cache
        if structural:
            for key in [k for k in cache if k[0] in dirty or k[1] in dirty]:
                del cache[key]
            return
        netlist = self.netlist
        for name in dirty:
            for user in netlist.fanouts(name):
                cache.pop((name, user), None)
            for driver in netlist[name].fanins:
                cache.pop((driver, name), None)

    def _refresh(self) -> None:
        if self._dirty:
            self._loads = self.load_model.all_loads(
                self.netlist, self.library
            )
            self._slews = self._compute_slews()
            self._dirty = False
            self._pending_dirty.clear()
            self._pending_structural = False
            return
        if self._pending_dirty:
            self._apply_patch()

    def _apply_patch(self) -> None:
        """Repair loads/slews/arcs for the pending dirty gates only.

        Patched entries are computed by the same per-gate formulas a
        full refresh uses, so a patched cache is bit-identical to a
        rebuilt one.
        """
        dirty = self._pending_dirty
        structural = self._pending_structural
        self._pending_dirty = set()
        self._pending_structural = False
        self.load_model.patch_loads(
            self.netlist, self.library, self._loads, dirty
        )
        for name in dirty:
            if name not in self.netlist:
                self._slews.pop(name, None)
                continue
            gate = self.netlist[name]
            if gate.gtype is GateType.OUTPUT:
                continue
            self._slews[name] = self._slew_of(gate)
        self._evict_arcs(dirty, structural)

    def _slew_of(self, gate: Gate) -> float:
        """Worst output slew of one gate at its current load."""
        if gate.is_source:
            return self.load_model.source_slew
        cell = self.library[gate.cell]
        if not isinstance(cell, CombCell):
            raise NetlistError(
                [f"gate {gate.name!r}: cell {gate.cell!r} is not "
                 f"combinational"]
            )
        load = self._loads.get(gate.name, 0.0)
        return max(
            cell.arc(pin).max_output_slew(load) for pin in cell.inputs
        )

    def _compute_slews(self) -> Dict[str, float]:
        """Worst output slew per gate, in topological order."""
        slews: Dict[str, float] = {}
        for name in self.netlist.topo_order():
            gate = self.netlist[name]
            if gate.gtype is GateType.OUTPUT:
                continue
            slews[name] = self._slew_of(gate)
        return slews

    # -- queries --------------------------------------------------------

    def load(self, name: str) -> float:
        """Capacitive load driven by ``name``."""
        self._refresh()
        return self._loads.get(name, 0.0)

    def slew(self, name: str) -> float:
        """Propagated worst output slew of ``name``."""
        self._refresh()
        return self._slews.get(name, self.load_model.source_slew)

    def edge_delay(self, driver: str, sink: str) -> float:
        """Delay of gate ``sink`` when driven from ``driver``.

        Refuses a pair that is not a netlist arc, so only arcs are
        ever cached (which is what lets eviction walk them).
        """
        self._refresh()
        key = (driver, sink)
        cached = self._edge_cache.get(key)
        if cached is None:
            if driver not in self.netlist[sink].fanins:
                raise KeyError(f"{driver!r} does not drive {sink!r}")
            cached = self._compute_edge(driver, sink)
            self._edge_cache[key] = cached
        return cached

    def _compute_edge(self, driver: str, sink: str) -> float:
        raise NotImplementedError


class GateBasedCalculator(DelayCalculator):
    """Conservative per-gate worst-case delays (DAC'17 model [16]).

    Every combinational gate contributes the maximum of its arc delays
    at a fixed heavy reference load, regardless of which pin is driven
    or what the gate actually drives.  Accurate fanout loading, slew
    and rise/fall distinctions are all ignored — pessimistic, which can
    push gates out of the retiming region ``V_r`` (Section VI-B).
    """

    name = "gate"

    def _compute_edge(self, driver: str, sink: str) -> float:
        gate = self.netlist[sink]
        if not gate.is_comb:
            return 0.0
        cell = self.library[gate.cell]
        if not isinstance(cell, CombCell):
            raise NetlistError(
                [f"gate {gate.name!r}: cell {gate.cell!r} is not "
                 f"combinational"]
            )
        return max(
            cell.arc(pin).max_delay(
                GATE_MODEL_REFERENCE_LOAD, GATE_MODEL_REFERENCE_SLEW
            )
            for pin in cell.inputs
        )


class PathBasedCalculator(DelayCalculator):
    """Commercial-grade per-path delays (this paper's model).

    The delay of gate ``v`` driven from ``u`` uses the specific pin arc
    where ``u`` connects, the actual capacitive load ``v`` drives, and
    the slew propagated from ``u``.  Rise and fall are evaluated
    separately and only their worst *valid* combination is taken.
    """

    name = "path"

    def _compute_edge(self, driver: str, sink: str) -> float:
        gate = self.netlist[sink]
        if not gate.is_comb:
            return 0.0
        cell = self.library[gate.cell]
        if not isinstance(cell, CombCell):
            raise NetlistError(
                [f"gate {gate.name!r}: cell {gate.cell!r} is not "
                 f"combinational"]
            )
        return max(delay for _, _, delay in self.transition_edges(driver, sink))

    def transition_edges(self, driver: str, sink: str):
        """Valid (input_rising, output_rising, delay) triples.

        Unate arcs only admit one output edge per input edge; the
        engine's two-state forward DP uses this to prune invalid
        rise/fall combinations — the refinement Section VI-B credits
        the path-based model with.
        """
        gate = self.netlist[sink]
        if not gate.is_comb:
            return [(True, True, 0.0), (False, False, 0.0)]
        cell = self.library[gate.cell]
        if not isinstance(cell, CombCell):
            raise NetlistError(
                [f"gate {gate.name!r}: cell {gate.cell!r} is not "
                 f"combinational"]
            )
        load = self.load(sink)
        slew = self.slew(driver)
        triples = []
        for pin, fanin in zip(cell.inputs, gate.fanins):
            if fanin != driver:
                continue
            arc = cell.arc(pin)
            rise_delay = arc.rise.delay(load, slew)
            fall_delay = arc.fall.delay(load, slew)
            if arc.unate is None:
                triples.extend(
                    [
                        (True, True, rise_delay),
                        (True, False, fall_delay),
                        (False, True, rise_delay),
                        (False, False, fall_delay),
                    ]
                )
            elif arc.unate:
                triples.append((True, True, rise_delay))
                triples.append((False, False, fall_delay))
            else:
                triples.append((True, False, fall_delay))
                triples.append((False, True, rise_delay))
        return triples


class FixedDelayCalculator(DelayCalculator):
    """Explicit per-gate delays, for textbook examples and tests.

    The paper's Fig. 4 worked example assigns each gate a fixed integer
    delay ``d(v)``; this calculator reproduces that model exactly:
    ``edge_delay(u, v) = d(v)`` for every fanin ``u``.
    """

    name = "fixed"

    def __init__(self, netlist: Netlist, delays: Dict[str, float]) -> None:
        # No library interaction: bypass the base constructor's needs.
        self.netlist = netlist
        self.library = None  # type: ignore[assignment]
        self.load_model = LoadModel()
        self.delays = dict(delays)
        self._loads = {}
        self._slews = {}
        self._edge_cache = {}
        self._dirty = False
        self._pending_dirty: Set[str] = set()
        netlist.subscribe(self)

    def on_netlist_event(self, event: NetlistEvent) -> None:
        """Evict arcs touching changed gates (delays are load-free)."""
        dirty = event.dirty_gates(self.netlist) | set(event.removed_gates())
        self._evict_arcs(dirty, event.structural)

    def invalidate(self) -> None:
        """Drop caches after a netlist mutation (e.g. sizing)."""
        self._edge_cache.clear()

    def _refresh(self) -> None:
        return

    def load(self, name: str) -> float:
        """Capacitive load driven by ``name``."""
        return 0.0

    def slew(self, name: str) -> float:
        """Propagated worst output slew of ``name``."""
        return 0.0

    def _compute_edge(self, driver: str, sink: str) -> float:
        gate = self.netlist[sink]
        if not gate.is_comb:
            return 0.0
        return float(self.delays.get(sink, 0.0))


def make_calculator(
    model: str,
    netlist: Netlist,
    library: Library,
    load_model: Optional[LoadModel] = None,
) -> DelayCalculator:
    """Factory: ``model`` is ``"gate"`` or ``"path"``."""
    if model == "gate":
        return GateBasedCalculator(netlist, library, load_model)
    if model == "path":
        return PathBasedCalculator(netlist, library, load_model)
    raise ValueError(f"unknown delay model {model!r} (use 'gate' or 'path')")
