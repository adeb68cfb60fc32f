"""Simulation compile: everything about a cycle that no cycle changes.

:class:`~repro.sim.logicsim.TimedSimulator` (the event oracle)
re-derives everything per cycle: each gate evaluation linearly scans
every input waveform, searches for causing pins, and re-computes arc
delays through the STA calculator even though the load and slew it
evaluates them at are cycle-invariant.

:class:`CompiledSimulator` does that cycle-invariant work once for a
fixed ``(circuit, placement)``:

* the topological schedule of combinational gates, with every net —
  source, gate output, or latched edge — assigned a flat slot index;
* per-gate, per-pin arc delays pre-evaluated at the static load / slew
  the STA calculator reports, split by output edge direction;
* per-gate truth tables (cycles index a table instead of calling the
  cell's evaluator);
* latch-edge classification under the placement, with the
  ``latch:<driver>:<sink>`` state keys pre-rendered.

The lane engine (:mod:`repro.sim.vector`) consumes this compile and
runs the cycles; together they are the ``"compiled"`` backend, whose
reports are comparison-identical to the event oracle's
(``tests/test_sim_vector.py`` is the acceptance gate).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.cells.cell import CombCell
from repro.errors import NetlistError
from repro.latches.placement import HOST, SlavePlacement
from repro.latches.resilient import TwoPhaseCircuit
from repro.sim.logicsim import MAX_EVENTS_PER_NET

#: Causing-pin tolerance — must match ``TimedSimulator._evaluate_gate``.
_EPS = 1e-15

#: Widest gate the compile tabulates; a wider gate is a typed
#: :class:`NetlistError` (the bundled library's widest cell has 3
#: inputs, and the event backend still simulates any width).
_MAX_TABLE_INPUTS = 10


class CompiledSimulator:
    """The cycle-invariant compile of one (circuit, placement).

    State keys (``src:<name>``, ``latch:<driver>:<sink>``) are the
    ones the event backend keeps in its ``latch_state`` dict, so both
    backends report the same final state.
    """

    def __init__(
        self,
        circuit: TwoPhaseCircuit,
        placement: SlavePlacement,
        max_events_per_net: int = MAX_EVENTS_PER_NET,
        delay_scale: Optional[Mapping[str, float]] = None,
    ) -> None:
        if circuit.library is None:
            raise ValueError("simulation needs a library")
        self.circuit = circuit
        self.placement = placement
        self.max_events_per_net = max_events_per_net
        self.delay_scale = dict(delay_scale or {})
        netlist = circuit.netlist
        library = circuit.library
        calc = circuit.engine.calculator
        scheme = circuit.scheme

        # Latch constants (floats identical to the event backend's:
        # same operands, same operations).
        self._t_open = scheme.slave_open
        self._t_close = scheme.slave_close
        self._d_q = circuit.latch_d_q
        self._open_edge = self._t_open + circuit.latch_ck_q

        # -- slot assignment ---------------------------------------------
        slot_of: Dict[str, int] = {}

        def new_slot(name: str) -> int:
            slot_of[name] = len(slot_of)
            return slot_of[name]

        #: (state_key, latched-wave slot) for every latched cloud edge;
        #: drives the end-of-cycle held-value update.
        self._latch_updates: List[Tuple[str, int]] = []
        latch_slot: Dict[Tuple[str, str], Tuple[int, int, str]] = {}

        def edge_latched(driver: str, sink: str) -> bool:
            return placement.edge_weight_after(netlist, driver, sink) == 1

        def latch_op(driver: str, sink: str) -> Tuple[int, int, str]:
            """(driver slot, latched slot, state key) for a latched
            edge, shared across duplicate fanin positions."""
            op = latch_slot.get((driver, sink))
            if op is None:
                key = f"latch:{driver}:{sink}"
                op = (slot_of[driver], new_slot(key), key)
                latch_slot[(driver, sink)] = op
                self._latch_updates.append((key, op[1]))
            return op

        # -- sources -----------------------------------------------------
        #: (name, slot, "src:<name>" key, host-latch key or None)
        self._sources: List[Tuple[str, int, str, Optional[str]]] = [
            (
                gate.name,
                new_slot(gate.name),
                f"src:{gate.name}",
                f"latch:{HOST}:{gate.name}"
                if edge_latched(HOST, gate.name)
                else None,
            )
            for gate in netlist.sources()
        ]

        # -- combinational schedule --------------------------------------
        #: (name, out slot, input slots, latch ops, per-pin delays
        #: indexed by new value, truth table)
        self._schedule: List[tuple] = []
        for name in netlist.topo_order():
            gate = netlist[name]
            if not gate.is_comb:
                continue
            cell = library[gate.cell]
            if not isinstance(cell, CombCell):
                raise NetlistError(
                    [f"gate {gate.name!r}: cell {gate.cell!r} is not "
                     f"combinational"]
                )
            load = calc.load(name)
            # Delay-corner injection: scale every arc *before* the
            # slowest-causing-arc max, the same multiplication the
            # event backend applies per causing pin — the two stay
            # bit-identical because x * f is deterministic and max
            # commutes with multiplication by a positive factor.
            factor = self.delay_scale.get(name)
            pairs: List[Tuple[float, float]] = []
            for pin, fanin in zip(cell.inputs, gate.fanins):
                arc = cell.arc(pin)
                slew = calc.slew(fanin)
                fall = arc.delay_for_output_edge(
                    rising_output=False, load=load, input_slew=slew
                )
                rise = arc.delay_for_output_edge(
                    rising_output=True, load=load, input_slew=slew
                )
                if factor is not None:
                    fall = fall * factor
                    rise = rise * factor
                pairs.append((fall, rise))
            delays = tuple(pairs)
            n_inputs = len(gate.fanins)
            if n_inputs > _MAX_TABLE_INPUTS:
                raise NetlistError(
                    [f"gate {name!r}: {n_inputs} inputs exceed the "
                     f"compiled simulator's {_MAX_TABLE_INPUTS}-input "
                     f"limit; use the event backend"]
                )
            table = tuple(
                cell.evaluate([(mask >> i) & 1 for i in range(n_inputs)])
                for mask in range(1 << n_inputs)
            )
            ops: List[Tuple[int, int, str]] = []
            in_slots: List[int] = []
            for driver in gate.fanins:
                if edge_latched(driver, name):
                    op = latch_op(driver, name)
                    if op not in ops:
                        ops.append(op)
                    in_slots.append(op[1])
                else:
                    in_slots.append(slot_of[driver])
            self._schedule.append(
                (
                    name,
                    new_slot(name),
                    tuple(in_slots),
                    tuple(ops),
                    delays,
                    table,
                )
            )

        # -- endpoints ---------------------------------------------------
        #: (wave slot, latch op or None), in ``netlist.endpoints()`` order
        self._endpoints: List[
            Tuple[int, Optional[Tuple[int, int, str]]]
        ] = []
        for gate in netlist.endpoints():
            if not gate.fanins:
                raise NetlistError(
                    [f"endpoint {gate.name!r} has no fanins; cannot "
                     f"simulate its data input"]
                )
            driver = gate.fanins[0]
            if edge_latched(driver, gate.name):
                op = latch_op(driver, gate.name)
                self._endpoints.append((op[1], op))
            else:
                self._endpoints.append((slot_of[driver], None))

        self._n_slots = len(slot_of)
