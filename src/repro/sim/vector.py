"""The lane engine: the ``"compiled"`` backend's cycle loop.

The Monte-Carlo seed axis is a NumPy array dimension: per-lane
waveforms are held as padded ``(n_lanes, n_events)`` arrays and one
pass over a *level-batched* schedule advances every seed — and every
gate of a topological level — simultaneously.  A single-seed call is
one lane.

The engine consumes a :class:`~repro.sim.kernel.CompiledSimulator`
(slot assignment, topo schedule, per-pin arc delays, truth tables,
latch-state keys) and only regroups its schedule by (topological
level, fanin arity) so that all k-input gates of a level evaluate in
one call.  Each level's gates and latches run in the C helper
(:mod:`repro.sim._native`), which mirrors
:class:`~repro.sim.logicsim.TimedSimulator`'s gate evaluation and
latch transform; the caller
(:func:`~repro.sim.batch.estimate_error_rate_batched`) runs the event
oracle instead when the helper does not load.

**Parity with the event oracle is the contract.**  The C stages
perform the oracle's double operations in the same order.  The NumPy
code left here is injection and bookkeeping — the glitch splice, the
inclusive ``value_at``, the settled value, the endpoint scan — and its
primitives are algebraic twins of the oracle's loops:

* value-change pruning becomes an adjacent-difference against the
  previous surviving value (for 0/1 signals the running value after
  element *i* always equals ``values[i]``, kept or not);
* the inclusive ``value_at`` becomes a broadcast
  ``count(times <= t)`` gather —

so every float is produced by the same IEEE-754 operations on the
same operands and the per-seed :class:`ErrorRateReport` (including
``final_flop_state`` / ``final_latch_state``) is comparison-identical
to the event backend's.  Event-cap overflow in any lane raises the
same typed :class:`~repro.errors.SimulationError`; when several gates
overflow in one cycle, the engine names the first one of the lowest
level, which can differ from the gate the event oracle (one lane at a
time, in topological order) names first.
"""

from __future__ import annotations

import ctypes
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.scenarios.injectors import GlitchSpec, InjectionPlan
from repro.sim.errorrate import ErrorRateReport
from repro.sim.kernel import _EPS, CompiledSimulator
from repro.sim.logicsim import check_event_cap
from repro.sim.vectors import VectorSource

_INF = np.inf

#: Lanes per array pass.  Blocks bound the padded-array footprint on
#: huge seed sweeps; the final block is ragged when ``len(seeds)`` is
#: not a multiple.  Reports are per-lane state, so the block split
#: cannot change them.
DEFAULT_LANE_BLOCK = 64


# ---------------------------------------------------------------------------
# vector primitives (algebraic twins of the event oracle's loops)
# ---------------------------------------------------------------------------


def _compact(
    times: np.ndarray, values: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-justify the kept events of each lane row.

    Returns ``(times, values, counts)`` with ``times`` padded by +inf
    past each lane's count and the width trimmed to the largest count.
    ``values`` padding re-uses dropped candidate values, so the global
    0/1 invariant (every stored value is a legal table index) holds.
    """
    counts = keep.sum(axis=-1)
    width = int(counts.max(initial=0))
    if width == 0:
        shape = counts.shape + (0,)
        return (
            np.empty(shape, dtype=times.dtype),
            np.empty(shape, dtype=values.dtype),
            counts,
        )
    order = np.argsort(~keep, axis=-1, kind="stable")[..., :width]
    out_t = np.take_along_axis(np.where(keep, times, _INF), order, axis=-1)
    out_v = np.take_along_axis(values, order, axis=-1)
    return out_t, out_v, counts


def _prune_keep(
    values: np.ndarray, keep: np.ndarray, initial: np.ndarray
) -> np.ndarray:
    """Refine ``keep`` by value-change pruning against ``initial``.

    The running prune only skips an event when its value
    equals the running value, so the running value after element *i*
    always equals ``values[i]`` — pruning reduces to comparing each
    surviving element with the *previous surviving* element's value
    (forward-filled; ``initial`` before the first).
    """
    width = keep.shape[-1]
    if width == 0:
        return keep
    col = np.arange(width)
    kept_idx = np.where(keep, col, -1)
    last = np.maximum.accumulate(kept_idx, axis=-1)
    prev_idx = np.concatenate(
        [
            np.full(last.shape[:-1] + (1,), -1, dtype=last.dtype),
            last[..., :-1],
        ],
        axis=-1,
    )
    prev_val = np.take_along_axis(values, np.maximum(prev_idx, 0), axis=-1)
    prev_val = np.where(prev_idx >= 0, prev_val, initial[..., None])
    return keep & (values != prev_val)


def _value_at(
    times: np.ndarray,
    values: np.ndarray,
    initial: np.ndarray,
    when: float,
) -> np.ndarray:
    """Inclusive ``value_at(when)`` per lane (padding is +inf)."""
    if times.shape[-1] == 0:
        return initial.copy()
    idx = (times <= when).sum(axis=-1)
    got = np.take_along_axis(
        values, np.maximum(idx - 1, 0)[..., None], axis=-1
    )[..., 0]
    return np.where(idx > 0, got, initial)


def _final_value(
    values: np.ndarray, counts: np.ndarray, initial: np.ndarray
) -> np.ndarray:
    """The settled (last) value per lane: ``Waveform.final``."""
    if values.shape[-1] == 0:
        return initial.copy()
    got = np.take_along_axis(
        values, np.maximum(counts - 1, 0)[..., None], axis=-1
    )[..., 0]
    return np.where(counts > 0, got, initial)


def _glitch_lanes(
    times: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
    initial: np.ndarray,
    spec: GlitchSpec,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vector twin of :func:`~repro.scenarios.injectors.glitch_events`.

    One shared spec strikes every lane: pre-pulse events, the forced
    complement at ``start``, the restore at ``end``, then post-pulse
    events — renormalized by the same running value-change prune.
    """
    start = spec.start
    end = spec.start + spec.width
    at_start = _value_at(times, values, initial, start)
    at_end = _value_at(times, values, initial, end)
    forced = 1 - at_start
    width = times.shape[-1]
    lanes = times.shape[:-1]
    col_valid = np.arange(width) < counts[..., None]
    pre = col_valid & (times < start)
    post = col_valid & (times > end)
    one = np.ones(lanes + (1,), dtype=bool)
    cand_t = np.concatenate(
        [
            times,
            np.full(lanes + (1,), start),
            np.full(lanes + (1,), end),
            times,
        ],
        axis=-1,
    )
    cand_v = np.concatenate(
        [values, forced[..., None], at_end[..., None], values], axis=-1
    )
    keep = np.concatenate([pre, one, one, post], axis=-1)
    keep = _prune_keep(cand_v, keep, initial)
    return _compact(cand_t, cand_v, keep)


# ---------------------------------------------------------------------------
# the level-batched lane engine
# ---------------------------------------------------------------------------


class _VectorLanes:
    """All lanes of one seed block, advanced cycle by cycle.

    Waveforms live in global padded arrays indexed by the compile's
    slot numbers — ``times``/``values`` are ``(n_slots, L, W)`` with
    +inf time padding, plus per-slot ``counts`` and ``initial`` arrays
    of shape ``(n_slots, L)``.  Latch/source held state is one
    ``(n_state, L)`` array addressed through the compile's pre-rendered
    state keys; flop capture state is ``(n_flops, L)``.  ``native`` is
    the loaded C helper, which runs every gate and latch stage.
    """

    def __init__(
        self,
        kernel: CompiledSimulator,
        edl_endpoints: Set[str],
        seeds: Sequence[int],
        toggle_probability: float,
        cycles: int,
        plan: InjectionPlan,
        native: ctypes.CDLL,
    ) -> None:
        self.kernel = kernel
        self.plan = plan
        self.cycles = cycles
        self.n_lanes = len(seeds)
        netlist = kernel.circuit.netlist
        scheme = kernel.circuit.scheme
        self._t_open = kernel._t_open
        self._t_close = kernel._t_close
        self._d_q = kernel._d_q
        self._open_edge = kernel._open_edge
        self._w_open = scheme.window_open
        self._w_close = scheme.window_close
        self._cap = kernel.max_events_per_net
        self._native = native
        L = self.n_lanes

        # -- state index (the event backend's state-dict keys) ---------
        self._state_index: Dict[str, int] = {}
        for _, _, src_key, host_key in kernel._sources:
            self._state_index.setdefault(src_key, len(self._state_index))
            if host_key is not None:
                self._state_index.setdefault(
                    host_key, len(self._state_index)
                )
        for key, _ in kernel._latch_updates:
            self._state_index.setdefault(key, len(self._state_index))
        self._state = np.zeros((len(self._state_index), L), dtype=np.int64)
        #: SEU targets outside the maintained state (validated latch
        #: keys the compile never touches) — created on first flip,
        #: exactly like the event backend.
        self._extra_state: Dict[str, np.ndarray] = {}

        # -- sources ----------------------------------------------------
        self._pi_names = [g.name for g in netlist.inputs()]
        pi_col = {name: i for i, name in enumerate(self._pi_names)}
        self._flop_names = [g.name for g in netlist.flops()]
        flop_row = {name: i for i, name in enumerate(self._flop_names)}
        self._flop_row = flop_row
        self._flop_state = np.zeros((len(self._flop_names), L), np.int64)

        src_slots: List[int] = []
        src_state: List[int] = []
        pi_rows: List[int] = []
        pi_cols: List[int] = []
        flop_rows: List[int] = []
        flop_src: List[int] = []
        host_rows: List[int] = []
        host_state: List[int] = []
        self._net_slot: Dict[str, int] = {}
        self._net_level: Dict[str, int] = {}
        for row, (name, slot, src_key, host_key) in enumerate(
            kernel._sources
        ):
            src_slots.append(slot)
            src_state.append(self._state_index[src_key])
            self._net_slot[name] = slot
            self._net_level[name] = 0
            if name in pi_col:
                pi_rows.append(row)
                pi_cols.append(pi_col[name])
            elif name in flop_row:
                flop_rows.append(row)
                flop_src.append(flop_row[name])
            if host_key is not None:
                host_rows.append(row)
                host_state.append(self._state_index[host_key])
        self._src_slots = np.asarray(src_slots, dtype=np.intp)
        self._src_state = np.asarray(src_state, dtype=np.intp)
        self._pi_rows = np.asarray(pi_rows, dtype=np.intp)
        self._pi_cols = np.asarray(pi_cols, dtype=np.intp)
        self._flop_rows = np.asarray(flop_rows, dtype=np.intp)
        self._flop_src = np.asarray(flop_src, dtype=np.intp)
        self._host_state = np.asarray(host_state, dtype=np.intp)
        # A host-latched source launches into a scratch row past the
        # dummy slot; the latch stage then reads the scratch row and
        # writes the source's own slot, so the helper's source and
        # destination rows stay distinct.
        self._host_slots = np.ascontiguousarray(
            self._src_slots[host_rows], dtype=np.int64
        )
        scratch = np.arange(len(host_rows), dtype=np.int64)
        self._host_scratch = kernel._n_slots + 1 + scratch
        self._launch_slots = self._src_slots.copy()
        self._launch_slots[host_rows] = self._host_scratch

        # -- pre-drawn lane-major input vectors --------------------------
        # Per-lane ``random.Random`` streams are part of the parity
        # contract, so the draws stay in Python — hoisted out of the
        # cycle loop into one (cycles, L, n_pi) block.
        self._pi_matrix = np.zeros(
            (cycles, L, len(self._pi_names)), dtype=np.int8
        )
        for lane, seed in enumerate(seeds):
            source = VectorSource(
                self._pi_names,
                seed=seed,
                toggle_probability=toggle_probability,
            )
            names = self._pi_names
            for cycle in range(cycles):
                vector = source.next_vector()
                self._pi_matrix[cycle, lane] = [
                    vector[name] for name in names
                ]

        # -- level-batched schedule --------------------------------------
        # Group the compile's topological schedule by level: gates of
        # one level never feed each other, so a whole level evaluates
        # as one set of array ops.  Narrower gates are padded to the
        # level's widest arity with a dummy always-empty input slot,
        # zero pad delays, and truth tables tiled over the unused high
        # bits — a pad pin holds a constant 0, never produces a
        # candidate and never causes, so the padding is parity-free
        # (the event-cap count is also unchanged: a 1-input gate's
        # normalized input times are strictly increasing, so the
        # deduped candidate count equals its raw input count).  A
        # latched input's level is its driver's level; the transform
        # runs in a latch stage at the consumer's level, before that
        # level's gates.
        self._dummy_slot = kernel._n_slots
        dst_src: Dict[int, int] = {}
        slot_level: Dict[int, int] = {s: 0 for s in src_slots}
        latch_groups: Dict[int, List[Tuple[int, int, int]]] = {}
        gate_groups: Dict[int, List[tuple]] = {}
        max_level = 0
        for entry in kernel._schedule:
            name, out_slot, in_slots, latch_ops, _delays, _table = entry
            for src_slot, dst_slot, key in latch_ops:
                dst_src[dst_slot] = src_slot
            level = 1 + max(
                (slot_level[dst_src.get(s, s)] for s in in_slots),
                default=0,
            )
            slot_level[out_slot] = level
            max_level = max(max_level, level)
            self._net_slot[name] = out_slot
            self._net_level[name] = level
            for src_slot, dst_slot, key in latch_ops:
                latch_groups.setdefault(level, []).append(
                    (src_slot, dst_slot, self._state_index[key])
                )
            gate_groups.setdefault(level, []).append(entry)

        def pack_latch(ops: List[Tuple[int, int, int]]) -> tuple:
            arr = np.asarray(ops, dtype=np.intp)
            # Contiguous int64 copies: the native helper reads the
            # slot arrays directly via ctypes.
            src = np.ascontiguousarray(arr[:, 0], dtype=np.int64)
            dst = np.ascontiguousarray(arr[:, 1], dtype=np.int64)
            return ("latch", src, dst, arr[:, 2])

        def pack_gates(entries: List[tuple]) -> tuple:
            n = len(entries)
            kmax = max(len(e[2]) for e in entries)
            names = [e[0] for e in entries]
            out = np.ascontiguousarray(
                [e[1] for e in entries], dtype=np.int64
            )
            ins = np.full((n, kmax), self._dummy_slot, dtype=np.int64)
            # True 1-input gates skip the eps-window test: the lone
            # pin always causes, as in the event oracle (a candidate
            # is that pin's own transition time; the window test
            # would miss it when `when - eps` rounds back to `when`).
            single = np.zeros(n, dtype=np.int64)
            delays = np.zeros((n, kmax, 2), dtype=np.float64)
            tables = np.empty((n, 1 << kmax), dtype=np.int64)
            for row, entry in enumerate(entries):
                in_slots = entry[2]
                k = len(in_slots)
                ins[row, :k] = in_slots
                single[row] = 1 if k == 1 else 0
                delays[row, :k] = entry[4]  # (pin, new_value)
                tables[row] = np.tile(
                    np.asarray(entry[5], dtype=np.int64),
                    1 << (kmax - k),
                )
            return ("gate", kmax, names, out, ins, delays, tables, single)

        self._stages: List[tuple] = []
        for level in range(1, max_level + 1):
            if level in latch_groups:
                self._stages.append(pack_latch(latch_groups[level]))
            if level in gate_groups:
                self._stages.append(pack_gates(gate_groups[level]))
            self._stages.append(("glitch", level))

        # Endpoint-only latch ops (a latched edge whose sink is an
        # endpoint is never consumed by a gate).
        endpoint_ops = {
            op for _, op in kernel._endpoints if op is not None
        }
        if endpoint_ops:
            self._stages.append(
                pack_latch(
                    [
                        (src, dst, self._state_index[key])
                        for src, dst, key in sorted(endpoint_ops)
                    ]
                )
            )

        # -- endpoints ----------------------------------------------------
        ep_names = [g.name for g in netlist.endpoints()]
        self._ep_names = ep_names
        self._ep_slots = np.asarray(
            [slot for slot, _ in kernel._endpoints], dtype=np.intp
        )
        self._edl_mask = np.asarray(
            [name in edl_endpoints for name in ep_names], dtype=bool
        )
        ep_row = {name: i for i, name in enumerate(ep_names)}
        self._flop_ep_rows = np.asarray(
            [ep_row[name] for name in self._flop_names], dtype=np.intp
        )
        lu = kernel._latch_updates
        self._lu_slots = np.asarray([s for _, s in lu], dtype=np.intp)
        self._lu_state = np.asarray(
            [self._state_index[k] for k, _ in lu], dtype=np.intp
        )

        # -- global waveform arrays --------------------------------------
        # One extra slot is the dummy pad input: count 0, initial 0,
        # all-inf times — written once here, never again.  The host
        # launch scratch rows follow it.
        n_slots = kernel._n_slots + 1 + len(host_rows)
        self._width = 4
        self._times = np.full((n_slots, L, self._width), _INF)
        self._values = np.zeros((n_slots, L, self._width), dtype=np.int64)
        self._counts = np.zeros((n_slots, L), dtype=np.int64)
        self._inits = np.zeros((n_slots, L), dtype=np.int64)

        # -- per-lane accumulators ---------------------------------------
        self._error_cycles = np.zeros(L, dtype=np.int64)
        self._non_edl = np.zeros(L, dtype=np.int64)
        self._per_endpoint = np.zeros((len(ep_names), L), dtype=np.int64)

    # -- waveform storage --------------------------------------------------

    def _ensure_width(self, width: int) -> None:
        if width <= self._width:
            return
        grow = max(width, self._width * 2)
        pad = grow - self._width
        self._times = np.concatenate(
            [self._times, np.full(self._times.shape[:2] + (pad,), _INF)],
            axis=-1,
        )
        self._values = np.concatenate(
            [
                self._values,
                np.zeros(self._values.shape[:2] + (pad,), dtype=np.int64),
            ],
            axis=-1,
        )
        self._width = grow

    def _write(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
        counts: np.ndarray,
        inits: np.ndarray,
    ) -> None:
        width = times.shape[-1]
        self._ensure_width(width)
        self._times[slots, :, :width] = times
        self._times[slots, :, width:] = _INF
        self._values[slots, :, :width] = values
        self._counts[slots] = counts
        self._inits[slots] = inits

    def _read(
        self, slots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        counts = self._counts[slots]
        width = int(counts.max(initial=0))
        return (
            self._times[slots][..., :width],
            self._values[slots][..., :width],
            counts,
            self._inits[slots],
        )

    # -- stages ------------------------------------------------------------

    def _run_sources(self, cycle: int) -> None:
        state = self._state
        prev = state[self._src_state]
        launch = prev.copy()
        if self._pi_rows.size:
            launch[self._pi_rows] = self._pi_matrix[cycle].T[self._pi_cols]
        if self._flop_rows.size:
            launch[self._flop_rows] = self._flop_state[self._flop_src]
        has = launch != prev
        times = np.where(has, 0.0, _INF)[..., None]
        values = launch[..., None]
        counts = has.astype(np.int64)
        self._write(self._launch_slots, times, values, counts, prev)
        if self._host_slots.size:
            held = state[self._host_state]
            self._eval_latches(self._host_scratch, self._host_slots, held)
            _, v_o, c_o, i_o = self._read(self._host_slots)
            state[self._host_state] = _final_value(v_o, c_o, i_o)
        state[self._src_state] = launch

    def _run_latch(self, stage: tuple) -> None:
        _, src_slots, dst_slots, state_idx = stage
        # Fancy indexing copies: a contiguous held-state block.
        self._eval_latches(src_slots, dst_slots, self._state[state_idx])

    def _eval_latches(
        self, src_slots: np.ndarray, dst_slots: np.ndarray, held: np.ndarray
    ) -> None:
        """``TimedSimulator._latch_transform`` of each source row into
        its (distinct) destination row, every lane, via the helper."""
        # Worst case per output: every input event plus the lead.
        need = int(self._counts[src_slots].max(initial=0)) + 1
        self._ensure_width(need)
        self._native.eval_latches(
            len(src_slots),
            self.n_lanes,
            self._width,
            src_slots.ctypes.data,
            dst_slots.ctypes.data,
            held.ctypes.data,
            self._t_open,
            self._t_close,
            self._d_q,
            self._open_edge,
            self._times.ctypes.data,
            self._values.ctypes.data,
            self._counts.ctypes.data,
            self._inits.ctypes.data,
        )

    def _run_gatek(self, stage: tuple) -> None:
        """Whole-level gate evaluation via the compiled helper.

        The helper walks gates in schedule order, lanes inner, and
        operates in place on the global waveform arrays — the width
        is grown up front to the worst-case candidate count (the sum
        of the input event counts) so every output wave fits.
        """
        _, k, names, out, ins, delays, tables, single = stage
        need = int(self._counts[ins].sum(axis=1).max(initial=0))
        self._ensure_width(need)
        err_gate = ctypes.c_int64(0)
        err_count = ctypes.c_int64(0)
        rc = self._native.eval_gates(
            len(names),
            self.n_lanes,
            k,
            self._width,
            ins.ctypes.data,
            out.ctypes.data,
            single.ctypes.data,
            delays.ctypes.data,
            tables.ctypes.data,
            self._times.ctypes.data,
            self._values.ctypes.data,
            self._counts.ctypes.data,
            self._inits.ctypes.data,
            self._cap,
            _EPS,
            ctypes.byref(err_gate),
            ctypes.byref(err_count),
        )
        if rc:
            check_event_cap(
                names[err_gate.value], err_count.value, self._cap
            )

    def _apply_glitches(
        self, specs_by_slot: Dict[int, List[GlitchSpec]]
    ) -> None:
        for slot, specs in specs_by_slot.items():
            arr = np.asarray([slot], dtype=np.intp)
            times, values, counts, inits = self._read(arr)
            times, values, counts = times[0], values[0], counts[0]
            initial = inits[0]
            for spec in specs:
                times, values, counts = _glitch_lanes(
                    times, values, counts, initial, spec
                )
            self._write(
                arr, times[None], values[None], counts[None], initial[None]
            )

    # -- cycle driver ------------------------------------------------------

    def run_cycle(self, cycle: int) -> None:
        glitch_levels: Dict[int, Dict[int, List[GlitchSpec]]] = {}
        for spec in self.plan.glitches.get(cycle, ()):
            level = self._net_level[spec.net]
            glitch_levels.setdefault(level, {}).setdefault(
                self._net_slot[spec.net], []
            ).append(spec)

        self._run_sources(cycle)
        if 0 in glitch_levels:
            self._apply_glitches(glitch_levels[0])
        for stage in self._stages:
            kind = stage[0]
            if kind == "latch":
                self._run_latch(stage)
            elif kind == "gate":
                self._run_gatek(stage)
            else:  # ("glitch", level)
                if stage[1] in glitch_levels:
                    self._apply_glitches(glitch_levels[stage[1]])

        # Endpoint scan: EDL window transitions, non-EDL violations,
        # settled flop capture — one masked pass over all lanes.
        times, values, counts, inits = self._read(self._ep_slots)
        flags = ((times > self._w_open) & (times <= self._w_close)).any(
            axis=-1
        )
        edl = self._edl_mask[:, None]
        err = flags & edl
        self._error_cycles += err.any(axis=0)
        self._per_endpoint += err
        self._non_edl += (flags & ~edl).sum(axis=0)
        finals = _final_value(values, counts, inits)
        if self._flop_ep_rows.size:
            self._flop_state = finals[self._flop_ep_rows]

        # End-of-cycle held-value updates (value at the slave close).
        if self._lu_slots.size:
            times, values, counts, inits = self._read(self._lu_slots)
            self._state[self._lu_state] = _value_at(
                times, values, inits, self._t_close
            )

        # SEU capture flips strike the carried-over state after the
        # capture settles; one shared plan flips every lane.
        for target in self.plan.seu_flips.get(cycle, ()):
            if target in self._flop_row:
                row = self._flop_row[target]
                self._flop_state[row] = 1 - self._flop_state[row]
            elif target in self._state_index:
                row = self._state_index[target]
                self._state[row] = 1 - self._state[row]
            else:
                current = self._extra_state.get(target)
                if current is None:
                    current = np.zeros(self.n_lanes, dtype=np.int64)
                self._extra_state[target] = 1 - current

    def finish(self) -> List[ErrorRateReport]:
        """Seal one comparison-identical report per lane."""
        reports = []
        state_items = sorted(
            self._state_index.items(), key=lambda kv: kv[1]
        )
        for lane in range(self.n_lanes):
            per_endpoint = {
                name: int(count)
                for name, count in zip(
                    self._ep_names, self._per_endpoint[:, lane]
                )
                if count
            }
            final_latch = {
                key: int(self._state[idx, lane])
                for key, idx in state_items
            }
            for key, arr in self._extra_state.items():
                final_latch[key] = int(arr[lane])
            reports.append(
                ErrorRateReport(
                    cycles=self.cycles,
                    error_cycles=int(self._error_cycles[lane]),
                    per_endpoint=per_endpoint,
                    non_edl_violations=int(self._non_edl[lane]),
                    final_flop_state={
                        name: int(self._flop_state[row, lane])
                        for row, name in enumerate(self._flop_names)
                    },
                    final_latch_state=final_latch,
                )
            )
        return reports


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def simulate(
    kernel: CompiledSimulator,
    edl_endpoints: Set[str],
    cycles: int,
    seeds: Sequence[int],
    toggle_probability: float,
    plan: InjectionPlan,
    native: ctypes.CDLL,
) -> List[ErrorRateReport]:
    """One report per seed, in ``DEFAULT_LANE_BLOCK``-lane passes.

    Callers validate ``plan`` and build ``kernel`` with its delay
    scaling; :func:`~repro.sim.batch.estimate_error_rate_batched` is
    the public entry point.
    """
    reports: List[ErrorRateReport] = []
    for base in range(0, len(seeds), DEFAULT_LANE_BLOCK):
        lanes = _VectorLanes(
            kernel,
            edl_endpoints,
            seeds[base : base + DEFAULT_LANE_BLOCK],
            toggle_probability,
            cycles,
            plan,
            native,
        )
        for cycle in range(cycles):
            lanes.run_cycle(cycle)
        reports.extend(lanes.finish())
    return reports
