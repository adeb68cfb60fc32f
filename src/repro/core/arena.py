"""Flat-array netlist arena: the vectorized core representation.

The object timing engine (:class:`~repro.sta.engine.TimingEngine`)
walks per-gate Python dicts; at Table-I scale that is fine, but the
ROADMAP's 10-100x circuits spend almost all of their time in the
per-node DP loops.  This module compiles a netlist + delay calculator
pair **once** into a :class:`NetlistArena`: int-indexed gates,
CSR-style per-arc record arrays grouped by logic level, and the
pre-pulled arc delays — then runs the forward/backward max-delay DP
as a handful of NumPy reductions per level.  The min-delay (hold)
analysis has no arena form: :class:`~repro.sta.min_delay.MinDelayAnalysis`
computes its one table once and repairs it per inserted buffer.

Bit-parity contract
-------------------

The arena kernels replay the *exact* float operations of the object
engines, in an order that cannot change the result:

* every arc delay is obtained from the same calculator calls
  (``edge_delay`` / ``transition_edges``) the object DP makes, so the
  per-candidate floats are identical;
* ``max`` over non-NaN float64 candidates is
  order-independent, so per-level ``reduceat`` grouping is safe;
* NaN candidates — which the object DP skips while raising a per-node
  ``saw_nan`` flag — are masked to -inf before the reduction and the
  flag is re-derived per group, reproducing the object's
  NaN-poisoning rules (a node whose every candidate is NaN becomes
  NaN; a NaN value then propagates downstream by arithmetic);
* the object engine's :class:`~repro.errors.TimingError` paths
  (missing forward arrival, unreachable node) are raised for the
  topologically-first offending node.  The netlist's Kahn
  levelization dequeues in non-decreasing level order, so processing
  levels in order and picking the smallest topo index within a level
  reproduces the object engine's error choice.

Compilation is content-addressed: the canonical fingerprint
(:func:`repro.store.arena_fingerprint`) covers the gate list (names,
types, cells, fanins in order), the calculator class and its
load-model parameters, and the library *content*.  Compiled arenas
live in the ambient :class:`~repro.store.ArtifactStore` (namespace
``"arena"``): a memory LRU keeps recently-used arenas hot so sibling
engines over equal netlists share one compile, and a persistent store
shares compiles across processes and CLI invocations.

Cell swaps and rewires do not need a recompile:
:meth:`NetlistArena.with_patched_delays` re-pulls only the arcs
incident to the dirty gates (the same eviction rule the calculators
use) and returns a new arena sharing every untouched array — cached
pristine arenas are never mutated.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import metrics
from repro.errors import TimingError
from repro.netlist.netlist import GateType, Netlist
from repro.sta.delay_models import (
    DelayCalculator,
    PathBasedCalculator,
)
from repro.store import ArtifactStore, arena_fingerprint, get_store

NEG_INF = float("-inf")
NAN = float("nan")

#: Per-level record block: (record_lo, record_hi, group starts relative
#: to record_lo, group target indices, ...) — see the builders below.
_Block = Tuple


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Start positions of runs of equal values in ``keys``."""
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])


class NetlistArena:
    """Compiled flat-array form of one netlist + calculator pair.

    Instances are immutable once compiled (and shared through the
    content-addressed cache); delay updates go through
    :meth:`with_patched_delays`, which returns a new arena.
    """

    def __init__(self, netlist: Netlist, calculator: DelayCalculator,
                 fingerprint: str) -> None:
        self.fingerprint = fingerprint
        self.rf = isinstance(calculator, PathBasedCalculator)

        order = tuple(netlist.topo_order())
        self.names: Tuple[str, ...] = order
        self.index: Dict[str, int] = {n: i for i, n in enumerate(order)}
        self.n = len(order)
        index = self.index

        is_source = np.zeros(self.n, dtype=bool)
        is_comb = np.zeros(self.n, dtype=bool)
        is_output = np.zeros(self.n, dtype=bool)
        level = np.zeros(self.n, dtype=np.int64)
        for i, name in enumerate(order):
            gate = netlist[name]
            if gate.is_source:
                is_source[i] = True
            elif gate.gtype is GateType.OUTPUT:
                is_output[i] = True
            else:
                is_comb[i] = True
            if not gate.is_source:
                level[i] = 1 + max(level[index[d]] for d in gate.fanins)
        self.is_source = is_source
        self.is_comb = is_comb
        self.is_output = is_output
        self.level = level
        self.max_level = int(level.max()) if self.n else 0

        # Names/indices of the gates the forward dict covers (the
        # object DP skips OUTPUT markers).
        keep = ~is_output
        self.fwd_idx = np.flatnonzero(keep)
        self.fwd_names: Tuple[str, ...] = tuple(
            order[i] for i in self.fwd_idx.tolist()
        )
        self.src_idx = np.flatnonzero(is_source)

        #: comb node indices, ascending (== non-decreasing level).
        self._comb_idx = np.flatnonzero(is_comb)
        self._comb_levels = level[self._comb_idx]

        # Per-level list of (gate topo idx, gate name, first OUTPUT
        # driver name) — nodes the object DP raises a missing-arrival
        # TimingError for.  Their arcs carry no records.
        self._bad_fanin: Dict[int, List[Tuple[int, str, str]]] = {}

        self._build_edges(netlist, calculator)

    # -- compilation ---------------------------------------------------

    def _dedup_fanins(self, fanins: Sequence[str]) -> List[str]:
        seen = set()
        out = []
        for d in fanins:
            if d not in seen:
                seen.add(d)
                out.append(d)
        return out

    def _build_edges(self, netlist: Netlist,
                     calc: DelayCalculator) -> None:
        index = self.index
        is_output = self.is_output
        # -- collect unique (driver, sink) pairs ------------------------
        f_src: List[int] = []      # forward: comb sinks, no OUTPUT drivers
        f_dst: List[int] = []
        f_pairs: List[Tuple[str, str]] = []
        b_src: List[int] = []      # backward: every sink
        b_dst: List[int] = []
        b_end: List[bool] = []
        b_pairs: List[Optional[Tuple[str, str]]] = []
        for i, name in enumerate(self.names):
            gate = netlist[name]
            if not gate.fanins:
                continue
            endpoint = gate.gtype in (GateType.OUTPUT, GateType.DFF)
            comb = gate.is_comb
            for dname in self._dedup_fanins(gate.fanins):
                di = index[dname]
                b_src.append(di)
                b_dst.append(i)
                b_end.append(endpoint)
                b_pairs.append(None if endpoint else (dname, name))
                if comb:
                    if is_output[di]:
                        lvl = int(self.level[i])
                        entry = (i, name, dname)
                        bad = self._bad_fanin.setdefault(lvl, [])
                        # Keep only the first OUTPUT driver per gate
                        # (fanins order), matching the object's raise.
                        if not any(e[0] == i for e in bad):
                            bad.append(entry)
                        continue
                    f_src.append(di)
                    f_dst.append(i)
                    f_pairs.append((dname, name))
        for lst in self._bad_fanin.values():
            lst.sort()

        # -- forward (scalar or rise/fall) ------------------------------
        self.f_src = np.asarray(f_src, dtype=np.int64)
        self.f_dst = np.asarray(f_dst, dtype=np.int64)
        if self.rf:
            self._build_rf(f_pairs, calc)
        else:
            self.f_delay = np.array(
                [calc.edge_delay(d, s) for d, s in f_pairs],
                dtype=np.float64,
            )
            # records were appended sink-major in topo order, so they
            # are already sorted by (level[dst], dst).
            self._fwd_pos = {
                (index[d], index[s]): p
                for p, (d, s) in enumerate(f_pairs)
            }
            self.f_blocks = self._forward_blocks(self.f_dst)

        # -- backward ----------------------------------------------------
        bs = np.asarray(b_src, dtype=np.int64)
        bd = np.asarray(b_dst, dtype=np.int64)
        be = np.asarray(b_end, dtype=bool)
        perm = np.lexsort((bd, -bs))  # src descending, dst ascending
        self.b_src = bs[perm]
        self.b_dst = bd[perm]
        self.b_end = be[perm]
        delays = np.zeros(len(b_pairs), dtype=np.float64)
        bwd_pos: Dict[Tuple[int, int], int] = {}
        for new_pos, old_pos in enumerate(perm.tolist()):
            pair = b_pairs[old_pos]
            if pair is None:
                continue
            delays[new_pos] = calc.edge_delay(pair[0], pair[1])
            bwd_pos[(index[pair[0]], index[pair[1]])] = new_pos
        self.b_delay = delays
        self._bwd_pos = bwd_pos
        self.b_blocks = self._backward_blocks()

    def _build_rf(self, f_pairs: List[Tuple[str, str]],
                  calc: DelayCalculator) -> None:
        """Transition records of the path model, grouped by (dst, out).

        ``transition_edges`` is pure in the loads/slews the calculator
        caches, so pre-pulling the triples here yields the identical
        floats the object DP recomputes per node.
        """
        index = self.index
        src: List[int] = []
        dst: List[int] = []
        t_in: List[bool] = []
        t_out: List[bool] = []
        dly: List[float] = []
        for dname, sname in f_pairs:
            di, si = index[dname], index[sname]
            for in_rising, out_rising, delay in calc.transition_edges(
                dname, sname
            ):
                src.append(di)
                dst.append(si)
                t_in.append(in_rising)
                t_out.append(out_rising)
                dly.append(delay)
        seq = np.arange(len(src), dtype=np.int64)
        a_src = np.asarray(src, dtype=np.int64)
        a_dst = np.asarray(dst, dtype=np.int64)
        a_out = np.asarray(t_out, dtype=bool)
        # (dst, out, src, original order): groups are contiguous per
        # (dst, out) for the reduceat scatter, and per (src, dst, out)
        # for delay patching.
        perm = np.lexsort((seq, a_src, a_out, a_dst))
        self.t_src = a_src[perm]
        self.t_dst = a_dst[perm]
        self.t_in = np.asarray(t_in, dtype=bool)[perm]
        self.t_out = a_out[perm]
        self.t_delay = np.asarray(dly, dtype=np.float64)[perm]
        # pair -> (rise_start, rise_count, fall_start, fall_count)
        rf_pos: Dict[Tuple[int, int], List[int]] = {}
        key = (
            self.t_dst * 4
            + self.t_out.astype(np.int64) * 2
        ) * (self.n + 1) + self.t_src
        seg = _group_starts(key)
        seg_end = np.r_[seg[1:], len(key)]
        for s, e in zip(seg.tolist(), seg_end.tolist()):
            pair = (int(self.t_src[s]), int(self.t_dst[s]))
            entry = rf_pos.setdefault(pair, [0, 0, 0, 0])
            if self.t_out[s]:
                entry[0], entry[1] = s, e - s
            else:
                entry[2], entry[3] = s, e - s
        self._rf_pos = rf_pos
        self.t_blocks = self._forward_blocks(
            self.t_dst,
            group_key=self.t_dst * 2 + self.t_out.astype(np.int64),
            group_out=self.t_out,
        )

    def _forward_blocks(
        self,
        dst: np.ndarray,
        group_key: Optional[np.ndarray] = None,
        group_out: Optional[np.ndarray] = None,
    ) -> List[_Block]:
        """Per-level blocks for a forward (sink-major ascending) table.

        Each block is ``(lo, hi, rel_starts, grp_dst, grp_out, nodes,
        bad)`` where records ``[lo:hi]`` belong to one logic level,
        ``rel_starts`` are reduceat group starts relative to ``lo``,
        ``grp_dst`` the per-group target node, ``grp_out`` the target
        transition state (rf only, else None), ``nodes`` the comb node
        indices of the level and ``bad`` its missing-arrival entries.
        """
        keys = dst if group_key is None else group_key
        starts = _group_starts(keys)
        group_levels = self.level[dst[starts]] if starts.size else (
            np.empty(0, dtype=np.int64)
        )
        blocks: List[_Block] = []
        n_rec = len(dst)
        for lvl in range(1, self.max_level + 1):
            g0, g1 = np.searchsorted(group_levels, [lvl, lvl + 1])
            c0, c1 = np.searchsorted(self._comb_levels, [lvl, lvl + 1])
            bad = self._bad_fanin.get(lvl, [])
            if g0 == g1 and c0 == c1 and not bad:
                continue
            if g0 < g1:
                lo = int(starts[g0])
                hi = int(starts[g1]) if g1 < len(starts) else n_rec
                rel = starts[g0:g1] - lo
                grp_dst = dst[starts[g0:g1]]
                grp_out = (
                    group_out[starts[g0:g1]]
                    if group_out is not None else None
                )
            else:
                lo = hi = 0
                rel = np.empty(0, dtype=np.int64)
                grp_dst = np.empty(0, dtype=np.int64)
                grp_out = (
                    np.empty(0, dtype=bool)
                    if group_out is not None else None
                )
            nodes = self._comb_idx[c0:c1]
            blocks.append((lo, hi, rel, grp_dst, grp_out, nodes, bad))
        return blocks

    def _backward_blocks(self) -> List[_Block]:
        """Per-level blocks of the source-major descending table."""
        starts = _group_starts(self.b_src)
        blocks: List[_Block] = []
        if starts.size == 0:
            return blocks
        glev = self.level[self.b_src[starts]]  # non-increasing
        lvl_starts = _group_starts(glev)
        n_groups = len(starts)
        n_rec = len(self.b_src)
        for k, gs in enumerate(lvl_starts.tolist()):
            ge = (
                int(lvl_starts[k + 1])
                if k + 1 < len(lvl_starts) else n_groups
            )
            lo = int(starts[gs])
            hi = int(starts[ge]) if ge < n_groups else n_rec
            blocks.append(
                (lo, hi, starts[gs:ge] - lo, self.b_src[starts[gs:ge]])
            )
        return blocks

    # -- delay patching -------------------------------------------------

    def with_patched_delays(
        self,
        netlist: Netlist,
        calc: DelayCalculator,
        dirty: Iterable[str],
    ) -> Optional["NetlistArena"]:
        """A new arena with the arcs incident to ``dirty`` re-pulled.

        Mirrors the calculators' own eviction rule: after a cell swap
        or rewire, only arcs whose driver or sink is dirty can change.
        Returns ``None`` when the arena must be recompiled instead (an
        unknown gate, or a swap that changed a cell's arc structure).
        """
        pairs = set()
        for g in dirty:
            if g not in netlist:
                return None
            gi = self.index.get(g)
            if gi is None:
                return None
            gate = netlist[g]
            for d in self._dedup_fanins(gate.fanins):
                di = self.index.get(d)
                if di is None:
                    return None
                pairs.add((di, gi, d, g))
            for u in netlist.fanouts(g):
                ui = self.index.get(u)
                if ui is None:
                    return None
                pairs.add((gi, ui, g, u))
        if not pairs:
            return self
        clone = self._clone_for_patch()
        for di, si, dname, sname in pairs:
            gate = netlist[sname]
            if not gate.is_comb:
                continue  # endpoint arcs carry no delay
            if self.rf:
                if not clone._patch_rf(di, si, dname, sname, calc):
                    return None
            else:
                pos = clone._fwd_pos.get((di, si))
                if pos is None:
                    if not self.is_output[di]:
                        return None
                    continue  # missing-arrival arc: never had records
                clone.f_delay[pos] = calc.edge_delay(dname, sname)
            bpos = clone._bwd_pos.get((di, si))
            if bpos is not None:
                clone.b_delay[bpos] = calc.edge_delay(dname, sname)
        metrics.count("arena.patch.arcs", float(len(pairs)))
        return clone

    def _clone_for_patch(self) -> "NetlistArena":
        clone = object.__new__(NetlistArena)
        clone.__dict__.update(self.__dict__)
        # Copy-on-write: only the delay payload arrays may change.
        if self.rf:
            clone.t_delay = self.t_delay.copy()
            clone.t_in = self.t_in.copy()
        else:
            clone.f_delay = self.f_delay.copy()
        clone.b_delay = self.b_delay.copy()
        return clone

    def _patch_rf(self, di: int, si: int, dname: str, sname: str,
                  calc: DelayCalculator) -> bool:
        entry = self._rf_pos.get((di, si))
        if entry is None:
            # only legitimate when the arc never had records
            return bool(self.is_output[di])
        triples = calc.transition_edges(dname, sname)
        rise = [(i, d) for i, o, d in triples if o]
        fall = [(i, d) for i, o, d in triples if not o]
        rs, rc, fs, fc = entry
        if len(rise) != rc or len(fall) != fc:
            return False  # arc structure changed: recompile
        for off, (in_rising, delay) in enumerate(rise):
            self.t_in[rs + off] = in_rising
            self.t_delay[rs + off] = delay
        for off, (in_rising, delay) in enumerate(fall):
            self.t_in[fs + off] = in_rising
            self.t_delay[fs + off] = delay
        return True

    # -- kernels ---------------------------------------------------------

    def _source_vector(
        self, offsets: Dict[str, float], fill: float
    ) -> np.ndarray:
        arr = np.full(self.n, fill, dtype=np.float64)
        arr[self.src_idx] = 0.0
        for name, off in offsets.items():
            i = self.index.get(name)
            if i is not None and self.is_source[i]:
                arr[i] = off
        return arr

    def _raise_forward_error(
        self,
        bad: List[Tuple[int, str, str]],
        err_nodes: np.ndarray,
        rf_style: bool,
        fanin_lookup=None,
    ) -> None:
        """Raise the object engine's error for the topo-first offender.

        The missing-arrival error wins a tie (the object DP raises it
        inside the fanin loop, before the unreachable-gate check).
        """
        a_idx = bad[0][0] if bad else self.n + 1
        b_idx = int(err_nodes[0]) if err_nodes.size else self.n + 1
        if a_idx <= b_idx:
            _, name, driver = bad[0]
            raise TimingError(
                f"gate {name!r} reads {driver!r}, which has "
                f"no forward arrival (endpoint or outside "
                f"the combinational cloud)",
                payload={"gate": name, "fanin": driver},
            )
        name = self.names[b_idx]
        if rf_style:
            fanins = list(fanin_lookup(name)) if fanin_lookup else []
            raise TimingError(
                f"gate {name!r} is unreachable under the "
                f"rise/fall transition edges of its fanins "
                f"{fanins}",
                payload={"gate": name, "fanins": fanins},
            )
        raise TimingError(
            f"gate {name!r} has no fanins to propagate "
            f"arrivals from",
            payload={"gate": name},
        )

    def forward_scalar(
        self, offsets: Dict[str, float]
    ) -> np.ndarray:
        """Levelized scalar max-arrival DP (gate / fixed models)."""
        arr = self._source_vector(offsets, NEG_INF)
        f_src, f_delay = self.f_src, self.f_delay
        with np.errstate(invalid="ignore"):
            for lo, hi, rel, grp_dst, _, nodes, bad in self.f_blocks:
                gnan = None
                if hi > lo:
                    cand = arr[f_src[lo:hi]] + f_delay[lo:hi]
                    nanm = np.isnan(cand)
                    if nanm.any():
                        cand = np.where(nanm, NEG_INF, cand)
                        gnan = np.logical_or.reduceat(nanm, rel)
                    arr[grp_dst] = np.maximum.reduceat(cand, rel)
                if nodes.size == 0 and not bad:
                    continue
                vals = arr[nodes]
                dead = vals == NEG_INF
                if not dead.any() and not bad:
                    continue
                saw = np.zeros(nodes.size, dtype=bool)
                if gnan is not None:
                    saw[np.searchsorted(nodes, grp_dst)] = gnan
                arr[nodes[dead & saw]] = NAN
                err_nodes = nodes[dead & ~saw]
                if bad or err_nodes.size:
                    self._raise_forward_error(
                        bad, err_nodes, rf_style=False
                    )
        return arr

    def forward_rf(
        self,
        offsets: Dict[str, float],
        fanin_lookup=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Two-state rise/fall max-arrival DP (path model).

        ``fanin_lookup(name)`` returns ``sorted(set(fanins))`` of a
        gate — only consulted to phrase the unreachable-gate error
        exactly like the object engine.
        """
        rise = self._source_vector(offsets, NEG_INF)
        fall = rise.copy()
        t_src, t_in, t_delay = self.t_src, self.t_in, self.t_delay
        with np.errstate(invalid="ignore"):
            for lo, hi, rel, grp_dst, grp_out, nodes, bad in self.t_blocks:
                gnan = None
                if hi > lo:
                    src = t_src[lo:hi]
                    base = np.where(
                        t_in[lo:hi], rise[src], fall[src]
                    )
                    invalid = base == NEG_INF
                    cand = base + t_delay[lo:hi]
                    nanm = np.isnan(cand) & ~invalid
                    masked = invalid | nanm
                    if masked.any():
                        cand = np.where(masked, NEG_INF, cand)
                    if nanm.any():
                        gnan = np.logical_or.reduceat(nanm, rel)
                    red = np.maximum.reduceat(cand, rel)
                    rise[grp_dst[grp_out]] = red[grp_out]
                    fall[grp_dst[~grp_out]] = red[~grp_out]
                if nodes.size == 0 and not bad:
                    continue
                dead = (
                    (rise[nodes] == NEG_INF) & (fall[nodes] == NEG_INF)
                )
                if not dead.any() and not bad:
                    continue
                saw = np.zeros(nodes.size, dtype=bool)
                if gnan is not None:
                    pos = np.searchsorted(nodes, grp_dst)
                    np.logical_or.at(saw, pos, gnan)
                nan_nodes = nodes[dead & saw]
                rise[nan_nodes] = NAN
                fall[nan_nodes] = NAN
                err_nodes = nodes[dead & ~saw]
                if bad or err_nodes.size:
                    self._raise_forward_error(
                        bad, err_nodes, rf_style=True,
                        fanin_lookup=fanin_lookup,
                    )
        return rise, fall

    def backward_any(self) -> np.ndarray:
        """Levelized max delay-to-any-endpoint DP (reverse order)."""
        res = np.full(self.n, NEG_INF, dtype=np.float64)
        b_dst, b_delay, b_end = self.b_dst, self.b_delay, self.b_end
        with np.errstate(invalid="ignore"):
            for lo, hi, rel, grp_src in self.b_blocks:
                down = res[b_dst[lo:hi]]
                end = b_end[lo:hi]
                cand = np.where(end, 0.0, b_delay[lo:hi] + down)
                masked = (~end & (down == NEG_INF)) | np.isnan(cand)
                if masked.any():
                    cand = np.where(masked, NEG_INF, cand)
                res[grp_src] = np.maximum.reduceat(cand, rel)
        return res

    def forward_dict(self, arr: np.ndarray) -> Dict[str, float]:
        """The object engine's forward dict (OUTPUT markers skipped)."""
        return dict(zip(self.fwd_names, arr[self.fwd_idx].tolist()))

    def full_dict(self, arr: np.ndarray) -> Dict[str, float]:
        """A per-gate dict over every node (backward tables)."""
        return dict(zip(self.names, arr.tolist()))


# -- the content-addressed compile cache ------------------------------------

#: The artifact-store namespace compiled arenas live in.  The LRU
#: capacity is per-store (``ArtifactStore.set_capacity(NAMESPACE, n)``
#: / the CLI's ``--store-capacity``), defaulting to the 8 entries the
#: legacy module-level cache kept.
NAMESPACE = "arena"


def compile_arena(
    netlist: Netlist, calculator: DelayCalculator,
    store: Optional[ArtifactStore] = None,
) -> NetlistArena:
    """Compile (or fetch from the ambient artifact store) the arena.

    Arenas are numpy arrays plus plain dicts, so a persistent store
    shares compiles across processes and CLI invocations; the
    fingerprint hashes the library *content*, making the key valid
    outside the producing process.  Emits the legacy
    ``arena.compile.{hits,misses}`` counters alongside the store's
    ``store.arena.*`` family.
    """
    store = store if store is not None else get_store()
    fp = arena_fingerprint(netlist, calculator)
    cached = store.get(NAMESPACE, fp)
    if cached is not None:
        metrics.count("arena.compile.hits")
        return cached
    metrics.count("arena.compile.misses")
    with metrics.stage_timer("arena.compile"):
        arena = NetlistArena(netlist, calculator, fp)
    store.put(NAMESPACE, fp, arena)
    return arena


def clear_arena_cache() -> None:
    """Drop the in-memory arena tier (tests / memory pressure).  Disk
    artifacts of a persistent store survive — clear those with
    ``ArtifactStore.clear(NAMESPACE)`` / ``repro cache clear``."""
    get_store().clear_memory(NAMESPACE)
