"""C gate and latch stages for the lane engine.

The lane engine (:mod:`repro.sim.vector`) keeps all simulation state
in NumPy arrays, but the per-level gate transform — candidate merge,
per-pin value cursors, causing-pin window, arc-delay max, preemption
and value pruning — is a chain of many small array ops whose per-op
dispatch cost dominates at realistic lane counts.  This module builds
that one transform as a tiny C routine operating directly on the
engine's global ``(slot, lane, event)`` arrays, the same way NumPy's
own ufunc loops do: one call per topological level advances every
gate and every lane.

The C loop mirrors the event simulator's gate evaluation,
:meth:`repro.sim.logicsim.TimedSimulator._evaluate_gate`, and
``eval_latches`` mirrors its ``_latch_transform`` (same double-precision
operations in the same order: the only float arithmetic is ``when -
eps`` / ``when + eps`` / ``when + delay``, compiled with
``-ffp-contract=off`` so no fused ops can change a result), so it is
bit-exact against the event oracle.

The helper is optional: it compiles lazily with the system C compiler
into a content-hashed shared object in a private per-user cache
directory (atomic rename, safe for concurrent workers).  When it
cannot be used — ``REPRO_VECTOR_NATIVE=0``, no compiler, a failed
compile or a failed load — the lane engine runs its pure-NumPy stage,
which implements identical semantics, and :func:`load` says why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from typing import Optional, Tuple

_SOURCE = r"""
#include <stdint.h>

#define INF (1.0 / 0.0)
#define MAXK 16

/* Evaluate one level-group of k-input gates across all lanes.
 *
 * Global waveform arrays are C-contiguous (n_slots, n_lanes, width);
 * `ins` holds kmax slot ids per gate (missing pins point at the
 * dummy slot: count 0, initial 0).  Gates are visited in schedule
 * order, lanes inner.  Returns 0 on success; on event-cap overflow
 * returns 1 with err_gate/err_count set for the first overflowing
 * gate in schedule order (first overflowing lane).
 */
int eval_gates(
    int64_t n_gates, int64_t n_lanes, int64_t kmax, int64_t width,
    const int64_t *ins,       /* (n_gates, kmax) */
    const int64_t *out_slots, /* (n_gates,) */
    const int64_t *single,    /* (n_gates,) 1 = true 1-input gate */
    const double *delays,     /* (n_gates, kmax, 2) */
    const int64_t *tables,    /* (n_gates, 1 << kmax) */
    double *times,            /* (n_slots, n_lanes, width) */
    int64_t *values,          /* (n_slots, n_lanes, width) */
    int64_t *counts,          /* (n_slots, n_lanes) */
    int64_t *inits,           /* (n_slots, n_lanes) */
    int64_t cap, double eps,
    int64_t *err_gate, int64_t *err_count)
{
    int64_t tsize = (int64_t)1 << kmax;
    for (int64_t g = 0; g < n_gates; g++) {
        const int64_t *gin = ins + g * kmax;
        const double *gdel = delays + g * kmax * 2;
        const int64_t *tab = tables + g * tsize;
        int64_t oslot = out_slots[g];
        for (int64_t lane = 0; lane < n_lanes; lane++) {
            const double *tin[MAXK];
            const int64_t *vin[MAXK];
            int64_t len[MAXK], cur[MAXK], cc[MAXK], val[MAXK];
            int64_t mask = 0, total = 0;
            for (int64_t p = 0; p < kmax; p++) {
                int64_t row = gin[p] * n_lanes + lane;
                tin[p] = times + row * width;
                vin[p] = values + row * width;
                len[p] = counts[row];
                cur[p] = 0;
                cc[p] = 0;
                val[p] = inits[row];
                mask |= val[p] << p;
                total += len[p];
            }
            int64_t out_init = tab[mask];
            int64_t orow = oslot * n_lanes + lane;
            double *tout = times + orow * width;
            int64_t *vout = values + orow * width;
            int64_t old_count = counts[orow];
            int64_t ne = 0;       /* events written (pre-prune) */
            int64_t n_cand = 0;   /* deduped candidate count */
            if (total > 0) {
                for (;;) {
                    /* next distinct candidate time */
                    double when = INF;
                    int any = 0;
                    for (int64_t p = 0; p < kmax; p++) {
                        if (cur[p] < len[p] && tin[p][cur[p]] < when) {
                            when = tin[p][cur[p]];
                            any = 1;
                        }
                    }
                    if (!any)
                        break;
                    n_cand++;
                    /* advance value cursors through `when` (the
                     * inclusive Waveform.value_at) */
                    for (int64_t p = 0; p < kmax; p++) {
                        int64_t c = cur[p], e = len[p];
                        if (c < e && tin[p][c] <= when) {
                            while (c < e && tin[p][c] <= when)
                                c++;
                            val[p] = vin[p][c - 1];
                            cur[p] = c;
                        }
                    }
                    mask = 0;
                    for (int64_t p = 0; p < kmax; p++)
                        mask |= val[p] << p;
                    int64_t new_value = tab[mask];
                    double delay;
                    if (single[g]) {
                        /* a true 1-input gate: the single pin
                         * always causes, no eps-window test */
                        delay = gdel[new_value];
                    } else {
                        /* causing pins: any transition inside
                         * (when - eps, when + eps) */
                        delay = 0.0;
                        double lo = when - eps;
                        double hi = when + eps;
                        for (int64_t p = 0; p < kmax; p++) {
                            int64_t e = len[p];
                            if (!e)
                                continue;
                            int64_t c = cc[p];
                            while (c < e && tin[p][c] <= lo)
                                c++;
                            cc[p] = c;
                            if (c < e && tin[p][c] < hi) {
                                double arc = gdel[p * 2 + new_value];
                                if (arc > delay)
                                    delay = arc;
                            }
                        }
                    }
                    double out_time = when + delay;
                    while (ne > 0 && tout[ne - 1] >= out_time)
                        ne--;
                    tout[ne] = out_time;
                    vout[ne] = new_value;
                    ne++;
                }
                if (n_cand > cap) {
                    *err_gate = g;
                    *err_count = n_cand;
                    return 1;
                }
            }
            /* prune runs of unchanged value (in place) */
            int64_t running = out_init, kept = 0;
            for (int64_t j = 0; j < ne; j++) {
                if (vout[j] != running) {
                    tout[kept] = tout[j];
                    vout[kept] = vout[j];
                    running = vout[j];
                    kept++;
                }
            }
            /* restore the inf padding over any stale tail */
            int64_t stale = old_count > ne ? old_count : ne;
            for (int64_t j = kept; j < stale; j++)
                tout[j] = INF;
            counts[orow] = kept;
            inits[orow] = out_init;
        }
    }
    return 0;
}

/* One stage of cloud-latch transforms across all lanes: the event
 * simulator's `_latch_transform` per (latch, lane).  Source and destination
 * slots are distinct by construction (each latch owns its output
 * slot), so writing the output row never clobbers unread input.
 * `held` is (n_rows, n_lanes): the latch's carried state, which is
 * both the prune baseline and the output initial value.
 */
int eval_latches(
    int64_t n_rows, int64_t n_lanes, int64_t width,
    const int64_t *src_slots, const int64_t *dst_slots,
    const int64_t *held,
    double t_open, double t_close, double d_q, double open_edge,
    double *times, int64_t *values, int64_t *counts, int64_t *inits)
{
    for (int64_t r = 0; r < n_rows; r++) {
        for (int64_t lane = 0; lane < n_lanes; lane++) {
            int64_t srow = src_slots[r] * n_lanes + lane;
            int64_t drow = dst_slots[r] * n_lanes + lane;
            const double *tin = times + srow * width;
            const int64_t *vin = values + srow * width;
            int64_t len = counts[srow];
            int64_t h = held[r * n_lanes + lane];
            double *tout = times + drow * width;
            int64_t *vout = values + drow * width;
            int64_t old_count = counts[drow];
            /* bisect_right(times, t_open): the opening value */
            int64_t idx = 0;
            while (idx < len && tin[idx] <= t_open)
                idx++;
            int64_t opening = idx ? vin[idx - 1] : inits[srow];
            int64_t ne = 0;
            if (opening != h) {
                tout[ne] = open_edge;
                vout[ne] = opening;
                ne++;
            }
            /* transparent window: t_open < when <= t_close */
            for (int64_t j = idx; j < len && tin[j] <= t_close; j++) {
                double out_time = tin[j] + d_q;
                while (ne > 0 && tout[ne - 1] >= out_time)
                    ne--;
                tout[ne] = out_time;
                vout[ne] = vin[j];
                ne++;
            }
            /* prune runs of unchanged value vs the held value */
            int64_t running = h, kept = 0;
            for (int64_t j = 0; j < ne; j++) {
                if (vout[j] != running) {
                    tout[kept] = tout[j];
                    vout[kept] = vout[j];
                    running = vout[j];
                    kept++;
                }
            }
            int64_t stale = old_count > ne ? old_count : ne;
            for (int64_t j = kept; j < stale; j++)
                tout[j] = INF;
            counts[drow] = kept;
            inits[drow] = h;
        }
    }
    return 0;
}
"""


def _private_dir(path: str) -> Optional[str]:
    """``path`` as a private cache directory, or ``None`` to refuse it.

    The directory is created with mode 0700 when missing.  A symlink,
    a non-directory, another user's directory, or one that group or
    others can write is refused: whoever can write there can plant the
    shared object this module loads.
    """
    try:
        try:
            os.mkdir(path, 0o700)
        except FileExistsError:
            pass
        info = os.lstat(path)
    except OSError:
        return None
    if (
        stat.S_ISLNK(info.st_mode)
        or not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        return None
    return path


def _build(compiler: str, workdir: str) -> str:
    """Compile the helper inside ``workdir``; returns the object path."""
    src = os.path.join(workdir, "veval.c")
    obj = os.path.join(workdir, "veval.so")
    with open(src, "w", encoding="utf-8") as fh:
        fh.write(_SOURCE)
    subprocess.run(
        [compiler, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
         src, "-o", obj],
        check=True,
        capture_output=True,
    )
    return obj


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    fn = lib.eval_gates
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 9 + [
        ctypes.c_int64,
        ctypes.c_double,
        ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    fl = lib.eval_latches
    fl.restype = ctypes.c_int
    fl.argtypes = (
        [ctypes.c_int64] * 3
        + [ctypes.c_void_p] * 3
        + [ctypes.c_double] * 4
        + [ctypes.c_void_p] * 4
    )
    return lib


def _load() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """Uncached :func:`load`."""
    if os.environ.get("REPRO_VECTOR_NATIVE", "1") == "0":
        return None, "disabled"
    digest = hashlib.sha256(_SOURCE.encode("utf-8")).hexdigest()
    cache = None
    if hasattr(os, "getuid"):
        cache = _private_dir(
            os.path.join(tempfile.gettempdir(), "repro-%d" % os.getuid())
        )
    # A refused cache directory means a one-off build in a fresh
    # private mkdtemp, deleted once the object is loaded.
    target = (
        os.path.join(cache, "veval-%s.so" % digest[:16]) if cache else None
    )
    workdir = None
    try:
        if target is None or not os.path.exists(target):
            compiler = shutil.which("cc") or shutil.which("gcc")
            if compiler is None:
                return None, "no-compiler"
            workdir = tempfile.mkdtemp(prefix="repro-veval-")
            try:
                built = _build(compiler, workdir)
                if target is None:
                    target = built
                else:
                    # Atomic: the last concurrent writer wins.
                    os.replace(built, target)
            except (OSError, subprocess.SubprocessError):
                return None, "compile-failed"
        try:
            return _bind(ctypes.CDLL(target)), None
        except (OSError, AttributeError):
            return None, "load-failed"
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


_loaded: Optional[Tuple[Optional[ctypes.CDLL], Optional[str]]] = None


def load() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """``(helper, None)``, or ``(None, reason)`` when the NumPy stage
    must run instead: ``"disabled"``, ``"no-compiler"``,
    ``"compile-failed"`` or ``"load-failed"``.  The outcome is cached
    for the process."""
    global _loaded
    if _loaded is None:
        _loaded = _load()
    return _loaded
