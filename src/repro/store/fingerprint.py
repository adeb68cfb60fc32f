"""The canonical fingerprint recipe: one sha256 for every cache key.

Before ``repro.store`` existed, hand-rolled digests keyed the result
caches — ``retime.compile`` hashed circuits and the scenario engine
hashed simulator end states.  This module replaces them with a single
recipe:

    sha256( kind \\x1f ENGINE_VERSION \\x1f part \\x1f part \\x1f ... )

Every part is rendered with ``str()`` and terminated by the ``\\x1f``
unit separator, so no concatenation of parts can collide with a
different split of the same bytes.  ``kind`` namespaces the digest
(two different artifact kinds can never share a key) and
:data:`ENGINE_VERSION` invalidates every persisted artifact at once
when the engines change in a result-affecting way.

The recipe is duck-typed on purpose: it reads only plain attributes
(gate lists, scheme phases, dataclass reprs), imports nothing outside
the standard library, and therefore sits below every other repro
module in the import graph.
"""

from __future__ import annotations

import hashlib
import json
from typing import (
    Any,
    Collection,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "ENGINE_VERSION",
    "Fingerprint",
    "circuit_fingerprint",
    "config_fingerprint",
    "content_digest",
    "decode_memo_cell_key",
    "library_fingerprint",
    "memo_cell_key",
    "netlist_fingerprint",
    "sizing_fingerprint",
]

#: Bumped whenever a change to the retimer or the delay models makes
#: previously-persisted artifacts stale.  Part of every fingerprint,
#: so a bump is a whole-store invalidation.
ENGINE_VERSION = "1"

_SEP = b"\x1f"


class Fingerprint:
    """Incremental canonical digest builder.

    >>> Fingerprint("demo").feed("a", 1).hexdigest()  # doctest: +SKIP
    """

    def __init__(self, kind: str) -> None:
        self._digest = hashlib.sha256()
        self.feed(kind, ENGINE_VERSION)

    def feed(self, *parts: object) -> "Fingerprint":
        """Append parts (rendered via ``str``, ``\\x1f``-terminated).

        One digest update per call: the bytes are those of one update
        per part, so callers may batch parts freely."""
        if parts:
            self._digest.update(
                ("\x1f".join(map(str, parts)) + "\x1f").encode("utf-8")
            )
        return self

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def content_digest(text: str, length: Optional[int] = None) -> str:
    """Plain sha256 of ``text`` (optionally truncated).

    This is the *unversioned* digest for data that identifies itself —
    simulator end states, seed-derivation strings — where the bytes
    must stay stable across engine versions (reports and derived seeds
    are part of the byte-parity contract).
    """
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digest[:length] if length else digest


def feed_netlist(fp: Fingerprint, netlist: Any) -> Fingerprint:
    """Feed a netlist by value: name plus every gate's identity.

    Covers gate names, types, cell bindings, and fanin order — the
    inputs a compiled retiming skeleton derives from.  Copies of a
    netlist collide; any resize or rewire changes the digest.
    """
    fp.feed("netlist", netlist.name)
    parts: List[str] = []
    for gate in netlist:
        parts += (gate.name, gate.gtype.value, gate.cell or "")
        parts += gate.fanins
    return fp.feed(*parts)


def netlist_fingerprint(netlist: Any) -> str:
    """Standalone content hash of one netlist."""
    return feed_netlist(Fingerprint("netlist"), netlist).hexdigest()


#: Library content digests are memoized per (object, cell count): the
#: cell reprs of a big library are not free, and libraries are built
#: once then shared.  Keyed by id *with a strong reference held*, so
#: an id can never be recycled while its memo entry is alive; the cell
#: count invalidates the memo if cells are added after fingerprinting.
_LIBRARY_MEMO: "Dict[Tuple[int, int], Tuple[Any, str]]" = {}
_LIBRARY_MEMO_MAX = 16


def library_fingerprint(library: Any) -> str:
    """Content hash of a cell library.

    Hashes the cells themselves (frozen dataclasses with value reprs),
    never the library's ``id``, so the digest is valid *across*
    processes and runs — the property the on-disk store needs.
    """
    if library is None:
        return content_digest("library/none")
    memo_key_ = (id(library), len(library.cells))
    hit = _LIBRARY_MEMO.get(memo_key_)
    if hit is not None and hit[0] is library:
        return hit[1]
    fp = Fingerprint("library")
    fp.feed(library.name, len(library.cells))
    for name in sorted(library.cells):
        cell = library.cells[name]
        fp.feed(name, type(cell).__name__, repr(cell))
    for group in sorted(getattr(library, "latch_groups", {}) or {}):
        fp.feed("group", group, library.latch_groups[group])
    digest = fp.hexdigest()
    _LIBRARY_MEMO[memo_key_] = (library, digest)
    while len(_LIBRARY_MEMO) > _LIBRARY_MEMO_MAX:
        _LIBRARY_MEMO.pop(next(iter(_LIBRARY_MEMO)))
    return digest


def circuit_fingerprint(circuit: Any, conflict_policy: str = "error") -> str:
    """Key of a compiled G-RAR problem (``"compiled-grar"`` namespace).

    Hashes everything regions, cut sets, and the retiming-graph
    skeleton depend on: the netlist by value, the clock scheme, the
    latch timing, the delay-model class and its source offsets, the
    library content, and the region conflict policy.  The copies the
    flow pipeline makes of a pristine circuit collide — the point of
    the cache — while any resizing or restructuring changes the
    digest.
    """
    fp = Fingerprint("compiled-grar")
    _feed_circuit(fp, circuit, type(circuit.engine.calculator).__name__)
    fp.feed("conflict_policy", conflict_policy)
    return fp.hexdigest()


def sizing_fingerprint(
    kind: str,
    circuit: Any,
    retimed: Optional[Collection[str]],
    limits: Mapping[str, float],
    params: Sequence[object],
) -> str:
    """Key of one sizing run (``"sizing"`` namespace).

    Hashes what the run reads: the circuit as
    :func:`circuit_fingerprint` sees it, except that the delay model is
    named by its qualified class and load model; the placement's
    retimed set (``None`` for runs that read plain arrivals); the
    limits in their order, which breaks the runs' ties; and the
    run's knobs (``params``).  ``kind`` names the entry point.
    """
    fp = Fingerprint("sizing")
    fp.feed(kind)
    calculator = circuit.engine.calculator
    cls = type(calculator)
    _feed_circuit(
        fp, circuit, f"{cls.__module__}.{cls.__qualname__}",
        repr(calculator.load_model),
    )
    if retimed is not None:
        fp.feed("retimed", len(retimed), *sorted(retimed))
    fp.feed("limits", len(limits))
    fp.feed(*(part for item in limits.items() for part in item))
    fp.feed("params", *params)
    return fp.hexdigest()


def _feed_circuit(fp: Fingerprint, circuit: Any, *model: object) -> None:
    """Feed the timing view of a circuit: netlist, clock scheme, latch
    timing, the delay ``model`` parts, source offsets and library."""
    feed_netlist(fp, circuit.netlist)
    scheme = circuit.scheme
    fp.feed("scheme", scheme.phi1, scheme.gamma1, scheme.phi2, scheme.gamma2)
    fp.feed("latch", circuit.latch_ck_q, circuit.latch_d_q, circuit.latch_area)
    engine = circuit.engine
    fp.feed("model", *model)
    for name in sorted(engine.source_offsets):
        fp.feed("offset", name, engine.source_offsets[name])
    if circuit.library is not None:
        fp.feed("library", library_fingerprint(circuit.library))


def config_fingerprint(kind: str, config: Mapping[str, Any]) -> str:
    """Key of a memo namespace entry: a sorted-items config hash.

    The suite and scenario memos persist one artifact per run
    *configuration*; this derives that artifact's store key from the
    knobs that change results (anything bit-identical by contract —
    backends, STA modes — stays out of the config by the caller's
    choice).
    """
    fp = Fingerprint(kind)
    for key in sorted(config):
        fp.feed(key, config[key])
    return fp.hexdigest()


def memo_cell_key(parts: Sequence[Any]) -> str:
    """Injective per-cell memo key: a JSON array, immune to ``|`` in
    names, round-tripping float overheads exactly (repr semantics)."""
    return json.dumps(list(parts))


def decode_memo_cell_key(memo_key: str) -> Tuple[Any, ...]:
    """Inverse of :func:`memo_cell_key`."""
    return tuple(json.loads(memo_key))
