"""``repro.store``: canonical fingerprints + the two-tier artifact store.

The persistent half of the ROADMAP's retiming-as-a-service arc: one
sha256 recipe for every cache key (:mod:`repro.store.fingerprint`),
one content-addressed store behind every result cache
(:mod:`repro.store.store`), and one resumable-memo recipe for both
sweeps (:mod:`repro.store.memo`).  See DESIGN.md §15 for the
architecture and the namespace map.
"""

from repro.atomic_io import (
    atomic_write_bytes,
    atomic_write_text,
    unique_tmp_name,
)
from repro.store.fingerprint import (
    ENGINE_VERSION,
    Fingerprint,
    arena_fingerprint,
    circuit_fingerprint,
    config_fingerprint,
    content_digest,
    decode_memo_cell_key,
    library_fingerprint,
    memo_cell_key,
    netlist_fingerprint,
)
from repro.store.memo import MEMO_SCHEMA, SweepMemo
from repro.store.store import (
    DEFAULT_CAPACITY,
    STORE_SCHEMA,
    ArtifactStore,
    StoreError,
    get_store,
    open_store,
    set_default_store,
    use_store,
)

__all__ = [
    "ArtifactStore",
    "DEFAULT_CAPACITY",
    "ENGINE_VERSION",
    "Fingerprint",
    "MEMO_SCHEMA",
    "STORE_SCHEMA",
    "StoreError",
    "SweepMemo",
    "arena_fingerprint",
    "atomic_write_bytes",
    "atomic_write_text",
    "circuit_fingerprint",
    "config_fingerprint",
    "content_digest",
    "decode_memo_cell_key",
    "get_store",
    "library_fingerprint",
    "memo_cell_key",
    "netlist_fingerprint",
    "open_store",
    "set_default_store",
    "unique_tmp_name",
    "use_store",
]
