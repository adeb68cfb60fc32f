"""The two-tier content-addressed artifact store.

:class:`ArtifactStore` fronts an optional on-disk CAS directory with a
per-namespace in-memory LRU.  Keys are the canonical fingerprints of
:mod:`repro.store.fingerprint`; values are arbitrary Python objects
(compiled retiming problems, netlist arenas, memo payloads).  The
namespace map:

===============  ====================================================
namespace        legacy cache it replaced
===============  ====================================================
compiled-grar    ``retime.compile``'s module-level LRU
arena            ``core.arena``'s module-level LRU
suite-memo       the :class:`ExperimentSuite` resume memo
scenario-memo    the scenario engine's resume memo
===============  ====================================================

Disk layout and durability
--------------------------

``root/store.json`` stamps the schema version (a mismatched stamp
raises :class:`StoreError` — stores are not migrated in place);
``root/<namespace>/<key>.art`` holds one artifact:

    b"repro-store/1\\n" + sha256(payload).hex + b"\\n" + payload

where ``payload`` is the pickled ``{schema, namespace, key, value}``
envelope.  Writes go to a unique tmp name (pid + random suffix) in the
same directory and land via ``os.replace`` — concurrent writers of the
same key are safe (last writer wins, readers see a complete old or new
file, never a torn one).  Reads verify the embedded digest and the
envelope fields; anything that fails — truncation, bit rot, a foreign
file — is moved to ``root/quarantine/`` and reported as a miss, so
the caller recomputes instead of crashing.

Every operation is surfaced through :mod:`repro.metrics` as
``store.<namespace>.{hits,misses,mem_hits,disk_hits,evictions,writes,
bytes_written,corrupt}``.

Ambient plumbing
----------------

Call sites (``compile_retiming``, ``compile_arena``) read the ambient
store via :func:`get_store`.  The process default is a memory-only
store — exactly the legacy per-process LRU behavior; the CLI's
``--store DIR`` swaps in a persistent one via
:func:`set_default_store`, and scoped overrides (worker processes,
``run_flow(store=...)``) use the :func:`use_store` context manager,
which is a :class:`contextvars.ContextVar` underneath, mirroring
``repro.metrics``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro import metrics
from repro.atomic_io import atomic_write_bytes, atomic_write_text

__all__ = [
    "ArtifactStore",
    "DEFAULT_CAPACITY",
    "STORE_SCHEMA",
    "StoreError",
    "get_store",
    "open_store",
    "set_default_store",
    "use_store",
]

#: Version stamp of the on-disk layout *and* the artifact envelope.
STORE_SCHEMA = "repro-store/1"

_MAGIC = b"repro-store/1\n"
_ARTIFACT_SUFFIX = ".art"
_QUARANTINE_DIR = "quarantine"
_STAMP_NAME = "store.json"

#: Default per-namespace LRU capacity — the 8 entries the legacy
#: ``retime.compile`` and ``core.arena`` caches kept.
DEFAULT_CAPACITY = 8

_MISS = object()


class StoreError(ValueError):
    """An artifact store directory that cannot be used as one."""


class ArtifactStore:
    """Per-namespace memory LRU over an optional on-disk CAS.

    ``root=None`` is a memory-only store (the process default);
    ``capacity`` is the per-namespace LRU size, overridable per
    namespace via ``capacities`` or :meth:`set_capacity`.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        capacity: int = DEFAULT_CAPACITY,
        capacities: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.capacities: Dict[str, int] = {
            ns: max(1, int(cap)) for ns, cap in (capacities or {}).items()
        }
        self._memory: Dict[str, "OrderedDict[str, Any]"] = {}
        self.root: Optional[Path] = None
        if root is not None:
            self.root = Path(root)
            self.root.mkdir(parents=True, exist_ok=True)
            self._check_stamp()

    # -- schema stamp -------------------------------------------------------

    def _check_stamp(self) -> None:
        stamp = self.root / _STAMP_NAME
        if stamp.exists():
            try:
                data = json.loads(stamp.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise StoreError(
                    f"unreadable store stamp {stamp}: {exc}"
                ) from exc
            if data.get("schema") != STORE_SCHEMA:
                raise StoreError(
                    f"store {self.root} has schema "
                    f"{data.get('schema')!r}, this engine speaks "
                    f"{STORE_SCHEMA!r}; use a fresh directory"
                )
            return
        atomic_write_text(
            stamp, json.dumps({"schema": STORE_SCHEMA}) + "\n"
        )

    @property
    def persistent(self) -> bool:
        """Whether artifacts survive this process (a disk root is set)."""
        return self.root is not None

    # -- capacities ---------------------------------------------------------

    def capacity_of(self, namespace: str) -> int:
        return self.capacities.get(namespace, self.capacity)

    def set_capacity(self, namespace: str, capacity: int) -> None:
        """Resize one namespace's memory LRU (trimming immediately)."""
        self.capacities[namespace] = max(1, int(capacity))
        tier = self._memory.get(namespace)
        if tier is not None:
            self._trim(namespace, tier)

    def _trim(self, namespace: str, tier: "OrderedDict[str, Any]") -> None:
        cap = self.capacity_of(namespace)
        while len(tier) > cap:
            tier.popitem(last=False)
            metrics.count(f"store.{namespace}.evictions")

    # -- core operations ----------------------------------------------------

    def _tier(self, namespace: str) -> "OrderedDict[str, Any]":
        return self._memory.setdefault(namespace, OrderedDict())

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        """Fetch an artifact: memory first, then disk; miss -> default."""
        tier = self._tier(namespace)
        if key in tier:
            tier.move_to_end(key)
            metrics.count(f"store.{namespace}.hits")
            metrics.count(f"store.{namespace}.mem_hits")
            return tier[key]
        if self.root is not None:
            value = self._disk_get(namespace, key)
            if value is not _MISS:
                metrics.count(f"store.{namespace}.hits")
                metrics.count(f"store.{namespace}.disk_hits")
                self._remember(namespace, key, value)
                return value
        metrics.count(f"store.{namespace}.misses")
        return default

    def put(
        self, namespace: str, key: str, value: Any, persist: bool = True
    ) -> Any:
        """Insert an artifact into memory (and, when persistent, disk)."""
        self._remember(namespace, key, value)
        if persist and self.root is not None:
            self._disk_put(namespace, key, value)
        return value

    def get_or_compute(
        self, namespace: str, key: str, compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """``(value, was_hit)`` — computing and storing on a miss."""
        value = self.get(namespace, key, _MISS)
        if value is not _MISS:
            return value, True
        value = compute()
        self.put(namespace, key, value)
        return value, False

    def memory_values(self, namespace: str) -> List[Any]:
        """The memory tier's values, LRU order (oldest first).

        The compiled-retiming sibling warm-basis seeding scans these;
        disk artifacts are excluded on purpose (their baseline basis
        is whatever was current when they were written).
        """
        return list(self._tier(namespace).values())

    def clear_memory(self, namespace: Optional[str] = None) -> None:
        """Drop the memory tier (one namespace, or all); disk stays."""
        if namespace is None:
            self._memory.clear()
        else:
            self._memory.pop(namespace, None)

    def _remember(self, namespace: str, key: str, value: Any) -> None:
        tier = self._tier(namespace)
        tier[key] = value
        tier.move_to_end(key)
        self._trim(namespace, tier)

    # -- disk tier ----------------------------------------------------------

    @staticmethod
    def _check_component(label: str, value: str) -> str:
        if (
            not value
            or value != os.path.basename(value)
            or value.startswith(".")
        ):
            raise StoreError(f"unsafe store {label}: {value!r}")
        return value

    def _artifact_path(self, namespace: str, key: str) -> Path:
        self._check_component("namespace", namespace)
        self._check_component("key", key)
        return self.root / namespace / f"{key}{_ARTIFACT_SUFFIX}"

    def _disk_put(self, namespace: str, key: str, value: Any) -> bool:
        envelope = {
            "schema": STORE_SCHEMA,
            "namespace": namespace,
            "key": key,
            "value": value,
        }
        try:
            payload = pickle.dumps(envelope, protocol=4)
        except Exception:
            # Unpicklable values degrade to memory-only silently —
            # the store must never make a cacheable result an error.
            metrics.count(f"store.{namespace}.unpicklable")
            return False
        blob = (
            _MAGIC
            + hashlib.sha256(payload).hexdigest().encode("ascii")
            + b"\n"
            + payload
        )
        path = self._artifact_path(namespace, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, blob)
        except OSError:
            metrics.count(f"store.{namespace}.write_errors")
            return False
        metrics.count(f"store.{namespace}.writes")
        metrics.count(f"store.{namespace}.bytes_written", len(blob))
        return True

    def _disk_get(self, namespace: str, key: str) -> Any:
        path = self._artifact_path(namespace, key)
        try:
            data = path.read_bytes()
        except OSError:
            return _MISS
        try:
            return self._decode(data, namespace, key)
        except Exception:
            # Truncated write, bit rot, or a foreign file: quarantine
            # it and report a miss — the caller recomputes.
            metrics.count(f"store.{namespace}.corrupt")
            self._quarantine(path, namespace)
            return _MISS

    @staticmethod
    def _decode(data: bytes, namespace: str, key: str) -> Any:
        if not data.startswith(_MAGIC):
            raise StoreError("bad magic")
        digest, sep, payload = data[len(_MAGIC):].partition(b"\n")
        if sep != b"\n" or len(digest) != 64:
            raise StoreError("bad header")
        if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
            raise StoreError("digest mismatch (torn or corrupted write)")
        envelope = pickle.loads(payload)
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != STORE_SCHEMA
            or envelope.get("namespace") != namespace
            or envelope.get("key") != key
        ):
            raise StoreError("envelope mismatch")
        return envelope["value"]

    def _quarantine(self, path: Path, namespace: str) -> None:
        qdir = self.root / _QUARANTINE_DIR
        target = qdir / (
            f"{namespace}-{path.stem}-{os.getpid()}-"
            f"{uuid.uuid4().hex[:6]}.corrupt"
        )
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            pass

    # -- maintenance --------------------------------------------------------

    def _disk_namespaces(self) -> List[str]:
        if self.root is None:
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and entry.name != _QUARANTINE_DIR
        )

    def ls(self, namespace: Optional[str] = None) -> List[Dict[str, Any]]:
        """Disk artifacts as ``{namespace, key, bytes, mtime}`` rows."""
        rows: List[Dict[str, Any]] = []
        for ns in [namespace] if namespace else self._disk_namespaces():
            ns_dir = self.root / ns if self.root is not None else None
            if ns_dir is None or not ns_dir.is_dir():
                continue
            for path in sorted(ns_dir.glob(f"*{_ARTIFACT_SUFFIX}")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                rows.append(
                    {
                        "namespace": ns,
                        "key": path.name[: -len(_ARTIFACT_SUFFIX)],
                        "bytes": stat.st_size,
                        "mtime": stat.st_mtime,
                    }
                )
        return rows

    def stats(self) -> Dict[str, Any]:
        """Machine-readable store summary (the ``cache stats`` body)."""
        disk: Dict[str, Dict[str, Any]] = {}
        total_bytes = 0
        for row in self.ls():
            entry = disk.setdefault(
                row["namespace"], {"artifacts": 0, "bytes": 0}
            )
            entry["artifacts"] += 1
            entry["bytes"] += row["bytes"]
            total_bytes += row["bytes"]
        quarantined = 0
        if self.root is not None:
            qdir = self.root / _QUARANTINE_DIR
            if qdir.is_dir():
                quarantined = sum(1 for _ in qdir.iterdir())
        return {
            "schema": STORE_SCHEMA,
            "root": str(self.root) if self.root is not None else None,
            "memory": {
                ns: {
                    "entries": len(tier),
                    "capacity": self.capacity_of(ns),
                }
                for ns, tier in sorted(self._memory.items())
            },
            "disk": disk,
            "disk_bytes": total_bytes,
            "quarantined": quarantined,
        }

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        clear_quarantine: bool = True,
    ) -> Dict[str, Any]:
        """Bound the disk tier: drop expired artifacts, oldest first.

        ``max_age_s`` removes artifacts older than the cutoff;
        ``max_bytes`` then removes oldest-first until the remainder
        fits.  Stray ``*.tmp`` files older than an hour (writers that
        died mid-write) and quarantined corpses are swept as well.
        Memory tiers are untouched.
        """
        removed = 0
        freed = 0
        if self.root is not None:
            now = time.time()
            rows = sorted(self.ls(), key=lambda r: r["mtime"])
            survivors: List[Dict[str, Any]] = []
            for row in rows:
                if max_age_s is not None and now - row["mtime"] > max_age_s:
                    if self._remove_artifact(row):
                        removed += 1
                        freed += row["bytes"]
                    continue
                survivors.append(row)
            if max_bytes is not None:
                remaining = sum(r["bytes"] for r in survivors)
                for row in list(survivors):
                    if remaining <= max_bytes:
                        break
                    if self._remove_artifact(row):
                        removed += 1
                        freed += row["bytes"]
                        remaining -= row["bytes"]
                        survivors.remove(row)
            for tmp in self.root.rglob("*.tmp"):
                try:
                    if now - tmp.stat().st_mtime > 3600:
                        tmp.unlink()
                except OSError:
                    pass
            if clear_quarantine:
                qdir = self.root / _QUARANTINE_DIR
                if qdir.is_dir():
                    for corpse in qdir.iterdir():
                        try:
                            corpse.unlink()
                        except OSError:
                            pass
        left = self.ls()
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining": len(left),
            "remaining_bytes": sum(r["bytes"] for r in left),
        }

    def _remove_artifact(self, row: Mapping[str, Any]) -> bool:
        path = self._artifact_path(row["namespace"], row["key"])
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def clear(self, namespace: Optional[str] = None) -> Dict[str, Any]:
        """Drop memory *and* disk artifacts (one namespace, or all)."""
        self.clear_memory(namespace)
        removed = 0
        for row in self.ls(namespace):
            if self._remove_artifact(row):
                removed += 1
        return {"removed": removed}


# -- ambient store ----------------------------------------------------------

#: The process-wide default: memory-only, so call sites behave exactly
#: like the legacy per-process LRUs until someone opts into a disk
#: root (``--store DIR`` / ``set_default_store``).
_PROCESS_DEFAULT = ArtifactStore()

_ACTIVE: "ContextVar[Optional[ArtifactStore]]" = ContextVar(
    "repro_store", default=None
)


def get_store() -> ArtifactStore:
    """The ambient store: the innermost :func:`use_store`, else the
    process default."""
    active = _ACTIVE.get()
    return active if active is not None else _PROCESS_DEFAULT


def set_default_store(store: Optional[ArtifactStore]) -> ArtifactStore:
    """Replace the process default (``None`` restores memory-only).

    Returns the previous default so callers can restore it.
    """
    global _PROCESS_DEFAULT
    previous = _PROCESS_DEFAULT
    _PROCESS_DEFAULT = store if store is not None else ArtifactStore()
    return previous


@contextmanager
def use_store(store: ArtifactStore) -> Iterator[ArtifactStore]:
    """Scope the ambient store (workers, ``run_flow(store=...)``)."""
    token = _ACTIVE.set(store)
    try:
        yield store
    finally:
        _ACTIVE.reset(token)


def open_store(
    spec: Union[ArtifactStore, str, Path, None],
    capacity: Optional[int] = None,
    capacities: Optional[Mapping[str, int]] = None,
) -> Optional[ArtifactStore]:
    """Resolve a ``store=`` argument: a store passes through, a path
    opens a persistent store, ``None`` stays ``None``."""
    if spec is None or isinstance(spec, ArtifactStore):
        return spec
    return ArtifactStore(
        root=spec,
        capacity=capacity if capacity is not None else DEFAULT_CAPACITY,
        capacities=capacities,
    )
