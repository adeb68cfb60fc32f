"""Atomic file writes: a unique sibling tmp file, then ``os.replace``.

A dependency-free leaf — it imports nothing from ``repro`` — so every
writer shares it: :mod:`repro.metrics` (bench artifacts),
:mod:`repro.store` (disk artifacts, the store stamp) and the sweep
memos.  A fixed ``{path}.tmp`` name races when two processes write the
same target; the names here are unique per (pid, call).
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_bytes", "atomic_write_text", "unique_tmp_name"]


def unique_tmp_name(path: Union[str, Path]) -> str:
    """A collision-free sibling tmp name for an atomic replace.

    Unique per (pid, call): two suites checkpointing the same memo
    path — or two store writers landing the same artifact — never
    write through the same tmp file, so neither can observe (or
    ``os.replace``) the other's half-written bytes.
    """
    return f"{path}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (unique tmp + replace)."""
    tmp = unique_tmp_name(path)
    try:
        with open(tmp, "wb") as stream:
            stream.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Text form of :func:`atomic_write_bytes` (UTF-8)."""
    atomic_write_bytes(path, text.encode("utf-8"))
