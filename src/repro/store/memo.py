"""Resumable sweep memos: one payload recipe for both sweeps.

The paper-table suite (:class:`~repro.harness.experiments.ExperimentSuite`)
and the scenario matrix (:func:`~repro.scenarios.engine.run_scenarios`)
checkpoint settled work through :class:`SweepMemo`, as the payload
``{"schema", "config", "entries"}``: ``entries`` maps a
:func:`~repro.store.fingerprint.memo_cell_key` to a settled value, and
``config`` holds exactly the inputs that change those values — never
an engine switch that is bit-identical by contract.  The payload goes
to an explicit JSON file and/or a *persistent* store (keyed by
``config_fingerprint(namespace, config)``); a source is read back only
when its schema and config match the run.  DESIGN.md §15 has the
details.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.atomic_io import atomic_write_text
from repro.store.fingerprint import config_fingerprint
from repro.store.store import ArtifactStore

__all__ = ["MEMO_SCHEMA", "SweepMemo"]

#: Version stamp of the memo payload (file and store artifact alike).
MEMO_SCHEMA = "repro-memo/1"


class SweepMemo:
    """Where one sweep's settled entries persist, and under which config.

    ``config`` is called only when a target exists, so an untargeted
    memo costs one attribute check per checkpoint.
    """

    def __init__(
        self,
        namespace: str,
        config: Callable[[], Mapping[str, Any]],
        path: Optional[Union[str, Path]] = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        self.namespace = namespace
        self.config = config
        self.path = path
        #: a memory-only store is no target: it would only alias the
        #: sweep's own in-process state.
        persistent = store is not None and store.persistent
        self.store = store if persistent else None

    @property
    def enabled(self) -> bool:
        """Whether saving writes anywhere."""
        return bool(self.path) or self.store is not None

    def _stamp(self) -> Dict[str, Any]:
        # Through JSON, so it compares equal to a stamp read back from
        # a file (tuples become lists, keys strings).
        return json.loads(json.dumps(dict(self.config()), sort_keys=True))

    def load(self) -> Dict[str, Any]:
        """Settled entries of every target whose stamp matches: the
        store artifact first, then the file, which wins per entry."""
        if not self.enabled:
            return {}
        config = self._stamp()
        sources = []
        if self.store is not None:
            key = config_fingerprint(self.namespace, config)
            sources.append(self.store.get(self.namespace, key))
        if self.path:
            try:
                with open(self.path, encoding="utf-8") as stream:
                    sources.append(json.load(stream))
            except (OSError, ValueError):
                pass
        entries: Dict[str, Any] = {}
        for payload in sources:
            if (
                isinstance(payload, dict)
                and payload.get("schema") == MEMO_SCHEMA
                and payload.get("config") == config
                and isinstance(payload.get("entries"), dict)
            ):
                entries.update(payload["entries"])
        return entries

    def save(self, entries: Mapping[str, Any]) -> bool:
        """Persist ``entries`` to every target (the file atomically,
        with sorted keys); False, computing nothing, with no target."""
        if not self.enabled:
            return False
        config = self._stamp()
        payload = {
            "schema": MEMO_SCHEMA,
            "config": config,
            "entries": dict(sorted(entries.items())),
        }
        if self.path:
            text = json.dumps(payload, indent=1, sort_keys=True)
            atomic_write_text(self.path, text + "\n")
        if self.store is not None:
            key = config_fingerprint(self.namespace, config)
            self.store.put(self.namespace, key, payload)
        return True
