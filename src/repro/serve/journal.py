"""Write-ahead request journal: the serve daemon's crash-safety spine.

Every request the daemon *accepts* is journaled before any work
happens, with the same atomic-rename discipline the queue uses for
state transitions: one ``journal/<key>.json`` file per accepted
request, where ``<key>`` is the request recipe's content key (which is
also the task id and the result blob's address).  The entry is removed
only after the result blob is durably in the store — so at every
instant, an accepted request is either answerable from the store or
present in the journal:

* **Crash before the journal write** — the request was never accepted;
  the client saw no response and resubmits (idempotent: content keys).
* **Crash between journal write and result put** — the entry survives;
  the restarted daemon replays it through the normal execution path
  and clients re-poll ``/result/<key>``.
* **Crash between result put and the journal resolve** — replay finds
  the blob already in the store and resolves the entry without
  re-executing.

A torn entry (the daemon died *inside* the journal write) is
unreadable by construction only as a ``*.tmp`` sibling — the rename
is atomic — but a corrupt entry from outside interference reads as
unreplayable and is discarded: the request it described was never
answered, and the client's retry resubmits it under the same key.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from ..distrib.queue import atomic_write_json

JOURNAL_VERSION = 1


@dataclass(frozen=True)
class JournalEntry:
    """One accepted-but-unanswered request: its key and full recipe."""

    key: str
    recipe: Dict[str, Any]
    journaled_at: float


class RequestJournal:
    """Directory of atomic-rename request entries keyed by content key."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def record(self, key: str, recipe: Mapping[str, Any]) -> bool:
        """Journal an accepted request; False if already journaled.

        Idempotent by key: a coalesced duplicate or a replayed
        resubmission finds the existing entry and writes nothing — one
        accepted request is one journal entry, ever.
        """
        path = self._path(key)
        if path.is_file():
            return False
        atomic_write_json(path, {
            "version": JOURNAL_VERSION,
            "key": key,
            "recipe": dict(recipe),
            "journaled_at": time.time(),
        })
        return True

    def resolve(self, key: str) -> bool:
        """Retire an entry once its result is durably in the store."""
        try:
            self._path(key).unlink()
        except OSError:
            return False
        return True

    def entry(self, key: str) -> Optional[JournalEntry]:
        """The entry for ``key`` (None if absent or unreadable)."""
        data = self._read(self._path(key))
        if data is None:
            return None
        return JournalEntry(
            key=key,
            recipe=data["recipe"],
            journaled_at=float(data.get("journaled_at", 0.0)),
        )

    def entries(self) -> List[JournalEntry]:
        """Every replayable entry, sorted by key for determinism."""
        out: List[JournalEntry] = []
        for path in sorted(self.root.glob("*.json")):
            data = self._read(path)
            if data is None:
                continue
            out.append(JournalEntry(
                key=path.stem,
                recipe=data["recipe"],
                journaled_at=float(data.get("journaled_at", 0.0)),
            ))
        return out

    def discard_corrupt(self) -> List[str]:
        """Drop unreplayable entries (corrupt JSON, missing recipe).

        A corrupt entry describes a request that was never answered —
        the client's deadline/retry loop resubmits it under the same
        content key, so discarding loses nothing durable.  Returns the
        dropped keys.
        """
        dropped: List[str] = []
        for path in sorted(self.root.glob("*.json")):
            if self._read(path) is not None:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            dropped.append(path.stem)
        return dropped

    def depth(self) -> int:
        """How many accepted requests are journaled right now."""
        return sum(1 for _ in self.root.glob("*.json"))

    @staticmethod
    def _read(path: Path) -> Optional[Dict[str, Any]]:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("version") != JOURNAL_VERSION
            or not isinstance(data.get("recipe"), dict)
        ):
            return None
        return data
