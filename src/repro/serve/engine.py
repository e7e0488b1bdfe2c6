"""The serve daemon's request engine: admit, coalesce, execute, recover.

The engine is the transport-free core of ``repro serve`` — the HTTP
layer (:mod:`repro.serve.server`) is a thin adapter over it, which is
what makes the robustness claims testable in-process:

* **Write-ahead journal** — every accepted request is journaled
  (:class:`~repro.serve.journal.RequestJournal`) *before* any work
  starts and resolved only after the result blob is durably in the
  store.  A SIGKILLed daemon replays the journal on restart through
  the identical execution path; clients re-poll by content key.
* **Coalescing** — requests are identified by the content key of
  their task recipe (the same key PR 5's store and PR 7's queue use),
  so N concurrent identical requests share one in-flight execution,
  one journal entry, and one result blob.
* **Admission control** — the in-flight set is bounded
  (``max_inflight``), as are the handler threads parked on it
  (``max_waiters``) and the backlog behind it (``queue_watermark`` on
  open queue tasks).  The journal needs no bound of its own: it holds
  one entry per in-flight key, so ``max_inflight`` bounds it.  Crossing
  any watermark sheds the request with an explicit retry-after instead
  of growing threads without bound.
* **Execution** — a miss submits the task to the shared
  :class:`~repro.distrib.queue.FileWorkQueue` and supervises it with
  the sweep coordinator's own loop
  (:func:`~repro.distrib.coordinator.supervise`), so both follow one
  degrade rule: when the task shows no progress (a done record, or a
  lease changing owner, attempts or heartbeats) for ``serial_grace_s``
  while a worker's presence record is live — or at once when no
  ``repro worker`` has announced itself in the queue — the engine
  turns *sticky-degraded* engine-wide and executes claims in-process
  through the same claim → execute → complete path.  A request always
  completes; workers are an optimization.

Deadlines are a property of the *wait*, not the work: a handler whose
client deadline expires gets the content key back (202-style) while
the resolver keeps running — the work is journaled, the result will
land, and the client re-polls or resubmits idempotently.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..distrib.coordinator import supervise
from ..distrib.queue import FileWorkQueue, worker_identity
from ..results.store import ResultStore, content_key
from ..security import faults
from .journal import RequestJournal

#: Exit code the ``serve-kill-mid-request`` chaos fault dies with —
#: right after the journal write, before any execution or result put.
KILL_MID_REQUEST_EXIT = 45

#: Default Retry-After (seconds) handed to shed clients.
DEFAULT_RETRY_AFTER_S = 1.0


class RequestShed(Exception):
    """The request was refused by admission control (retry later)."""

    def __init__(self, reason: str, retry_after_s: float) -> None:
        self.reason = reason
        self.retry_after_s = retry_after_s
        super().__init__(
            f"request shed ({reason}); retry after {retry_after_s:.1f}s"
        )


class RequestFailed(Exception):
    """The request's task failed terminally (poisoned); carries why."""


@dataclass
class InFlight:
    """One admitted request: shared by every coalesced waiter."""

    key: str
    recipe: Dict[str, Any]
    done: threading.Event = field(default_factory=threading.Event)
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    replayed: bool = False
    accepted_at: float = field(default_factory=time.time)


@dataclass
class ServeStats:
    """Monotonic counters surfaced by ``/status``."""

    received: int = 0            # admission decisions taken
    store_hits: int = 0          # answered straight from the store
    coalesced: int = 0           # joined an existing in-flight request
    accepted: int = 0            # new in-flight executions started
    replayed: int = 0            # journal entries replayed on startup
    shed: int = 0                # refused by admission control
    completed: int = 0           # in-flight requests resolved OK
    failed: int = 0              # in-flight requests resolved in error

    def to_json(self) -> Dict[str, int]:
        """Machine-readable counter snapshot."""
        return {
            "received": self.received,
            "store_hits": self.store_hits,
            "coalesced": self.coalesced,
            "accepted": self.accepted,
            "replayed": self.replayed,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
        }


class RequestEngine:
    """Coalescing, journaled, admission-controlled request executor."""

    def __init__(
        self,
        store: ResultStore,
        queue: FileWorkQueue,
        journal: RequestJournal,
        max_inflight: int = 8,
        max_waiters: int = 64,
        queue_watermark: int = 256,
        serial_grace_s: float = 2.0,
        poll_s: float = 0.05,
        owner: Optional[str] = None,
    ) -> None:
        self.store = store
        self.queue = queue
        self.journal = journal
        self.max_inflight = max_inflight
        self.max_waiters = max_waiters
        self.queue_watermark = queue_watermark
        self.serial_grace_s = serial_grace_s
        self.poll_s = poll_s
        self.owner = owner or f"serve:{worker_identity()}"
        self.stats = ServeStats()
        #: Sticky and engine-wide: set once any request degrades.
        self.degraded = threading.Event()
        self.draining = False
        self._lock = threading.Lock()
        self._inflight: Dict[str, InFlight] = {}
        self._waiters = 0
        self._threads: List[threading.Thread] = []

    # -- admission -------------------------------------------------------

    def submit(
        self, recipe: Mapping[str, Any]
    ) -> Tuple[InFlight, str]:
        """Admit one request; returns ``(entry, disposition)``.

        Disposition is ``"hit"`` (already answerable from the store —
        the entry is pre-resolved), ``"coalesced"`` (joined an
        execution already in flight), or ``"accepted"`` (journaled and
        started).  Raises :class:`RequestShed` when draining or over a
        watermark — never queues unboundedly.
        """
        key = content_key(recipe)
        payload = self.store.get(key)
        if payload is not None:
            with self._lock:
                self.stats.received += 1
                self.stats.store_hits += 1
            entry = InFlight(key=key, recipe=dict(recipe))
            entry.payload = payload
            entry.done.set()
            return entry, "hit"
        with self._lock:
            self.stats.received += 1
            existing = self._inflight.get(key)
            if existing is not None:
                self.stats.coalesced += 1
                return existing, "coalesced"
            reason = self._shed_reason()
            if reason is not None:
                self.stats.shed += 1
                raise RequestShed(reason, DEFAULT_RETRY_AFTER_S)
            # The write-ahead step: once this returns, the request
            # survives any crash — replay picks it up from here.
            self.journal.record(key, recipe)
            if faults.fault_active("serve-kill-mid-request"):
                os._exit(KILL_MID_REQUEST_EXIT)
            entry = InFlight(key=key, recipe=dict(recipe))
            self._inflight[key] = entry
            self.stats.accepted += 1
            self._start_resolver(entry)
            return entry, "accepted"

    def _shed_reason(self) -> Optional[str]:
        """Why a new request must be refused right now (None = admit).

        Called under the lock.  Draining sheds everything; otherwise
        each watermark is checked so the reason names the saturated
        resource.
        """
        if self.draining:
            return "draining"
        if len(self._inflight) >= self.max_inflight:
            return f"in-flight limit ({self.max_inflight}) reached"
        status = self.queue.status()
        if status.open_tasks >= self.queue_watermark:
            return f"queue depth over watermark ({self.queue_watermark})"
        return None

    def wait(
        self, entry: InFlight, timeout_s: Optional[float]
    ) -> Optional[Dict[str, Any]]:
        """Wait for an admitted request's payload; None on deadline.

        A None return is *not* failure: the execution continues and the
        caller answers 202-style with the key for re-polling.  Raises
        :class:`RequestFailed` when the task resolved in error, and
        :class:`RequestShed` when the waiter cap is hit (a parked
        handler thread is a resource too).
        """
        if entry.done.is_set():
            return self._unwrap(entry)
        with self._lock:
            if self._waiters >= self.max_waiters:
                self.stats.shed += 1
                raise RequestShed(
                    f"waiter limit ({self.max_waiters}) reached",
                    DEFAULT_RETRY_AFTER_S,
                )
            self._waiters += 1
        try:
            finished = entry.done.wait(timeout_s)
        finally:
            with self._lock:
                self._waiters -= 1
        if not finished:
            return None
        return self._unwrap(entry)

    @staticmethod
    def _unwrap(entry: InFlight) -> Dict[str, Any]:
        if entry.error is not None:
            raise RequestFailed(entry.error)
        assert entry.payload is not None
        return entry.payload

    # -- introspection ---------------------------------------------------

    def lookup(
        self, key: str
    ) -> Tuple[str, Optional[Dict[str, Any]]]:
        """Poll a request by content key: ``(state, payload)``.

        States: ``"done"`` (payload attached), ``"pending"`` (in
        flight or journaled — the answer will land), ``"failed"``
        (poisoned task; the poison record rides as the payload), or
        ``"unknown"``.
        """
        payload = self.store.get(key)
        if payload is not None:
            return "done", payload
        with self._lock:
            if key in self._inflight:
                return "pending", None
        poison = self.queue.poison_record(key)
        if poison is not None:
            return "failed", poison
        if self.journal.entry(key) is not None:
            return "pending", None
        return "unknown", None

    def status(self) -> Dict[str, Any]:
        """The ``/status`` document: every robustness dial at once."""
        with self._lock:
            inflight = sorted(self._inflight)
            waiters = self._waiters
        return {
            "owner": self.owner,
            "draining": self.draining,
            "degraded": self.degraded.is_set(),
            "inflight": inflight,
            "waiters": waiters,
            "stats": self.stats.to_json(),
            "admission": {
                "max_inflight": self.max_inflight,
                "max_waiters": self.max_waiters,
                "queue_watermark": self.queue_watermark,
            },
            "journal_depth": self.journal.depth(),
            "queue": self.queue.status().to_json(),
            "store": self.store.stats(),
        }

    # -- recovery --------------------------------------------------------

    def replay_journal(self) -> int:
        """Re-execute every journaled request (call before serving).

        Entries whose result blob already landed (a crash between the
        put and the journal resolve) are resolved without re-running.
        Replayed entries bypass admission — they were accepted before
        the crash — but occupy the in-flight set, so fresh traffic
        sees them.  Returns how many entries went back in flight.
        """
        self.journal.discard_corrupt()
        replayed = 0
        for journal_entry in self.journal.entries():
            payload = self.store.get(journal_entry.key)
            if payload is not None:
                self.journal.resolve(journal_entry.key)
                continue
            with self._lock:
                if journal_entry.key in self._inflight:
                    continue
                entry = InFlight(
                    key=journal_entry.key,
                    recipe=journal_entry.recipe,
                    replayed=True,
                )
                self._inflight[journal_entry.key] = entry
                self.stats.replayed += 1
                self._start_resolver(entry)
            replayed += 1
        return replayed

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admitting; wait for in-flight work.  True when empty.

        New submissions shed immediately.  Every in-flight request
        either resolves within the timeout or stays journaled — an
        accepted request is never silently dropped, so a False return
        still leaves nothing unrecoverable behind.
        """
        with self._lock:
            self.draining = True
            entries = list(self._inflight.values())
        deadline = (
            None if timeout_s is None
            else time.monotonic() + timeout_s
        )
        for entry in entries:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            entry.done.wait(remaining)
        with self._lock:
            return not self._inflight

    # -- execution -------------------------------------------------------

    def _start_resolver(self, entry: InFlight) -> None:
        thread = threading.Thread(
            target=self._resolve, args=(entry,), daemon=True,
            name=f"resolve-{entry.key}",
        )
        self._threads.append(thread)
        thread.start()

    def _resolve(self, entry: InFlight) -> None:
        """Drive one request to a terminal state (resolver thread).

        The task goes through the sweep coordinator's own supervision
        loop, with this engine's sticky ``degraded`` flag: once one
        request degrades, every later one executes in-process at once.
        """
        try:
            task = self.queue.submit(entry.recipe)
            payloads, _reclaimed = supervise(
                self.queue, self.store, [task], self.owner, self.degraded,
                self.serial_grace_s, poll_s=self.poll_s,
            )
            entry.payload = payloads[0]
            # The result blob is durable; only now may the journal
            # entry die — the crash-recovery invariant.
            self.journal.resolve(entry.key)
            with self._lock:
                self.stats.completed += 1
        except Exception:
            entry.error = traceback.format_exc()
            # Terminal failure: the poison record (surfaced via
            # lookup()) outlives the journal entry, which would
            # otherwise replay a poisoned task forever.
            self.journal.resolve(entry.key)
            with self._lock:
                self.stats.failed += 1
        finally:
            with self._lock:
                self._inflight.pop(entry.key, None)
            entry.done.set()
