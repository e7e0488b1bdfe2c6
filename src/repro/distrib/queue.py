"""Filesystem-backed work queue with lease-based claims.

The queue is a directory five subdirectories deep, sharing nothing but
POSIX rename semantics — which is exactly what makes it usable by
worker processes on any host that can see the filesystem:

``tasks/<id>.json``
    The immutable task body: the content-addressed recipe of one sweep
    point.  ``<id>`` *is* the recipe's content key, so a task and the
    result blob it will produce share an address.  Written once at
    submission; never moved, never rewritten — every other file is
    disposable state *about* the task, so a corrupted claim can always
    be recovered from the body.

``pending/<id>.json``
    A claimable marker carrying retry state (``attempts``, the
    backoff's ``not_before``).  Claiming is one atomic
    ``rename(pending/<id>, claimed/<id>)`` — the filesystem guarantees
    exactly one winner; losers get ``FileNotFoundError`` and move on.

``claimed/<id>.json``
    The claim marker, rewritten (atomically) by the winner to carry its
    lease: owner, claim time, and a deadline the owner pushes forward
    by heartbeating.  An expired or unreadable lease is *reclaimed*:
    renamed back to ``pending/`` (again one atomic winner) with
    ``attempts`` bumped and an exponential-backoff ``not_before``.

``done/<id>.json``
    Terminal success: the result blob's content key.  Written before
    the claim is released, so a crash between the two reads as done.
    Because retried and speculated executions of one task produce the
    same deterministic payload under the same content key, a second
    finisher simply observes ``done`` already present and discards.

``poison/<id>.json``
    Terminal failure: a task that failed (or had its lease expire)
    ``max_attempts`` times is quarantined here with its traceback
    instead of looping forever.

Every state transition is a single ``os.rename`` (one winner).  The
transitions back to ``pending`` (fail, reclaim, speculate) write the
retry state into the claim file *before* the rename, so the rename is
the only visible step — a pending file never briefly holds stale lease
JSON, and nothing is rewritten after the rename (which could resurrect
a file a faster claimant already moved).  The one exception is
claiming itself: the winner can only write its lease *after* the
rename, so a claim file may briefly hold non-lease JSON — readers
treat that like a torn write, judged by the mtime corrupt-grace.
Every read path treats a missing, partial, or corrupt file as
recoverable state, never as an exception.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from ..results.store import content_key

QUEUE_VERSION = 1

#: Subdirectories; creation order is irrelevant (all made eagerly).
_STATE_DIRS = ("tasks", "pending", "claimed", "done", "poison")

#: Grace period before an *unreadable* claim file (torn write, chaos
#: corruption) counts as expired — judged by file mtime, since the
#: lease deadline inside it is unreadable by definition.
DEFAULT_CORRUPT_GRACE_S = 2.0

_TMP_COUNTER = itertools.count()


def worker_identity() -> str:
    """This process's lease-owner string (``host:pid``)."""
    return f"{socket.gethostname()}:{os.getpid()}"


def atomic_write_json(path: Path, payload: Mapping[str, Any]) -> None:
    """Temp-write + rename, per-process-unique temp names (store idiom).

    The queue's state files and the serve journal's entries go through
    this helper, not :func:`repro.results.store.atomic_write_text`:
    that one carries the ``_CRASH_AFTER_TMP_WRITE`` test hook, and under
    the ``worker-kill-mid-put`` fault the hook would then fire in the
    heartbeat thread's claim writes instead of the result blob's put.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
    )
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Parse a state file; None for missing/corrupt (always tolerant)."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


@dataclass(frozen=True)
class Task:
    """One unit of work: an immutable content-addressed recipe."""

    task_id: str
    recipe: Dict[str, Any]


@dataclass(frozen=True)
class ClaimedTask:
    """A task one worker holds the lease on."""

    task: Task
    owner: str
    attempts: int
    deadline: float

    @property
    def task_id(self) -> str:
        """The task's content key (convenience passthrough)."""
        return self.task.task_id


@dataclass
class QueueStatus:
    """A point-in-time census of the queue for ``repro queue status``."""

    pending: int
    claimed: int
    done: int
    poisoned: int
    total_tasks: int
    leases: List[Dict[str, Any]] = field(default_factory=list)
    poison: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def open_tasks(self) -> int:
        """Tasks not yet terminally done or poisoned."""
        return self.total_tasks - self.done - self.poisoned

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable census for ``--json`` and ``/status``."""
        return {
            "pending": self.pending,
            "claimed": self.claimed,
            "done": self.done,
            "poisoned": self.poisoned,
            "total_tasks": self.total_tasks,
            "open_tasks": self.open_tasks,
            "leases": [dict(lease) for lease in self.leases],
            "poison": [dict(entry) for entry in self.poison],
        }

    def summary_lines(self) -> List[str]:
        """Human-readable census for the CLI."""
        lines = [
            f"{self.total_tasks} task(s): {self.pending} pending, "
            f"{self.claimed} claimed, {self.done} done, "
            f"{self.poisoned} poisoned"
        ]
        now = time.time()
        for lease in self.leases:
            remaining = lease.get("deadline", 0) - now
            lines.append(
                f"  claimed {lease['task_id']} by "
                f"{lease.get('owner', '?')} "
                f"(lease {'expires in %.1fs' % remaining if remaining > 0 else 'EXPIRED %.1fs ago' % -remaining}, "
                f"attempt {lease.get('attempts', '?')})"
            )
        for entry in self.poison:
            first_line = (entry.get("error") or "?").strip().splitlines()
            lines.append(
                f"  poisoned {entry['task_id']} after "
                f"{entry.get('attempts', '?')} attempt(s): "
                f"{first_line[-1] if first_line else '?'}"
            )
        return lines


class FileWorkQueue:
    """Lease-based task queue on a shared directory.

    ``lease_s`` is how long a claim stays valid without a heartbeat;
    workers refresh at a fraction of it.  ``max_attempts`` bounds
    retries (failure *or* lease expiry) before a task is poisoned.
    Backoff between retries is exponential:
    ``backoff_base_s * 2**(attempts-1)``, capped at ``backoff_max_s``.
    """

    def __init__(
        self,
        root: Path,
        lease_s: float = 30.0,
        max_attempts: int = 4,
        backoff_base_s: float = 0.25,
        backoff_max_s: float = 30.0,
        corrupt_grace_s: float = DEFAULT_CORRUPT_GRACE_S,
    ) -> None:
        self.root = Path(root)
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.corrupt_grace_s = corrupt_grace_s
        for name in _STATE_DIRS:
            (self.root / name).mkdir(parents=True, exist_ok=True)

    # -- paths -----------------------------------------------------------

    def _path(self, state: str, task_id: str) -> Path:
        return self.root / state / f"{task_id}.json"

    def _ids(self, state: str) -> List[str]:
        """Task ids present in one state dir, sorted for determinism."""
        directory = self.root / state
        return sorted(
            path.stem for path in directory.glob("*.json")
        )

    # -- submission ------------------------------------------------------

    def submit(self, recipe: Mapping[str, Any]) -> Task:
        """Enqueue one recipe; idempotent on re-submission.

        The task id is the recipe's content key, so submitting the
        same recipe twice (a coordinator restarted after a crash)
        finds the existing task in whatever state it reached and does
        not duplicate it.
        """
        task_id = content_key(recipe)
        task = Task(task_id=task_id, recipe=dict(recipe))
        body_path = self._path("tasks", task_id)
        if not body_path.is_file():
            atomic_write_json(body_path, {
                "version": QUEUE_VERSION,
                "task_id": task_id,
                "recipe": task.recipe,
                "submitted_at": time.time(),
            })
        in_flight = any(
            self._path(state, task_id).is_file()
            for state in ("pending", "claimed", "done", "poison")
        )
        if not in_flight:
            atomic_write_json(self._path("pending", task_id), {
                "attempts": 0,
                "not_before": 0.0,
            })
        return task

    def task(self, task_id: str) -> Optional[Task]:
        """The immutable task body (None if unknown or unreadable)."""
        body = _read_json(self._path("tasks", task_id))
        if body is None or not isinstance(body.get("recipe"), dict):
            return None
        return Task(task_id=task_id, recipe=body["recipe"])

    # -- claiming --------------------------------------------------------

    def claim(
        self,
        owner: str,
        now: Optional[float] = None,
        want: Optional[set] = None,
    ) -> Optional[ClaimedTask]:
        """Claim the first eligible pending task for ``owner``.

        The claim itself is ``rename(pending/<id>, claimed/<id>)`` —
        atomic, exactly one winner under any number of concurrent
        claimants — after which the winner rewrites the claim file
        with its lease.  Until that rewrite lands the claim file still
        holds the pending-state JSON (no ``owner``/``deadline``);
        :meth:`reclaim_expired` treats that like a torn write and
        leaves it alone inside the corrupt-grace window, so a claim is
        never reclaimed out from under its winner mid-handshake — and
        a claimant that truly dies in the window is recovered once the
        grace expires.  Tasks still inside their retry backoff are
        skipped,
        as is anything outside ``want`` (a coordinator draining only
        its own sweep on a shared queue).
        """
        if now is None:
            now = time.time()
        for task_id in self._ids("pending"):
            if want is not None and task_id not in want:
                continue
            pending_path = self._path("pending", task_id)
            state = _read_json(pending_path) or {"attempts": 1}
            if state.get("not_before", 0.0) > now:
                continue
            if self._path("done", task_id).is_file():
                # Stale marker for a task someone already finished
                # (e.g. a speculated copy): retire it instead of
                # running the work a third time.
                try:
                    pending_path.unlink()
                except OSError:
                    pass
                continue
            claimed_path = self._path("claimed", task_id)
            try:
                os.rename(pending_path, claimed_path)
            except OSError:
                continue  # somebody else won the rename
            task = self.task(task_id)
            if task is None:
                # Body lost or corrupt: nothing can ever execute this.
                self._quarantine(
                    task_id,
                    attempts=int(state.get("attempts", 0)),
                    error="task body missing or unreadable",
                    owner=owner,
                    from_state="claimed",
                )
                continue
            attempts = int(state.get("attempts", 0)) + 1
            deadline = now + self.lease_s
            atomic_write_json(claimed_path, {
                "owner": owner,
                "attempts": attempts,
                "claimed_at": now,
                "deadline": deadline,
                "heartbeats": 0,
            })
            return ClaimedTask(
                task=task, owner=owner, attempts=attempts,
                deadline=deadline,
            )
        return None

    def heartbeat(
        self, task_id: str, owner: str, now: Optional[float] = None
    ) -> bool:
        """Push the lease deadline forward; False if the claim is lost.

        A False return means the lease was reclaimed (or the file
        corrupted) under the worker.  The worker may still finish the
        task — its result deduplicates — but it no longer holds any
        exclusivity.
        """
        if now is None:
            now = time.time()
        path = self._path("claimed", task_id)
        lease = _read_json(path)
        if lease is None or lease.get("owner") != owner:
            return False
        lease["deadline"] = now + self.lease_s
        lease["heartbeats"] = int(lease.get("heartbeats", 0)) + 1
        atomic_write_json(path, lease)
        return True

    # -- terminal transitions --------------------------------------------

    def complete(
        self, task_id: str, owner: str, result_key: str
    ) -> bool:
        """Record success; returns False when already done (dedup).

        ``done`` is written *before* the claim is released so a crash
        between the two steps still reads as done.  If another
        execution (a speculated copy, a resumed retry) finished first,
        the existing record wins and this call is a no-op — the result
        blob is byte-identical either way.
        """
        done_path = self._path("done", task_id)
        first = not done_path.is_file()
        if first:
            atomic_write_json(done_path, {
                "task_id": task_id,
                "result_key": result_key,
                "owner": owner,
                "completed_at": time.time(),
            })
        self._release_claim(task_id, owner)
        return first

    def fail(
        self,
        task_id: str,
        owner: str,
        error: str,
        now: Optional[float] = None,
    ) -> str:
        """Record a failed execution; returns the task's new state.

        Under ``max_attempts`` the task goes back to ``pending`` with
        exponential backoff; at the limit it is quarantined in
        ``poison`` with the traceback.  Returns ``"pending"``,
        ``"poison"``, or ``"lost"`` when this owner no longer held the
        claim (the reclaimer already decided the task's fate).
        """
        if now is None:
            now = time.time()
        claimed_path = self._path("claimed", task_id)
        lease = _read_json(claimed_path)
        if lease is None or lease.get("owner") != owner:
            return "lost"
        attempts = int(lease.get("attempts", 1))
        if attempts >= self.max_attempts:
            self._quarantine(
                task_id, attempts=attempts, error=error, owner=owner,
                from_state="claimed",
            )
            return "poison"
        # Retry state goes into the claim file *before* the rename, so
        # the rename is the single visible transition: the pending file
        # never holds the old lease JSON (which a concurrent claimant
        # would read as zero backoff).
        atomic_write_json(claimed_path, {
            "attempts": attempts,
            "not_before": now + self._backoff(attempts),
            "last_error": error,
        })
        try:
            os.rename(claimed_path, self._path("pending", task_id))
        except OSError:
            return "lost"
        return "pending"

    def release(
        self, task_id: str, owner: str, now: Optional[float] = None
    ) -> bool:
        """Hand a live claim back to ``pending`` with no penalty.

        The graceful-shutdown transition: a worker that received
        SIGTERM mid-task finishes its current checkpoint stride and
        *releases* — unlike :meth:`fail` or an expiry reclaim, the
        attempt that was underway is uncounted (claiming bumped
        ``attempts``; releasing decrements it back) and there is no
        backoff, so the next worker picks the task up immediately and
        resumes from the released worker's checkpoint.  Returns False
        when this owner no longer holds the claim.
        """
        if now is None:
            now = time.time()
        claimed_path = self._path("claimed", task_id)
        lease = _read_json(claimed_path)
        if lease is None or lease.get("owner") != owner:
            return False
        # Same single-visible-transition discipline as fail(): the
        # pending state lands in the claim file before the rename.
        atomic_write_json(claimed_path, {
            "attempts": max(0, int(lease.get("attempts", 1)) - 1),
            "not_before": now,
            "released_by": owner,
        })
        try:
            os.rename(claimed_path, self._path("pending", task_id))
        except OSError:
            return False
        return True

    def _quarantine(
        self,
        task_id: str,
        attempts: int,
        error: str,
        owner: str,
        from_state: str,
    ) -> None:
        """Move a task to the poison list (atomic rename + rewrite)."""
        poison_path = self._path("poison", task_id)
        try:
            os.rename(self._path(from_state, task_id), poison_path)
        except OSError:
            return  # lost the race; someone else decided
        atomic_write_json(poison_path, {
            "task_id": task_id,
            "attempts": attempts,
            "error": error,
            "owner": owner,
            "poisoned_at": time.time(),
        })

    def _release_claim(self, task_id: str, owner: str) -> None:
        """Drop this owner's claim file, never someone else's."""
        path = self._path("claimed", task_id)
        lease = _read_json(path)
        if lease is not None and lease.get("owner") != owner:
            return  # the claim was stolen; it belongs to the new owner
        try:
            path.unlink()
        except OSError:
            pass

    # -- supervision -----------------------------------------------------

    def _backoff(self, attempts: int) -> float:
        """Exponential retry delay for a task on its ``attempts``-th try."""
        return min(
            self.backoff_base_s * (2 ** max(0, attempts - 1)),
            self.backoff_max_s,
        )

    def reclaim_expired(self, now: Optional[float] = None) -> List[str]:
        """Return expired/corrupt claims to ``pending`` (or poison).

        A claim is expired when its lease deadline has passed.  A claim
        file that holds no lease — unreadable (torn write, corruption)
        *or* readable but lacking ``owner``/``deadline`` (a claim or
        retry transition caught between its rewrite and its rename) —
        is judged by mtime instead: left alone inside
        ``corrupt_grace_s`` (the transition is probably in flight) and
        reclaimed past it (the transitioning process died).  The
        reclaim rename has exactly one winner, so concurrent
        supervisors never double-bump ``attempts``.  Claims whose task
        already has a ``done`` record are simply released.
        """
        if now is None:
            now = time.time()
        reclaimed: List[str] = []
        for task_id in self._ids("claimed"):
            claimed_path = self._path("claimed", task_id)
            if self._path("done", task_id).is_file():
                try:
                    claimed_path.unlink()
                except OSError:
                    pass
                continue
            lease = _read_json(claimed_path)
            if lease is None or "owner" not in lease or "deadline" not in lease:
                try:
                    age = now - claimed_path.stat().st_mtime
                except OSError:
                    continue
                if age < self.corrupt_grace_s:
                    continue  # a transition might be mid-flight
                if lease is None:
                    attempts = 1  # unknowable; assume first try
                    error = "claim file unreadable (corrupt)"
                else:
                    # Pending-style JSON: the claimant (attempt
                    # ``attempts + 1``) died before writing its lease.
                    attempts = int(lease.get("attempts", 0)) + 1
                    error = "claim interrupted before its lease was written"
            else:
                if lease.get("deadline", 0.0) > now:
                    continue
                attempts = int(lease.get("attempts", 1))
                error = "lease expired (worker died or stalled)"
            if attempts >= self.max_attempts:
                self._quarantine(
                    task_id, attempts=attempts, error=error,
                    owner="reclaimer", from_state="claimed",
                )
                reclaimed.append(task_id)
                continue
            pending_path = self._path("pending", task_id)
            # Retry state goes into the claim file *before* the rename
            # (the same single-visible-transition discipline as fail()).
            atomic_write_json(claimed_path, {
                "attempts": attempts,
                "not_before": now + self._backoff(attempts),
                "last_error": error,
            })
            try:
                os.rename(claimed_path, pending_path)
            except OSError:
                continue  # another supervisor won
            reclaimed.append(task_id)
        return reclaimed

    def speculate(
        self, task_id: str, now: Optional[float] = None
    ) -> bool:
        """Re-dispatch a straggler whose lease is still live.

        Unlike :meth:`reclaim_expired` this does not count as a
        failure: ``attempts`` is preserved and the task is immediately
        claimable.  The original execution keeps running; whichever
        finishes first writes ``done``, and the loser's identical
        result deduplicates in the store.
        """
        if now is None:
            now = time.time()
        claimed_path = self._path("claimed", task_id)
        lease = _read_json(claimed_path)
        if lease is None or self._path("done", task_id).is_file():
            return False
        pending_path = self._path("pending", task_id)
        # Re-dispatch state goes into the claim file *before* the
        # rename (the same single-visible-transition discipline as
        # fail()): the pending file is born claimable at the preserved
        # attempt count, never briefly holding the stale lease.
        atomic_write_json(claimed_path, {
            "attempts": max(0, int(lease.get("attempts", 1)) - 1),
            "not_before": now,
            "speculative": True,
        })
        try:
            os.rename(claimed_path, pending_path)
        except OSError:
            return False
        return True

    # -- introspection ---------------------------------------------------

    def done_record(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The ``done`` record for a task (None if not finished)."""
        return _read_json(self._path("done", task_id))

    def poison_record(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The poison record for a task (None if not quarantined)."""
        return _read_json(self._path("poison", task_id))

    def lease(self, task_id: str) -> Optional[Dict[str, Any]]:
        """A task's claim file (None if unclaimed or unreadable).

        Mid-claim it may briefly hold pending-state JSON with no
        ``owner``/``deadline`` (see :meth:`claim`).
        """
        return _read_json(self._path("claimed", task_id))

    def status(self) -> QueueStatus:
        """Census all five state dirs (see :class:`QueueStatus`)."""
        leases = []
        for task_id in self._ids("claimed"):
            lease = _read_json(self._path("claimed", task_id)) or {}
            lease["task_id"] = task_id
            leases.append(lease)
        poison = []
        for task_id in self._ids("poison"):
            entry = _read_json(self._path("poison", task_id)) or {}
            entry["task_id"] = task_id
            poison.append(entry)
        return QueueStatus(
            pending=len(self._ids("pending")),
            claimed=len(leases),
            done=len(self._ids("done")),
            poisoned=len(poison),
            total_tasks=len(self._ids("tasks")),
            leases=leases,
            poison=poison,
        )

    def drain(self) -> Dict[str, int]:
        """Cancel all unfinished work; returns removal counts.

        Removes ``pending`` and ``claimed`` markers so no worker can
        pick anything else up (in-flight simulations finish but their
        ``complete`` finds the claim gone, which is tolerated).
        Terminal state — ``done``, ``poison``, and the immutable task
        bodies — is kept for inspection.
        """
        removed = {"pending": 0, "claimed": 0}
        for state in removed:
            for task_id in self._ids(state):
                try:
                    self._path(state, task_id).unlink()
                    removed[state] += 1
                except OSError:
                    pass
        return removed
