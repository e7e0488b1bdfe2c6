"""Sweep coordinator: shard, submit, supervise, collect.

The coordinator is deliberately *not* in the data path: workers talk
to the queue and the store directly, so the coordinator can crash and
restart at any point — resubmitting the same sweep finds every task
(and every finished result blob) exactly where it left off, because
task ids are content keys.

Supervision is one polling loop, :func:`supervise`, shared with the
serve daemon (:class:`~repro.serve.engine.RequestEngine` calls it with
one task per request):

* **Reclaim** — expired or corrupt leases go back to ``pending`` with
  backoff (``FileWorkQueue.reclaim_expired``).  Lease expiry is the
  one straggler rule: a claim that stalls past its lease is retried,
  and if the original execution finishes after all, its byte-identical
  result deduplicates.
* **Degraded serial mode** — when none of the supervised tasks shows
  progress (a new done record, or a lease changing owner, attempts or
  heartbeats) for the grace, the supervisor stops waiting and
  executes the tasks itself, in-process, through the *same*
  claim → execute → complete path.  The grace is ``serial_grace_s``
  while some ``repro worker`` has a live presence record in the queue
  and 0 when none does: with no worker to wait for, the first poll
  degrades.  Degraded mode is sticky (per sweep here, engine-wide in
  the serve daemon): a task that fails into retry backoff is retried
  by the supervisor itself until it succeeds or poisons, and a worker
  that joins late simply claims alongside it.  A sweep therefore
  always completes, even when its only worker died holding a claim;
  distribution is an optimization, not a dependency.
* **Poison** — a task that keeps failing is quarantined by the queue;
  the supervisor surfaces it as :class:`DistributedSweepError` with
  the stored tracebacks rather than spinning forever.

Results are collected in submission order, read back from the store by
content key; a done task whose blob went missing is recomputed
in-process (:func:`~repro.distrib.worker.execute_recipes`).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..results.store import ResultStore, content_key
from ..sim.stats import SimResult
from .queue import FileWorkQueue, Task
from .worker import execute_claimed_task, execute_recipes, sweep_task_recipe


class DistributedSweepError(RuntimeError):
    """A distributed sweep cannot complete (poisoned tasks, timeout).

    Carries the queue's poison records so the operator sees the actual
    worker tracebacks, not just "it failed".
    """

    def __init__(
        self, message: str, poison: Optional[List[Dict[str, Any]]] = None
    ) -> None:
        self.poison = list(poison or [])
        details = ""
        if self.poison:
            details = "".join(
                f"\n  task {entry.get('task_id', '?')} "
                f"({entry.get('attempts', '?')} attempts): "
                f"{(entry.get('error') or '?').strip().splitlines()[-1]}"
                for entry in self.poison
            )
        super().__init__(message + details)


def shard_points(
    specs: Iterable[Any], n_requests: int, seed: int
) -> List[Dict[str, Any]]:
    """Expand sweep points into one task recipe per point.

    ``specs`` are :class:`~repro.scenarios.spec.ScenarioSpec` objects
    (anything with a ``recipe()`` method) or already-explicit scenario
    recipe dicts — the forms a list of presets (``repro sweep``) or a
    hand-built batch naturally produces.  The task granularity *is*
    the sweep point: one simulation per task keeps leases short and
    retries cheap, and the store deduplicates across sweeps anyway.
    """
    recipes = []
    for spec in specs:
        scenario = spec.recipe() if hasattr(spec, "recipe") else dict(spec)
        recipes.append(sweep_task_recipe(scenario, n_requests, seed))
    return recipes


@dataclass
class SweepOutcome:
    """A completed sweep: results in submission order, plus how it went."""

    task_ids: List[str]
    results: List[SimResult]
    degraded: bool = False            # coordinator ran tasks in-process
    reclaimed: int = 0                # expired-lease reclaims observed
    duration_s: float = 0.0
    mode: str = "distributed"         # "serial" | "distributed" | degraded

    def summary_lines(self) -> List[str]:
        """Human-readable wrap-up for the CLI."""
        lines = [
            f"{len(self.results)} task(s) completed ({self.mode} mode) "
            f"in {self.duration_s:.2f}s"
        ]
        if self.reclaimed:
            lines.append(f"  {self.reclaimed} expired lease(s) reclaimed")
        return lines


def run_serial_sweep(
    recipes: Sequence[Dict[str, Any]], store: ResultStore
) -> SweepOutcome:
    """Execute task recipes in-process, serially, against the store.

    The reference the chaos harness compares against: same recipes,
    same store addressing, no queue at all; the misses go through the
    batch tier.  Blobs written here must be byte-identical to what any
    distributed (fast-engine) execution produces.
    """
    started = time.monotonic()
    executed = execute_recipes(recipes, store, "serial")
    return SweepOutcome(
        task_ids=[content_key(recipe) for recipe in recipes],
        results=[SimResult.from_json(payload) for payload, _ in executed],
        duration_s=time.monotonic() - started, mode="serial",
    )


def supervise(
    queue: FileWorkQueue,
    store: ResultStore,
    tasks: Sequence[Task],
    owner: str,
    degraded: threading.Event,
    serial_grace_s: float,
    poll_s: float = 0.05,
    timeout_s: Optional[float] = None,
) -> Tuple[List[Dict[str, Any]], int]:
    """Supervise submitted tasks until every one is done.

    Returns ``(payloads, reclaimed)``: payloads in task order, plus how
    many of these tasks' expired leases were reclaimed.  Each poll
    checks for done and poison records and reclaims expired leases.

    **Degrade rule.**  Progress is a new done record or a change in a
    task's lease (owner, attempts, heartbeats).  While some worker's
    presence record is live (:meth:`FileWorkQueue.live_workers`), the
    grace is ``serial_grace_s``; with none live it is 0, since there is
    no worker to wait for.  When none of these tasks shows progress for
    the grace (counted from the call), ``degraded`` is set and stays
    set; while it is set, each poll claims the tasks itself as
    ``owner`` and executes them in-process through the worker's
    claim → execute → complete path.
    A failed execution goes back to the queue with its traceback
    (``queue.fail``), so it retries through backoff or poisons.  A
    done task whose blob went missing is recomputed in-process.

    Raises :class:`DistributedSweepError` on poisoned tasks or when
    ``timeout_s`` elapses.
    """
    started = last_progress = time.monotonic()
    waiting = {task.task_id for task in tasks}
    signatures: Dict[str, Optional[tuple]] = {}
    reclaimed = 0
    while True:
        finished = {
            task_id for task_id in waiting
            if queue.done_record(task_id) is not None
        }
        if finished:
            waiting -= finished
            last_progress = time.monotonic()
        poisoned = [
            record for task_id in sorted(waiting)
            if (record := queue.poison_record(task_id)) is not None
        ]
        if poisoned:
            raise DistributedSweepError(
                f"{len(poisoned)} task(s) poisoned after repeated "
                "failures",
                poison=poisoned,
            )
        if not waiting:
            break
        if timeout_s is not None and (
            time.monotonic() - started > timeout_s
        ):
            raise DistributedSweepError(
                f"sweep timed out after {timeout_s:.1f}s "
                f"({sum(t.task_id not in waiting for t in tasks)}"
                f"/{len(tasks)} done; " +
                "; ".join(queue.status().summary_lines()) + ")"
            )
        reclaimed += len(waiting.intersection(queue.reclaim_expired()))
        for task_id in sorted(waiting):
            lease = queue.lease(task_id)
            signature = None if lease is None else (
                lease.get("owner"), lease.get("attempts"),
                lease.get("heartbeats"),
            )
            if signature != signatures.get(task_id):
                signatures[task_id] = signature
                last_progress = time.monotonic()
        if (
            degraded.is_set()
            or time.monotonic() - last_progress >= serial_grace_s
            or not queue.live_workers()
        ):
            degraded.set()
            claimable = set(waiting)
            while claimable:
                claimed = queue.claim(owner, want=claimable)
                if claimed is None:
                    break  # the rest wait out a retry backoff
                claimable.discard(claimed.task_id)
                try:
                    execute_claimed_task(queue, store, claimed)
                except Exception:
                    queue.fail(
                        claimed.task_id, owner, traceback.format_exc()
                    )
            if len(claimable) < len(waiting):
                continue  # executed something: re-check right away
        time.sleep(poll_s)
    executed = execute_recipes([task.recipe for task in tasks], store, owner)
    return [payload for payload, _ in executed], reclaimed


def run_distributed_sweep(
    recipes: Sequence[Dict[str, Any]],
    queue: FileWorkQueue,
    store: ResultStore,
    poll_s: float = 0.05,
    serial_grace_s: float = 5.0,
    timeout_s: Optional[float] = None,
) -> SweepOutcome:
    """Submit task recipes and supervise until every one is terminal.

    Workers are *external*: anything running ``repro worker`` against
    the same queue/store directories.  The coordinator submits, then
    hands every task to :func:`supervise`, which reclaims expired
    leases and — after ``serial_grace_s`` without progress, or at once
    when no worker has a live presence record — degrades to executing
    the remaining tasks itself for the rest of the sweep.
    Raises :class:`DistributedSweepError` on poisoned tasks or
    ``timeout_s``.
    """
    started = time.monotonic()
    tasks = [queue.submit(recipe) for recipe in recipes]
    degraded = threading.Event()
    payloads, reclaimed = supervise(
        queue, store, tasks, "coordinator-serial", degraded,
        serial_grace_s, poll_s=poll_s, timeout_s=timeout_s,
    )
    return SweepOutcome(
        task_ids=[task.task_id for task in tasks],
        results=[SimResult.from_json(payload) for payload in payloads],
        degraded=degraded.is_set(),
        reclaimed=reclaimed,
        duration_s=time.monotonic() - started,
        mode="degraded serial" if degraded.is_set() else "distributed",
    )
