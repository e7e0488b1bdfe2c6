"""The ``repro worker`` loop: claim, simulate, put, done.

A worker owns no state the queue and store do not hold: its task is an
immutable recipe and its lease is a file in the queue.  Killing a
worker at any instant therefore loses nothing but time — the lease
expires, the task is reclaimed, and the next worker re-runs it from
scratch to the byte-identical result blob.

Execution of one claimed task:

1. Rebuild the simulator from the task recipe
   (:func:`~repro.scenarios.spec.spec_from_recipe` + the one simulator
   builder, :func:`repro.sim.system.build_simulator` — bit-identical
   construction is what makes content-key dedup sound).
2. Run it straight through while a daemon thread heartbeats the lease.
3. ``put()`` the result under the task recipe — the result blob's
   content key *is* the task id — and mark the task done.

Process-layer chaos faults (:mod:`repro.security.faults`) hook the
protocol-critical instants: death mid-simulation at
:data:`KILL_MID_TASK_CYCLE` (``worker-kill-mid-task``), death inside the
result blob's atomic write (``worker-kill-mid-put``), and a heartbeat
that silently stops refreshing the lease (``worker-freeze-heartbeat``).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..results import store as store_mod
from ..results.store import ResultStore, content_key
from ..scenarios.spec import spec_from_recipe
from ..security import faults
from ..sim import system as sim_system
from ..sim.stats import SimResult
from ..sim.system import SystemSimulator
from .queue import ClaimedTask, FileWorkQueue, worker_identity

#: Recipe ``kind`` tags this layer owns (the store's no-collision
#: contract: payload shape is a function of the kind).
TASK_KIND = "sweep-task"

#: The simulated cycle at which ``worker-kill-mid-task`` dies.  A task
#: that finishes before it (most tasks of 2000 requests per core or
#: fewer) runs to completion, so the fault never fires.
KILL_MID_TASK_CYCLE = 300_000

#: Distinctive exit codes so the chaos harness (and a puzzled operator)
#: can tell an injected death from a real crash.
KILL_MID_TASK_EXIT = 43
KILL_MID_PUT_EXIT = 44


def install_shutdown_handler(
    stop_event: Optional[threading.Event] = None,
) -> threading.Event:
    """SIGTERM/SIGINT set a stop event instead of killing the worker.

    The graceful half of the worker's crash story: a *terminated*
    worker (deploy rollover, scale-down) finishes and completes its
    current task, then exits 0 — only a SIGKILL leaves a lease to
    expire.  Must be called from the main thread (a signal-module
    constraint); the CLI entry point does.
    """
    if stop_event is None:
        stop_event = threading.Event()

    def _handle(signum, frame):
        stop_event.set()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
    return stop_event


def sweep_task_recipe(
    scenario_recipe: Dict[str, Any], n_requests: int, seed: int
) -> Dict[str, Any]:
    """The recipe of one simulated point *and* its result blob.

    The scenario recipe plus the run shape; both legs of a ``repro
    scenario run`` are stored under it too.  Task id and result key are
    both this recipe's content key, which is the exactly-once
    mechanism — any re-execution lands on the same address.
    """
    return {
        "kind": TASK_KIND,
        "scenario": scenario_recipe,
        "n_requests": n_requests,
        "seed": seed,
    }


def result_alias(task_id: str) -> str:
    """The index alias under which a finished task's result is found."""
    return f"sweep/{task_id}"


def put_result(
    store: ResultStore,
    recipe: Dict[str, Any],
    payload: Dict[str, Any],
    meta: Dict[str, Any],
    overwrite: bool = False,
) -> Tuple[str, Path, bool]:
    """Put one point's ``sweep-task`` result blob, aliased by its key;
    ``store.put``'s return."""
    return store.put(
        recipe, payload, name=result_alias(content_key(recipe)),
        kind=TASK_KIND, meta=meta, overwrite=overwrite,
    )


def build_simulator(recipe: Dict[str, Any]) -> SystemSimulator:
    """The unrun simulator a task recipe describes.

    The recipe adapter over :func:`repro.sim.system.build_simulator`:
    the same compiled-trace caches and seeds as every in-process run,
    so a worker-built simulator is bit-identical to a serial one — the
    precondition for content-key dedup.
    """
    spec = spec_from_recipe(recipe["scenario"])
    return sim_system.build_simulator(
        spec.system, spec.cores, spec.defense, spec.tmro_ns,
        int(recipe["n_requests"]), int(recipe["seed"]),
    )


def execute_recipes(
    recipes: Sequence[Dict[str, Any]], store: ResultStore, owner: str,
    force: bool = False,
) -> List[Tuple[Dict[str, Any], bool]]:
    """``(payload, cached)`` per task recipe, in input order.

    Fetches each distinct recipe (``force`` skips the fetch) and
    simulates the misses per topology and run shape, selecting as
    ``SweepRunner.run_many`` does: a lone miss through
    :func:`build_simulator`, more in one batch-tier call.  Each result
    is put the way a worker's is; hits are not re-put.
    """
    keys = [content_key(recipe) for recipe in recipes]
    unique = dict(zip(keys, recipes))
    payloads = {key: None if force else store.get(key) for key in unique}
    cached = {key: payload is not None for key, payload in payloads.items()}
    groups: Dict[tuple, List[Tuple[str, Any]]] = {}
    for key, recipe in unique.items():
        if not cached[key]:
            spec = spec_from_recipe(recipe["scenario"])
            shape = (spec.system, recipe["n_requests"], recipe["seed"])
            groups.setdefault(shape, []).append((key, spec))
    for (system, n_requests, seed), misses in groups.items():
        if len(misses) == 1:
            results = [build_simulator(unique[misses[0][0]]).run()]
        else:  # imported here, so lone misses never load the batch tier
            from ..sim import batch

            results = batch.simulate_batch(
                [spec.sweep_point() for _, spec in misses], system=system,
                n_requests_per_core=n_requests, seed=seed,
            )
        for (key, _), result in zip(misses, results):
            payloads[key] = result.to_json()
            put_result(store, unique[key], payloads[key],
                       {"owner": owner}, force)
    return [(payloads[key], cached[key]) for key in keys]


def _heartbeat_interval(queue: FileWorkQueue) -> float:
    """The heartbeat cadence: a third of the lease, at least 10 ms."""
    return max(0.01, queue.lease_s / 3.0)


class _Presence:
    """One worker's presence record in the queue.

    The executing task's heartbeat thread calls :meth:`announce` on
    every beat; the worker loop calls :meth:`refresh`, throttled to the
    same cadence so an idle worker does not rewrite the record on every
    poll.
    """

    def __init__(self, queue: FileWorkQueue, owner: str) -> None:
        self.queue = queue
        self.owner = owner
        self.interval_s = _heartbeat_interval(queue)
        self.started_at = time.time()
        self.refreshed = float("-inf")

    def announce(self) -> None:
        self.refreshed = time.monotonic()
        self.queue.announce(self.owner, self.started_at)

    def refresh(self) -> None:
        if time.monotonic() - self.refreshed >= self.interval_s:
            self.announce()


class _HeartbeatThread(threading.Thread):
    """Refreshes one claim's lease (and its worker's presence) until stopped.

    Under the ``worker-freeze-heartbeat`` fault the thread sends its
    first beat and then goes silent while the simulation keeps
    running — the straggler whose lease, and presence record, expire
    under it.
    """

    def __init__(
        self, queue: FileWorkQueue, claimed: ClaimedTask,
        interval_s: float, presence: Optional[_Presence] = None,
    ) -> None:
        super().__init__(daemon=True)
        self.queue = queue
        self.claimed = claimed
        self.interval_s = interval_s
        self.presence = presence
        self.stop_event = threading.Event()
        self.beats = 0

    def run(self) -> None:
        frozen = faults.fault_active("worker-freeze-heartbeat")
        while not self.stop_event.wait(self.interval_s):
            if frozen and self.beats >= 1:
                continue
            if self.presence is not None:
                self.presence.announce()
            if not self.queue.heartbeat(
                self.claimed.task_id, self.claimed.owner
            ):
                # Lease lost (reclaimed or corrupted).  Keep simulating
                # anyway: the result deduplicates by content key, so
                # finishing is never wrong — only no longer exclusive.
                continue
            self.beats += 1

    def stop(self) -> None:
        self.stop_event.set()


@dataclass(frozen=True)
class TaskExecution:
    """What one claimed-task execution did (for logs and tests)."""

    task_id: str
    result_key: str
    first_writer: bool            # False: an identical blob already existed
    elapsed_cycles: int


def execute_claimed_task(
    queue: FileWorkQueue,
    store: ResultStore,
    claimed: ClaimedTask,
    heartbeat_interval_s: Optional[float] = None,
    presence: Optional[_Presence] = None,
) -> TaskExecution:
    """Run one claimed task to completion and mark it done.

    Raises on simulation failure (the caller translates that into
    ``queue.fail`` with the traceback).

    ``presence`` (set by :func:`run_worker` only; supervisors executing
    in-process have none) is refreshed with every lease heartbeat.
    """
    task = claimed.task
    recipe = task.recipe
    if heartbeat_interval_s is None:
        heartbeat_interval_s = _heartbeat_interval(queue)
    # Heartbeat from the claim on: building a large simulator can
    # outlast a short lease (and the worker's presence record).
    heartbeat = _HeartbeatThread(
        queue, claimed, heartbeat_interval_s, presence
    )
    heartbeat.start()
    try:
        sim = build_simulator(recipe)
        if faults.fault_active("worker-kill-mid-task"):
            if not sim.run_until(KILL_MID_TASK_CYCLE):
                os._exit(KILL_MID_TASK_EXIT)
        result: SimResult = sim.run()

        if faults.fault_active("worker-kill-mid-put"):
            store_mod._CRASH_AFTER_TMP_WRITE = (
                lambda: os._exit(KILL_MID_PUT_EXIT)
            )
        try:
            result_key, _path, created = put_result(
                store, recipe, result.to_json(),
                {"owner": claimed.owner, "attempts": claimed.attempts},
            )
        finally:
            store_mod._CRASH_AFTER_TMP_WRITE = None
        queue.complete(task.task_id, claimed.owner, result_key)
        return TaskExecution(
            task_id=task.task_id,
            result_key=result_key,
            first_writer=created,
            elapsed_cycles=result.elapsed_cycles,
        )
    finally:
        heartbeat.stop()
        heartbeat.join(timeout=2.0)


@dataclass
class WorkerSummary:
    """One ``run_worker`` invocation's tally."""

    owner: str
    executed: int = 0
    failed: int = 0
    deduplicated: int = 0
    stopped: bool = False         # exited via SIGTERM/SIGINT


def run_worker(
    queue: FileWorkQueue,
    store: ResultStore,
    owner: Optional[str] = None,
    max_tasks: Optional[int] = None,
    idle_exit_s: float = 10.0,
    poll_s: float = 0.05,
    fault: Optional[str] = None,
    stop_event: Optional[threading.Event] = None,
) -> WorkerSummary:
    """Claim-and-execute until the queue is drained (or idle too long).

    The loop also reclaims expired peers' leases each idle pass, so a
    fleet of bare workers makes progress even with no coordinator
    supervising.  Exits when every submitted task is terminal, after
    ``idle_exit_s`` without finding work, after ``max_tasks``
    executions, or — gracefully — when ``stop_event`` is set (SIGTERM
    via :func:`install_shutdown_handler`): the in-flight task runs to
    completion and is marked done, no new task is claimed, and the
    summary reports ``stopped``.  ``fault`` injects one named chaos
    fault process-wide before the first claim (the ``repro worker
    --fault`` path).

    The worker announces itself with a presence record in the queue
    before its first claim, refreshes it at the heartbeat cadence
    (``lease_s / 3``) and removes it on every exit that gets to run a
    ``finally``.
    """
    if owner is None:
        owner = worker_identity()
    if fault is not None:
        faults.inject(fault)
    summary = WorkerSummary(owner=owner)
    presence = _Presence(queue, owner)
    last_work = time.monotonic()
    try:
        while True:
            presence.refresh()
            if stop_event is not None and stop_event.is_set():
                summary.stopped = True
                break
            if max_tasks is not None and summary.executed >= max_tasks:
                break
            claimed = queue.claim(owner)
            if claimed is None:
                queue.reclaim_expired()
                status = queue.status()
                if status.total_tasks and not status.open_tasks:
                    break  # nothing pending or claimed
                if time.monotonic() - last_work > idle_exit_s:
                    break
                time.sleep(poll_s)
                continue
            last_work = time.monotonic()
            try:
                execution = execute_claimed_task(
                    queue, store, claimed, presence=presence,
                )
            except Exception:
                summary.failed += 1
                queue.fail(
                    claimed.task_id, owner, traceback.format_exc()
                )
                continue
            summary.executed += 1
            if not execution.first_writer:
                summary.deduplicated += 1
    finally:
        queue.retire(owner)
    return summary
