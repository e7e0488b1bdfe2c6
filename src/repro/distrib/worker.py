"""The ``repro worker`` loop: claim, simulate, checkpoint, put, done.

A worker owns no state the queue and store do not hold: its task is an
immutable recipe, its progress is a checkpoint blob in the store, its
lease is a file in the queue.  Killing a worker at any instant
therefore loses nothing — the lease expires, the task is reclaimed,
and the next worker resumes from the last checkpoint (or from scratch)
to produce the byte-identical result blob.

Execution of one claimed task:

1. Rebuild the simulator from the task recipe
   (:func:`~repro.scenarios.spec.spec_from_recipe` + the one simulator
   builder, :func:`repro.sim.system.build_simulator` — bit-identical
   construction is what makes checkpoints and dedup sound).
2. If the store holds a checkpoint for this task (a previous owner died
   mid-run), restore it and continue from its cycle.
3. Run in ``checkpoint_stride``-cycle strides, snapshotting the engine
   into the store after each stride (one blob per task, overwritten in
   place) while a daemon thread heartbeats the lease.
4. ``put()`` the result under the task recipe — the result blob's
   content key *is* the task id — then drop the checkpoint's index
   alias (the superseded blob becomes ordinary garbage for ``gc``) and
   mark the task done.

Process-layer chaos faults (:mod:`repro.security.faults`) hook the
protocol-critical instants: death right after the first checkpoint
(``worker-kill-mid-task``), death inside the result blob's atomic
write (``worker-kill-mid-put``), and a heartbeat that silently stops
refreshing the lease (``worker-freeze-heartbeat``).
"""

from __future__ import annotations

import base64
import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..results import store as store_mod
from ..results.store import ResultStore, content_key, with_lock_retry
from ..scenarios.spec import spec_from_recipe
from ..security import faults
from ..sim import system as sim_system
from ..sim.stats import SimResult
from ..sim.system import SystemSimulator
from .queue import ClaimedTask, FileWorkQueue, worker_identity

#: Recipe ``kind`` tags this layer owns (the store's no-collision
#: contract: payload shape is a function of the kind).
TASK_KIND = "sweep-task"
CHECKPOINT_KIND = "sweep-checkpoint"

#: Default cycles between engine checkpoints.  Small enough that a
#: reclaimed mid-run task skips most of its work on resume, large
#: enough that snapshot pickling stays invisible next to simulation.
DEFAULT_CHECKPOINT_STRIDE = 50_000

#: Distinctive exit codes so the chaos harness (and a puzzled operator)
#: can tell an injected death from a real crash.
KILL_MID_TASK_EXIT = 43
KILL_MID_PUT_EXIT = 44


def install_shutdown_handler(
    stop_event: Optional[threading.Event] = None,
) -> threading.Event:
    """SIGTERM/SIGINT set a stop event instead of killing the worker.

    The graceful half of the worker's crash story: a *terminated*
    worker (deploy rollover, scale-down) finishes its current
    checkpoint stride, releases its claim back to ``pending`` with no
    attempt penalty, and exits 0 — only a SIGKILL leaves a lease to
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
    """The recipe of one distributed sweep task *and* its result blob.

    Deliberately field-compatible with
    :func:`repro.scenarios.run.scenario_run_recipe` minus the kind tag:
    the scenario recipe plus the run shape.  Task id and result key are
    both this recipe's content key, which is the exactly-once
    mechanism — any re-execution lands on the same address.
    """
    return {
        "kind": TASK_KIND,
        "scenario": scenario_recipe,
        "n_requests": n_requests,
        "seed": seed,
    }


def checkpoint_recipe(task_id: str) -> Dict[str, Any]:
    """The store recipe of a task's (single, overwritten) checkpoint."""
    return {"kind": CHECKPOINT_KIND, "task_id": task_id}


def checkpoint_alias(task_id: str) -> str:
    """The index alias keeping a task's checkpoint alive until done."""
    return f"checkpoint/{task_id}"


def result_alias(task_id: str) -> str:
    """The index alias under which a finished task's result is found."""
    return f"sweep/{task_id}"


def build_simulator(recipe: Dict[str, Any]) -> SystemSimulator:
    """The unrun simulator a task recipe describes.

    The recipe adapter over :func:`repro.sim.system.build_simulator`:
    the same compiled-trace caches and seeds as every in-process run,
    so a worker-built simulator is bit-identical to a serial one — the
    precondition for both checkpoint restore and content-key dedup.
    """
    spec = spec_from_recipe(recipe["scenario"])
    return sim_system.build_simulator(
        spec.system, spec.cores, spec.defense, spec.tmro_ns,
        int(recipe["n_requests"]), int(recipe["seed"]),
    )


def execute_recipe(
    recipe: Dict[str, Any], store: ResultStore, owner: str
) -> Dict[str, Any]:
    """The result payload of one task recipe, computed only on a miss.

    Fetches the blob; when it is missing, builds and runs the simulator
    in-process and puts the result under the recipe, aliased the way a
    worker's result is.  The serial sweep runs every recipe through
    here, and supervisors call it for a done task whose blob went
    missing.
    """
    payload = store.fetch(recipe)
    if payload is None:
        payload = build_simulator(recipe).run().to_json()
        with_lock_retry(lambda: store.put(
            recipe, payload, name=result_alias(content_key(recipe)),
            kind=TASK_KIND, meta={"owner": owner},
        ))
    return payload


def _encode_snapshot(snap) -> str:
    """Engine snapshot → JSON-safe text (pickle inside base64)."""
    return base64.b64encode(
        pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode_snapshot(text: str):
    """Inverse of :func:`_encode_snapshot`; None on any corruption."""
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception:
        return None


def _try_resume(
    store: ResultStore, task_id: str, sim: SystemSimulator
) -> Optional[int]:
    """Restore a stored checkpoint into ``sim``; returns its cycle.

    Any defect — missing blob, torn pickle, engine or topology
    mismatch — falls back to from-scratch execution (returns None).
    A checkpoint is an optimization, never a correctness dependency.
    """
    payload = store.fetch(checkpoint_recipe(task_id))
    if not isinstance(payload, dict):
        return None
    snap = _decode_snapshot(payload.get("snapshot_b64", ""))
    if snap is None:
        return None
    try:
        sim.restore(snap)
    except Exception:
        return None
    return int(payload.get("cycle", sim.now))


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
    resumed_from_cycle: Optional[int]
    checkpoints_written: int
    elapsed_cycles: int


def execute_claimed_task(
    queue: FileWorkQueue,
    store: ResultStore,
    claimed: ClaimedTask,
    checkpoint_stride: Optional[int] = DEFAULT_CHECKPOINT_STRIDE,
    heartbeat_interval_s: Optional[float] = None,
    stop_event: Optional[threading.Event] = None,
    presence: Optional[_Presence] = None,
) -> Optional[TaskExecution]:
    """Run one claimed task to completion and mark it done.

    Raises on simulation failure (the caller translates that into
    ``queue.fail`` with the traceback).  ``checkpoint_stride=None``
    disables checkpointing (pure from-scratch execution).

    A set ``stop_event`` (graceful shutdown) is honored at stride
    boundaries: the just-written checkpoint makes the work-so-far
    durable, the claim is *released* back to pending with no attempt
    penalty (:meth:`FileWorkQueue.release`), and None is returned —
    the next claimant resumes from that checkpoint.

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
        resumed_from = None
        if checkpoint_stride:
            resumed_from = _try_resume(store, task.task_id, sim)
        checkpoints = 0
        if checkpoint_stride:
            target = sim.now + checkpoint_stride
            while not sim.run_until(target):
                snap = sim.snapshot()
                with_lock_retry(lambda: store.put(
                    checkpoint_recipe(task.task_id),
                    {
                        "task_id": task.task_id,
                        "cycle": sim.now,
                        "engine": snap.engine,
                        "snapshot_b64": _encode_snapshot(snap),
                    },
                    name=checkpoint_alias(task.task_id),
                    kind=CHECKPOINT_KIND,
                    meta={"cycle": sim.now, "owner": claimed.owner},
                    overwrite=True,
                ))
                checkpoints += 1
                if (
                    checkpoints == 1
                    and faults.fault_active("worker-kill-mid-task")
                ):
                    os._exit(KILL_MID_TASK_EXIT)
                if stop_event is not None and stop_event.is_set():
                    # Graceful shutdown: the checkpoint just written
                    # is the hand-off point.  Release, don't fail.
                    queue.release(task.task_id, claimed.owner)
                    return None
                target += checkpoint_stride
        else:
            sim.run_until(None)
        result: SimResult = sim.finish()

        if faults.fault_active("worker-kill-mid-put"):
            store_mod._CRASH_AFTER_TMP_WRITE = (
                lambda: os._exit(KILL_MID_PUT_EXIT)
            )
        try:
            result_key, _path, created = with_lock_retry(lambda: store.put(
                recipe,
                result.to_json(),
                name=result_alias(task.task_id),
                kind=TASK_KIND,
                meta={"owner": claimed.owner, "attempts": claimed.attempts},
            ))
        finally:
            store_mod._CRASH_AFTER_TMP_WRITE = None
        if checkpoint_stride:
            # Retire the checkpoint: its blob becomes unreferenced
            # garbage that the next `repro results gc` collects.
            store.unalias(checkpoint_alias(task.task_id))
        queue.complete(task.task_id, claimed.owner, result_key)
        return TaskExecution(
            task_id=task.task_id,
            result_key=result_key,
            first_writer=created,
            resumed_from_cycle=resumed_from,
            checkpoints_written=checkpoints,
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
    released: int = 0             # claims handed back on graceful stop
    stopped: bool = False         # exited via SIGTERM/SIGINT


def run_worker(
    queue: FileWorkQueue,
    store: ResultStore,
    owner: Optional[str] = None,
    max_tasks: Optional[int] = None,
    idle_exit_s: float = 10.0,
    poll_s: float = 0.05,
    checkpoint_stride: Optional[int] = DEFAULT_CHECKPOINT_STRIDE,
    fault: Optional[str] = None,
    stop_event: Optional[threading.Event] = None,
) -> WorkerSummary:
    """Claim-and-execute until the queue is drained (or idle too long).

    The loop also reclaims expired peers' leases each idle pass, so a
    fleet of bare workers makes progress even with no coordinator
    supervising.  Exits when every submitted task is terminal, after
    ``idle_exit_s`` without finding work, after ``max_tasks``
    executions, or — gracefully — when ``stop_event`` is set (SIGTERM
    via :func:`install_shutdown_handler`): the in-flight task finishes
    its checkpoint stride, its claim is released penalty-free, and the
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
                    break  # every task done or poisoned
                if time.monotonic() - last_work > idle_exit_s:
                    break
                time.sleep(poll_s)
                continue
            last_work = time.monotonic()
            try:
                execution = execute_claimed_task(
                    queue, store, claimed,
                    checkpoint_stride=checkpoint_stride,
                    stop_event=stop_event,
                    presence=presence,
                )
            except Exception:
                summary.failed += 1
                queue.fail(
                    claimed.task_id, owner, traceback.format_exc()
                )
                continue
            if execution is None:
                # Graceful stop mid-task: claim already released.
                summary.released += 1
                summary.stopped = True
                break
            summary.executed += 1
            if not execution.first_writer:
                summary.deduplicated += 1
    finally:
        queue.retire(owner)
    return summary
