"""Fault-tolerant distributed sweep execution.

The content-addressed result store (:mod:`repro.results.store`) is the
exchange medium; this package adds the *coordination* layer that lets
many worker processes — on one host or many, sharing only a filesystem
— chew through a sharded sweep and survive crashes:

* :mod:`repro.distrib.queue` — a filesystem-backed work queue with
  atomic-rename claims, leases with heartbeats, expiry reclaim with
  exponential backoff, and a poison list for tasks that keep failing.
* :mod:`repro.distrib.worker` — the ``repro worker`` loop: claim,
  simulate (checkpointing engine snapshots into the store at a cycle
  stride so a reclaimed task resumes instead of restarting), ``put()``
  the result blob, mark done.
* :mod:`repro.distrib.coordinator` — shards a batch of scenario sweep
  points into recipe tasks, supervises leases (reclaim, speculation),
  degrades to in-process serial execution when the tasks stop making
  progress, and collects results in submission order.  Its supervision
  loop also drives the serve daemon's requests.

The chaos harness that spawns real worker subprocesses, SIGKILLs them
mid-task, freezes their heartbeats and corrupts their claim files
lives one level up in :mod:`repro.chaos`, next to the serve daemon's
crash cases.

Exactly-once delivery is not implemented — it falls out of content
addressing: a retried or speculatively re-executed task recomputes the
same deterministic payload under the same content key, so the second
writer deduplicates instead of duplicating.
"""

from .coordinator import (
    DistributedSweepError,
    SweepOutcome,
    run_distributed_sweep,
    run_serial_sweep,
    shard_points,
)
from .queue import (
    ClaimedTask,
    FileWorkQueue,
    QueueStatus,
    Task,
)
from .worker import TaskExecution, execute_claimed_task, run_worker

__all__ = [
    "ClaimedTask",
    "DistributedSweepError",
    "FileWorkQueue",
    "QueueStatus",
    "SweepOutcome",
    "Task",
    "TaskExecution",
    "execute_claimed_task",
    "run_distributed_sweep",
    "run_serial_sweep",
    "run_worker",
    "shard_points",
]
