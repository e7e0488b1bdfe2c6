"""Integration tests for distributed sweep execution (in-process).

Everything here runs in one process — workers are exercised through
:func:`run_worker` / :func:`execute_claimed_task` directly, and the
coordinator's degraded serial mode stands in for a fleet.  The
process-killing faults live in ``test_distrib_chaos.py`` (they would
take pytest down with them); this file owns the deterministic claims:

* serial, degraded, and worker-executed runs produce *byte-identical*
  result blobs (the exactly-once/dedup foundation);
* a reclaimed task resumes from its checkpoint and simulates fewer
  cycles than a from-scratch run, with an identical result;
* poisoned tasks surface as :class:`DistributedSweepError` carrying
  the worker traceback;
* a completed task's checkpoint blob becomes garbage ``gc`` collects
  while the result stays fetchable.
"""

import dataclasses
import time

import pytest

from repro.distrib.coordinator import (
    DistributedSweepError,
    run_distributed_sweep,
    run_serial_sweep,
    shard_points,
)
from repro.distrib.queue import FileWorkQueue
from repro.distrib.worker import (
    build_simulator,
    checkpoint_alias,
    checkpoint_recipe,
    execute_claimed_task,
    result_alias,
    run_worker,
    sweep_task_recipe,
    CHECKPOINT_KIND,
    _encode_snapshot,
)
from repro.memctrl.request import unpack_request
from repro.results.store import content_key, store_for
from repro.scenarios.spec import ScenarioSpec
from repro.sim.config import SystemConfig


def small_specs():
    """Two cheap single-core sweep points (a few ms each)."""
    system = SystemConfig(n_cores=1, banks_per_channel=8)
    return [
        ScenarioSpec.benign("add_copy", system=system),
        ScenarioSpec.benign("copy", system=system),
    ]


def small_recipes(n_requests=400, seed=0):
    return shard_points(small_specs(), n_requests, seed)


def checkpointable_recipe(n_requests=5000, seed=0):
    """One task long enough (~170k cycles) for several checkpoints."""
    system = SystemConfig(n_cores=1, banks_per_channel=8)
    spec = ScenarioSpec.benign("mcf", system=system)
    return sweep_task_recipe(spec.recipe(), n_requests, seed)


def blob_bytes(store, key):
    return store.blob_path(key).read_bytes()


class TestShardPoints:
    def test_one_task_per_point(self):
        recipes = small_recipes()
        assert len(recipes) == 2
        assert all(r["kind"] == "sweep-task" for r in recipes)
        assert all(r["n_requests"] == 400 for r in recipes)

    def test_accepts_explicit_recipe_dicts(self):
        spec = small_specs()[0]
        from_spec = shard_points([spec], 400, 0)
        from_dict = shard_points([spec.recipe()], 400, 0)
        assert from_spec == from_dict


class TestSerialAndDegraded:
    def test_degraded_sweep_matches_serial_byte_for_byte(self, tmp_path):
        recipes = small_recipes()
        serial_store = store_for(tmp_path / "serial")
        serial = run_serial_sweep(recipes, serial_store)
        assert serial.mode == "serial"
        assert serial.task_ids == [content_key(r) for r in recipes]
        assert serial.result_keys == serial.task_ids

        queue = FileWorkQueue(tmp_path / "dist" / "queue")
        dist_store = store_for(tmp_path / "dist")
        # serial_grace_s=0 with no workers: degrade immediately.
        outcome = run_distributed_sweep(
            recipes, queue, dist_store, poll_s=0.0, serial_grace_s=0.0,
        )
        assert outcome.degraded
        assert outcome.mode == "degraded serial"
        assert outcome.result_keys == serial.result_keys
        for key in serial.result_keys:
            assert blob_bytes(serial_store, key) == \
                blob_bytes(dist_store, key)
        for a, b in zip(serial.results, outcome.results):
            assert a.to_json() == b.to_json()

    def test_degraded_sweep_retries_transient_failure(
        self, tmp_path, monkeypatch
    ):
        # The mixed case: one task succeeds, another fails its first
        # attempt.  The coordinator's own completion used to flip the
        # worker-liveness signal, so the degraded drain never ran again
        # and the retrying task waited forever for a worker that did
        # not exist.  Degraded mode must stay sticky: keep draining
        # through the backoff until the retry succeeds.  The shared
        # supervision loop (coordinator.supervise) looks
        # execute_claimed_task up in the coordinator module, so the
        # failure is injected there.
        import repro.distrib.coordinator as coordinator_mod

        recipes = small_recipes()
        flaky_id = content_key(recipes[1])
        real_execute = coordinator_mod.execute_claimed_task
        injected = []

        def flaky_execute(queue, store, claimed, **kwargs):
            if claimed.task_id == flaky_id and not injected:
                injected.append(claimed.task_id)
                raise RuntimeError("transient chaos")
            return real_execute(queue, store, claimed, **kwargs)

        monkeypatch.setattr(
            coordinator_mod, "execute_claimed_task", flaky_execute
        )
        queue = FileWorkQueue(tmp_path / "queue", backoff_base_s=0.05)
        store = store_for(tmp_path)
        outcome = run_distributed_sweep(
            recipes, queue, store, poll_s=0.01, serial_grace_s=0.0,
            timeout_s=30.0,
        )
        assert injected  # the failure actually fired
        assert outcome.degraded
        assert len(outcome.results) == len(recipes)
        serial = run_serial_sweep(recipes, store_for(tmp_path / "serial"))
        assert outcome.result_keys == serial.result_keys
        for key in serial.result_keys:
            assert blob_bytes(store_for(tmp_path / "serial"), key) == \
                blob_bytes(store, key)

    def test_resubmitted_sweep_reuses_done_tasks(self, tmp_path):
        recipes = small_recipes()
        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        first = run_distributed_sweep(
            recipes, queue, store, poll_s=0.0, serial_grace_s=0.0,
        )
        # A coordinator crash-and-restart resubmits the same recipes
        # and must find every task already done — nothing re-runs, so
        # this completes without ever degrading.
        again = run_distributed_sweep(
            recipes, queue, store, poll_s=0.0, serial_grace_s=60.0,
            timeout_s=10.0,
        )
        assert not again.degraded
        assert again.result_keys == first.result_keys

    def test_sweep_result_is_aliased_in_store(self, tmp_path):
        recipes = small_recipes()
        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        outcome = run_distributed_sweep(
            recipes, queue, store, poll_s=0.0, serial_grace_s=0.0,
        )
        for task_id in outcome.task_ids:
            entry = store.latest(result_alias(task_id))
            assert entry is not None
            assert entry["key"] == task_id


class TestWorkerLoop:
    def test_worker_drains_queue(self, tmp_path):
        recipes = small_recipes()
        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        for recipe in recipes:
            queue.submit(recipe)
        summary = run_worker(
            queue, store, owner="w1", idle_exit_s=0.2, poll_s=0.01,
        )
        assert summary.executed == 2
        assert summary.failed == 0
        status = queue.status()
        assert status.done == 2
        assert status.open_tasks == 0

    def test_second_worker_exits_with_nothing_to_do(self, tmp_path):
        recipes = small_recipes()
        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        for recipe in recipes:
            queue.submit(recipe)
        run_worker(queue, store, owner="w1", idle_exit_s=0.2, poll_s=0.01)
        summary = run_worker(
            queue, store, owner="w2", idle_exit_s=5.0, poll_s=0.01,
        )
        assert summary.executed == 0

    def test_worker_blob_matches_serial(self, tmp_path):
        recipes = small_recipes()
        serial_store = store_for(tmp_path / "serial")
        serial = run_serial_sweep(recipes, serial_store)
        queue = FileWorkQueue(tmp_path / "dist" / "queue")
        dist_store = store_for(tmp_path / "dist")
        for recipe in recipes:
            queue.submit(recipe)
        run_worker(
            queue, dist_store, owner="w1", idle_exit_s=0.2, poll_s=0.01,
        )
        for key in serial.result_keys:
            assert blob_bytes(serial_store, key) == \
                blob_bytes(dist_store, key)


class TestCheckpointResume:
    def test_reclaimed_task_resumes_and_matches_serial(self, tmp_path):
        recipe = checkpointable_recipe()
        task_id = content_key(recipe)
        stride = 50_000

        serial_store = store_for(tmp_path / "serial")
        serial = run_serial_sweep([recipe], serial_store)
        total_cycles = serial.results[0].elapsed_cycles
        assert total_cycles > 2 * stride  # several strides of work

        queue = FileWorkQueue(
            tmp_path / "queue", lease_s=5.0, backoff_base_s=0.0,
        )
        store = store_for(tmp_path)
        queue.submit(recipe)

        # Worker A claims, simulates one stride, checkpoints, and dies
        # (silently: no fail, no complete — exactly what SIGKILL leaves).
        claimed_a = queue.claim("worker-a")
        sim = build_simulator(claimed_a.task.recipe)
        assert not sim.run_until(stride)  # stopped mid-run, not finished
        snap = sim.snapshot()
        store.put(
            checkpoint_recipe(task_id),
            {
                "task_id": task_id,
                "cycle": sim.now,
                "engine": snap.engine,
                "snapshot_b64": _encode_snapshot(snap),
            },
            name=checkpoint_alias(task_id),
            kind=CHECKPOINT_KIND,
            overwrite=True,
        )
        checkpoint_cycle = sim.now
        # run_until stops on the last event at or before the target.
        assert 0 < checkpoint_cycle <= stride

        # The lease expires; the reclaimer returns the task to pending.
        later = time.time() + queue.lease_s + 1.0
        assert queue.reclaim_expired(now=later) == [task_id]

        # Worker B claims and must resume from the checkpoint: the
        # acceptance criterion is fewer cycles simulated after resume
        # than a from-scratch run, with a byte-identical result.
        claimed_b = queue.claim("worker-b", now=later)
        assert claimed_b is not None
        assert claimed_b.attempts == 2
        execution = execute_claimed_task(
            queue, store, claimed_b, checkpoint_stride=stride,
        )
        assert execution.resumed_from_cycle == checkpoint_cycle
        cycles_after_resume = total_cycles - execution.resumed_from_cycle
        assert cycles_after_resume < total_cycles
        assert execution.elapsed_cycles == total_cycles
        assert blob_bytes(store, task_id) == \
            blob_bytes(serial_store, task_id)
        assert queue.done_record(task_id)["result_key"] == task_id

    def test_corrupt_checkpoint_falls_back_to_scratch(self, tmp_path):
        recipe = checkpointable_recipe()
        task_id = content_key(recipe)
        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        store.put(
            checkpoint_recipe(task_id),
            {"task_id": task_id, "cycle": 12345,
             "snapshot_b64": "not!valid!base64!pickle"},
            name=checkpoint_alias(task_id),
            kind=CHECKPOINT_KIND,
            overwrite=True,
        )
        queue.submit(recipe)
        claimed = queue.claim("w1")
        execution = execute_claimed_task(
            queue, store, claimed, checkpoint_stride=50_000,
        )
        assert execution.resumed_from_cycle is None  # scratch, not crash
        assert queue.done_record(task_id) is not None

    @pytest.mark.parametrize("class_removed", [True, False])
    def test_object_queue_checkpoint_falls_back_to_scratch(
        self, tmp_path, monkeypatch, class_removed,
    ):
        """A checkpoint from a code version whose bank queues held
        request objects, not packed ints, reruns the task from scratch:
        it neither crashes nor poisons, and the blob is byte-identical.
        With the old class gone the pickle does not load; with a class
        of that name still importable, ``restore`` rejects the queue."""
        import repro.memctrl.request as request_mod

        class InFlightRequest:
            """Stand-in for the queue entry class of older versions."""

            def __init__(self, core_id, row, is_write):
                self.core_id = core_id
                self.row = row
                self.is_write = is_write

        InFlightRequest.__module__ = request_mod.__name__
        InFlightRequest.__qualname__ = "InFlightRequest"
        monkeypatch.setattr(
            request_mod, "InFlightRequest", InFlightRequest, raising=False,
        )

        recipe = checkpointable_recipe()
        task_id = content_key(recipe)
        serial_store = store_for(tmp_path / "serial")
        run_serial_sweep([recipe], serial_store)

        sim = build_simulator(recipe)
        assert not sim.run_until(50_000)
        snap = sim.snapshot()
        controllers = tuple(
            dataclasses.replace(ctrl, queues=tuple(
                tuple(
                    InFlightRequest(core, row, write)
                    for row, core, write in map(unpack_request, queue)
                )
                for queue in ctrl.queues
            ))
            for ctrl in snap.controllers
        )
        assert any(
            queue for ctrl in controllers for queue in ctrl.queues
        ), "checkpoint must hold queued requests"
        old_snap = dataclasses.replace(snap, controllers=controllers)
        encoded = _encode_snapshot(old_snap)
        if class_removed:
            monkeypatch.delattr(request_mod, "InFlightRequest")

        queue = FileWorkQueue(
            tmp_path / "queue", max_attempts=1, backoff_base_s=0.0,
        )
        store = store_for(tmp_path)
        store.put(
            checkpoint_recipe(task_id),
            {"task_id": task_id, "cycle": sim.now, "engine": snap.engine,
             "snapshot_b64": encoded},
            name=checkpoint_alias(task_id),
            kind=CHECKPOINT_KIND,
            overwrite=True,
        )
        queue.submit(recipe)
        summary = run_worker(
            queue, store, owner="w1", idle_exit_s=0.2, poll_s=0.01,
            checkpoint_stride=50_000,
        )
        assert (summary.executed, summary.failed) == (1, 0)
        assert queue.poison_record(task_id) is None
        assert queue.done_record(task_id)["result_key"] == task_id
        assert blob_bytes(store, task_id) == \
            blob_bytes(serial_store, task_id)

    def test_completed_task_checkpoint_becomes_garbage(self, tmp_path):
        recipe = checkpointable_recipe()
        task_id = content_key(recipe)
        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        queue.submit(recipe)
        claimed = queue.claim("w1")
        execution = execute_claimed_task(
            queue, store, claimed, checkpoint_stride=50_000,
        )
        assert execution.checkpoints_written >= 1
        # The checkpoint alias is retired on completion...
        assert store.latest(checkpoint_alias(task_id)) is None
        checkpoint_key = content_key(checkpoint_recipe(task_id))
        assert store.blob_path(checkpoint_key).is_file()
        # ...so gc reports it as reclaimable, removes it, and keeps the
        # still-aliased result blob fetchable.  (blob_grace_s=0: the
        # checkpoint blob is seconds old, and the grace that protects
        # in-flight writers would otherwise spare it.)
        dry = store.gc(dry_run=True, blob_grace_s=0.0)
        assert checkpoint_key in [key for key, _ in dry.unreferenced_blobs]
        assert dry.reclaimable_bytes > 0
        assert store.blob_path(checkpoint_key).is_file()
        real = store.gc(blob_grace_s=0.0)
        assert checkpoint_key in [key for key, _ in real.unreferenced_blobs]
        assert not store.blob_path(checkpoint_key).is_file()
        assert store.get(task_id) is not None


class TestFailurePaths:
    def test_poisoned_task_raises_with_traceback(self, tmp_path):
        broken = checkpointable_recipe()
        broken["scenario"] = dict(broken["scenario"])
        broken["scenario"]["cores"] = "no_such_workload"
        queue = FileWorkQueue(
            tmp_path / "queue", max_attempts=1, backoff_base_s=0.0,
        )
        store = store_for(tmp_path)
        with pytest.raises(DistributedSweepError) as excinfo:
            run_distributed_sweep(
                [broken], queue, store, poll_s=0.0, serial_grace_s=0.0,
            )
        message = str(excinfo.value)
        assert "poisoned" in message
        assert "no_such_workload" in message
        assert excinfo.value.poison[0]["attempts"] == 1

    def test_timeout_raises_with_queue_census(self, tmp_path):
        recipes = small_recipes()
        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        with pytest.raises(DistributedSweepError) as excinfo:
            run_distributed_sweep(
                recipes, queue, store, poll_s=0.01,
                serial_grace_s=60.0,   # never degrade...
                timeout_s=0.1,         # ...and give up fast
            )
        assert "timed out" in str(excinfo.value)
        assert "pending" in str(excinfo.value)


class TestGracefulStop:
    def test_stop_event_releases_at_stride_boundary(self, tmp_path):
        """A pre-set stop event releases after the first checkpoint."""
        import threading

        recipe = checkpointable_recipe()
        task_id = content_key(recipe)
        queue = FileWorkQueue(tmp_path / "queue", lease_s=30.0)
        store = store_for(tmp_path)
        queue.submit(recipe)
        stop = threading.Event()
        stop.set()
        claimed = queue.claim("w1")
        execution = execute_claimed_task(
            queue, store, claimed, checkpoint_stride=20_000,
            stop_event=stop,
        )
        assert execution is None
        # Claim handed back penalty-free, checkpoint durable.
        status = queue.status()
        assert status.pending == 1
        assert status.claimed == 0
        from repro.distrib.queue import _read_json

        pending = _read_json(queue._path("pending", task_id))
        assert pending["attempts"] == 0
        assert pending["released_by"] == "w1"
        checkpoint = store.fetch(checkpoint_recipe(task_id))
        assert checkpoint is not None
        assert checkpoint["cycle"] > 0

    def test_released_task_resumes_and_matches_serial(self, tmp_path):
        """stop → release → resume produces the serial bytes."""
        import threading

        recipe = checkpointable_recipe()
        task_id = content_key(recipe)
        serial_store = store_for(tmp_path / "serial")
        run_serial_sweep([recipe], serial_store)
        queue = FileWorkQueue(tmp_path / "queue", lease_s=30.0)
        store = store_for(tmp_path / "dist")
        queue.submit(recipe)
        stop = threading.Event()
        stop.set()
        first = queue.claim("w1")
        assert execute_claimed_task(
            queue, store, first, checkpoint_stride=20_000,
            stop_event=stop,
        ) is None
        second = queue.claim("w2")
        execution = execute_claimed_task(
            queue, store, second, checkpoint_stride=20_000,
        )
        assert execution is not None
        assert execution.resumed_from_cycle is not None
        assert execution.resumed_from_cycle > 0
        assert (
            store.blob_path(task_id).read_bytes()
            == serial_store.blob_path(task_id).read_bytes()
        )

    def test_run_worker_reports_graceful_stop(self, tmp_path):
        """run_worker with a pre-set stop event exits without claiming."""
        import threading

        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        queue.submit(checkpointable_recipe())
        stop = threading.Event()
        stop.set()
        summary = run_worker(
            queue, store, owner="w1", stop_event=stop, idle_exit_s=0.1,
        )
        assert summary.stopped
        assert summary.executed == 0
        assert summary.failed == 0
        assert queue.status().pending == 1   # untouched
