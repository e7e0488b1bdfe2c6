"""Integration tests for distributed sweep execution (in-process).

Everything here runs in one process — workers are exercised through
:func:`run_worker` / :func:`execute_claimed_task` directly, and the
coordinator's degraded serial mode stands in for a fleet.  The
process-killing faults live in ``test_distrib_chaos.py`` (they would
take pytest down with them); this file owns the deterministic claims:

* serial, degraded, and worker-executed runs produce *byte-identical*
  result blobs (the exactly-once/dedup foundation);
* a task whose lease expired mid-run is reclaimed and re-run from
  scratch to the serial blob, leaving nothing for ``gc`` to collect;
* poisoned tasks surface as :class:`DistributedSweepError` carrying
  the worker traceback;
* a stopped worker finishes its current task before it exits.
"""

import threading
import time

import pytest

from repro.distrib.coordinator import (
    DistributedSweepError,
    run_distributed_sweep,
    run_serial_sweep,
    shard_points,
)
from repro.distrib.queue import FileWorkQueue
from repro.distrib import worker as worker_mod
from repro.distrib.worker import (
    build_simulator,
    execute_claimed_task,
    put_result,
    result_alias,
    run_worker,
    sweep_task_recipe,
)
from repro.results.store import content_key, store_for
from repro.scenarios.spec import ScenarioSpec
from repro.security import faults
from repro.sim.config import DefenseConfig, SystemConfig


def small_specs():
    """Two cheap single-core sweep points (a few ms each)."""
    system = SystemConfig(n_cores=1, banks_per_channel=8)
    return [
        ScenarioSpec.benign("add_copy", system=system),
        ScenarioSpec.benign("copy", system=system),
    ]


def small_recipes(n_requests=400, seed=0):
    return shard_points(small_specs(), n_requests, seed)


def long_recipe(n_requests=5000, seed=0):
    """One single-core task of ~170k cycles (~0.1 s of host time)."""
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

        queue = FileWorkQueue(tmp_path / "dist" / "queue")
        dist_store = store_for(tmp_path / "dist")
        # serial_grace_s=0 with no workers: degrade immediately.
        outcome = run_distributed_sweep(
            recipes, queue, dist_store, poll_s=0.0, serial_grace_s=0.0,
        )
        assert outcome.degraded
        assert outcome.mode == "degraded serial"
        assert outcome.task_ids == serial.task_ids
        for key in serial.task_ids:
            assert blob_bytes(serial_store, key) == \
                blob_bytes(dist_store, key)
        for a, b in zip(serial.results, outcome.results):
            assert a.to_json() == b.to_json()

    def test_serial_sweep_batch_tier_matches_per_recipe_runs(
        self, tmp_path, monkeypatch
    ):
        """A serial sweep batch-simulates its misses, and every blob it
        writes is the one a per-recipe fast-engine run puts."""
        from repro.scenarios import get_scenario
        from repro.sim import batch

        spec = get_scenario("colocated_hammer_mcf")
        recipes = shard_points([
            spec.with_defense(DefenseConfig(tracker=tracker, scheme=scheme))
            for tracker in ("graphene", "mint", "mithril", "para")
            for scheme in ("no-rp", "impress-p")
        ], 120, 0)
        stats = batch.BatchStats()
        real_batch = batch.simulate_batch
        monkeypatch.setattr(
            batch, "simulate_batch",
            lambda points, **kwargs: real_batch(points, stats=stats, **kwargs),
        )
        serial_store = store_for(tmp_path / "serial")
        serial = run_serial_sweep(recipes, serial_store)
        assert (stats.points, stats.replayed, stats.fallbacks) == (8, 5, 2)
        fast_store = store_for(tmp_path / "fast")
        for recipe in recipes:
            put_result(fast_store, recipe,
                       build_simulator(recipe).run().to_json(), {})
        for key in serial.task_ids:
            assert blob_bytes(serial_store, key) == \
                blob_bytes(fast_store, key)

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
        assert outcome.task_ids == serial.task_ids
        for key in serial.task_ids:
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
        assert again.task_ids == first.task_ids

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

    def test_worker_exits_at_once_on_a_drained_queue(self, tmp_path):
        # Drained task bodies stay in tasks/ but are not open work:
        # the worker takes its all-terminal exit, not the idle one.
        queue = FileWorkQueue(tmp_path / "queue")
        for recipe in small_recipes():
            queue.submit(recipe)
        queue.drain()
        started = time.monotonic()
        summary = run_worker(
            queue, store_for(tmp_path), owner="w1", idle_exit_s=30.0,
            poll_s=0.01,
        )
        assert summary.executed == 0
        assert time.monotonic() - started < 10.0

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
        for key in serial.task_ids:
            assert blob_bytes(serial_store, key) == \
                blob_bytes(dist_store, key)


class TestPresenceLifecycle:
    """Written before the first claim, refreshed, removed on every exit."""

    @staticmethod
    def spy(queue, method):
        """Record, per call of ``queue.<method>``, the live owners and
        whether a non-main thread made the call."""
        calls = []
        real = getattr(queue, method)

        def wrapped(*args, **kwargs):
            calls.append((
                [worker["owner"] for worker in queue.live_workers()],
                threading.current_thread() is not threading.main_thread(),
            ))
            return real(*args, **kwargs)

        setattr(queue, method, wrapped)
        return calls

    @staticmethod
    def assert_retired(queue):
        assert queue.live_workers() == []
        assert not list((queue.root / "workers").glob("*.json"))

    def test_record_live_at_every_claim_and_removed_when_drained(
        self, tmp_path
    ):
        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        for recipe in small_recipes():
            queue.submit(recipe)
        claims = self.spy(queue, "claim")
        summary = run_worker(
            queue, store, owner="w1", idle_exit_s=30.0, poll_s=0.01,
        )
        assert summary.executed == 2
        assert claims and all(owners == ["w1"] for owners, _ in claims)
        self.assert_retired(queue)

    def test_removed_on_idle_exit(self, tmp_path):
        queue = FileWorkQueue(tmp_path / "queue")
        claims = self.spy(queue, "claim")
        summary = run_worker(
            queue, store_for(tmp_path), owner="w1", idle_exit_s=0.05,
            poll_s=0.01,
        )
        assert summary.executed == 0 and not summary.stopped
        assert claims and all(owners == ["w1"] for owners, _ in claims)
        self.assert_retired(queue)

    def test_removed_when_max_tasks_reached(self, tmp_path):
        queue = FileWorkQueue(tmp_path / "queue")
        for recipe in small_recipes():
            queue.submit(recipe)
        summary = run_worker(
            queue, store_for(tmp_path), owner="w1", max_tasks=1,
            idle_exit_s=30.0, poll_s=0.01,
        )
        assert summary.executed == 1
        assert queue.status().open_tasks == 1
        self.assert_retired(queue)

    def test_live_while_running_and_removed_on_stop_event(self, tmp_path):
        queue = FileWorkQueue(tmp_path / "queue")
        stop = threading.Event()
        summaries = []
        thread = threading.Thread(target=lambda: summaries.append(
            run_worker(
                queue, store_for(tmp_path), owner="w1",
                idle_exit_s=30.0, poll_s=0.01, stop_event=stop,
            )
        ))
        thread.start()
        try:
            deadline = time.monotonic() + 10.0
            while not queue.live_workers() and time.monotonic() < deadline:
                time.sleep(0.005)
            assert [w["owner"] for w in queue.live_workers()] == ["w1"]
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert summaries[0].stopped
        self.assert_retired(queue)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_heartbeat_refreshes_the_record_unless_frozen(
        self, tmp_path, frozen
    ):
        # A ~0.25s task under a 0.06s lease: the heartbeat thread beats
        # every 0.02s, and each beat refreshes the presence record too.
        queue = FileWorkQueue(tmp_path / "queue", lease_s=0.06)
        queue.submit(long_recipe(n_requests=40_000))
        announces = self.spy(queue, "announce")
        fault = "worker-freeze-heartbeat" if frozen else None
        try:
            summary = run_worker(
                queue, store_for(tmp_path), owner="w1", max_tasks=1,
                fault=fault,
            )
        finally:
            faults.clear()
        assert summary.executed == 1
        from_heartbeat = sum(threaded for _, threaded in announces)
        if frozen:
            assert from_heartbeat == 1   # the first beat, then silence
        else:
            assert from_heartbeat >= 2
        self.assert_retired(queue)


class TestReclaimReRun:
    def test_expired_mid_run_task_reruns_from_scratch(
        self, tmp_path, monkeypatch
    ):
        recipe = long_recipe()
        task_id = content_key(recipe)

        serial_store = store_for(tmp_path / "serial")
        serial = run_serial_sweep([recipe], serial_store)
        total_cycles = serial.results[0].elapsed_cycles

        queue = FileWorkQueue(
            tmp_path / "queue", lease_s=5.0, backoff_base_s=0.0,
        )
        store = store_for(tmp_path)
        queue.submit(recipe)

        # Worker A claims, simulates part of the task, and dies
        # (silently: no fail, no complete — exactly what SIGKILL leaves).
        claimed_a = queue.claim("worker-a")
        sim = build_simulator(claimed_a.task.recipe)
        assert not sim.run_until(total_cycles // 2)

        # The lease expires; the reclaimer returns the task to pending.
        later = time.time() + queue.lease_s + 1.0
        assert queue.reclaim_expired(now=later) == [task_id]

        # Worker B claims and re-runs the whole task on a fresh
        # simulator: cycle 0 to the end, the serial bytes.
        built = []

        def recording_build(task_recipe):
            built.append(build_simulator(task_recipe))
            assert built[-1].now == 0
            return built[-1]

        monkeypatch.setattr(worker_mod, "build_simulator", recording_build)
        claimed_b = queue.claim("worker-b", now=later)
        assert claimed_b is not None
        assert claimed_b.attempts == 2
        execution = execute_claimed_task(queue, store, claimed_b)
        assert len(built) == 1
        assert built[0].now == total_cycles
        assert execution.elapsed_cycles == total_cycles
        assert execution.first_writer
        assert blob_bytes(store, task_id) == \
            blob_bytes(serial_store, task_id)
        assert queue.done_record(task_id)["result_key"] == task_id

    def test_completed_task_leaves_no_garbage(self, tmp_path):
        recipe = long_recipe()
        task_id = content_key(recipe)
        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        queue.submit(recipe)
        execute_claimed_task(queue, store, queue.claim("w1"))
        # One blob, aliased as the task's result, and nothing for gc
        # (blob_grace_s=0 would reclaim even a seconds-old orphan).
        assert [path.stem for path in store.objects_dir.glob("*.json")] \
            == [task_id]
        assert store.latest(result_alias(task_id)) is not None
        report = store.gc(dry_run=True, blob_grace_s=0.0)
        assert report.unreferenced_blobs == []
        assert report.reclaimable_bytes == 0


class TestKillMidTaskFault:
    """``worker-kill-mid-task`` dies at a fixed cycle, mid-simulation."""

    class Killed(Exception):
        pass

    def run_under_fault(self, tmp_path, monkeypatch, recipe):
        exits = []

        def fake_exit(code):
            exits.append(code)
            raise self.Killed

        monkeypatch.setattr(worker_mod.os, "_exit", fake_exit)
        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        queue.submit(recipe)
        claimed = queue.claim("w1")
        with faults.injected("worker-kill-mid-task"):
            try:
                execute_claimed_task(queue, store, claimed)
            except self.Killed:
                pass
        return exits, queue, store

    def test_long_task_dies_at_the_kill_cycle(self, tmp_path, monkeypatch):
        recipe = long_recipe(n_requests=10_000)
        assert build_simulator(recipe).run().elapsed_cycles > \
            worker_mod.KILL_MID_TASK_CYCLE
        exits, queue, store = self.run_under_fault(
            tmp_path, monkeypatch, recipe,
        )
        assert exits == [worker_mod.KILL_MID_TASK_EXIT]
        # Died holding the claim: no result, no done record.
        task_id = content_key(recipe)
        assert queue.done_record(task_id) is None
        assert queue.status().claimed == 1
        assert store.get(task_id) is None

    def test_short_task_finishes_under_the_fault(
        self, tmp_path, monkeypatch
    ):
        recipe = long_recipe(n_requests=2000)
        exits, queue, store = self.run_under_fault(
            tmp_path, monkeypatch, recipe,
        )
        assert exits == []
        assert queue.done_record(content_key(recipe)) is not None


class TestFailurePaths:
    def test_poisoned_task_raises_with_traceback(self, tmp_path):
        broken = long_recipe()
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
        # A live worker that never claims: with no worker at all the
        # first poll would degrade instead of waiting out the grace.
        queue.announce("idle-worker", time.time())
        with pytest.raises(DistributedSweepError) as excinfo:
            run_distributed_sweep(
                recipes, queue, store, poll_s=0.01,
                serial_grace_s=60.0,   # never degrade...
                timeout_s=0.1,         # ...and give up fast
            )
        assert "timed out" in str(excinfo.value)
        assert "pending" in str(excinfo.value)


class TestGracefulStop:
    def test_stop_mid_task_finishes_and_completes_it(
        self, tmp_path, monkeypatch
    ):
        """A stop that lands mid-task lets the task finish: it is
        done, its blob is the serial one, and no new task is claimed."""
        recipes = [long_recipe(seed=0), long_recipe(seed=1)]
        serial_store = store_for(tmp_path / "serial")
        run_serial_sweep(recipes, serial_store)
        queue = FileWorkQueue(tmp_path / "queue", lease_s=30.0)
        store = store_for(tmp_path / "dist")
        tasks = [queue.submit(recipe) for recipe in recipes]
        stop = threading.Event()

        def build_then_stop(task_recipe):
            stop.set()   # SIGTERM arrives once the task is under way
            return build_simulator(task_recipe)

        monkeypatch.setattr(worker_mod, "build_simulator", build_then_stop)
        summary = run_worker(
            queue, store, owner="w1", stop_event=stop, idle_exit_s=0.1,
        )
        assert summary.stopped
        assert (summary.executed, summary.failed) == (1, 0)
        status = queue.status()
        assert (status.done, status.pending, status.claimed) == (1, 1, 0)
        done = [t.task_id for t in tasks if queue.done_record(t.task_id)]
        assert len(done) == 1
        assert blob_bytes(store, done[0]) == \
            blob_bytes(serial_store, done[0])

    def test_run_worker_reports_graceful_stop(self, tmp_path):
        """run_worker with a pre-set stop event exits without claiming."""
        import threading

        queue = FileWorkQueue(tmp_path / "queue")
        store = store_for(tmp_path)
        queue.submit(long_recipe())
        stop = threading.Event()
        stop.set()
        summary = run_worker(
            queue, store, owner="w1", stop_event=stop, idle_exit_s=0.1,
        )
        assert summary.stopped
        assert summary.executed == 0
        assert summary.failed == 0
        assert queue.status().pending == 1   # untouched
