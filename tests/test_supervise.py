"""One supervision loop, one degrade rule: sweep coordinator and serve.

The sweep coordinator (:func:`run_distributed_sweep`) and the serve
engine (:class:`RequestEngine`) both supervise their tasks through
:func:`repro.distrib.coordinator.supervise`, so every case here runs in
both settings:

* a sole worker that died holding a claim (a ghost claim that never
  heartbeats) degrades the supervisor to in-process execution instead
  of waiting forever;
* a worker that joins after the supervisor degraded cooperates with
  the in-process drain — every task completes, nothing is poisoned;

and every result blob is byte-identical to a serial sweep.
"""

import threading
import time

import pytest

import repro.distrib.coordinator as coordinator_mod
from repro.distrib.coordinator import (
    run_distributed_sweep,
    run_serial_sweep,
    shard_points,
)
from repro.distrib.queue import FileWorkQueue
from repro.distrib.worker import run_worker
from repro.results.store import content_key, store_for
from repro.scenarios.spec import ScenarioSpec
from repro.serve.engine import RequestEngine
from repro.serve.journal import RequestJournal
from repro.sim.config import SystemConfig

SETTINGS = ("coordinator", "serve")


def recipes_for(workloads, n_requests):
    system = SystemConfig(n_cores=1, banks_per_channel=8)
    specs = [ScenarioSpec.benign(name, system=system) for name in workloads]
    return shard_points(specs, n_requests, 0)


def run_supervised(setting, tmp_path, monkeypatch, recipes, queue, store,
                   grace_s, after_first=None):
    """Run ``recipes`` through one supervisor; True when it degraded.

    ``after_first`` is called once, after the first task completed and
    while the others are still open in the queue.
    """
    if setting == "coordinator":
        if after_first is not None:
            real_execute = coordinator_mod.execute_claimed_task
            hook_fired = []

            def execute_then_hook(*args, **kwargs):
                execution = real_execute(*args, **kwargs)
                if not hook_fired:
                    hook_fired.append(True)
                    after_first()
                return execution

            monkeypatch.setattr(
                coordinator_mod, "execute_claimed_task", execute_then_hook
            )
        outcome = run_distributed_sweep(
            recipes, queue, store, poll_s=0.01,
            serial_grace_s=grace_s, timeout_s=5.0,
        )
        assert outcome.degraded == (outcome.mode == "degraded serial")
        return outcome.degraded
    engine = RequestEngine(
        store, queue, RequestJournal(tmp_path / "journal"),
        serial_grace_s=grace_s, poll_s=0.01,
    )
    first, _ = engine.submit(recipes[0])
    assert engine.wait(first, 5.0) is not None
    if after_first is not None:
        for recipe in recipes[1:]:
            queue.submit(recipe)
        after_first()
    for entry, _ in [engine.submit(recipe) for recipe in recipes[1:]]:
        assert engine.wait(entry, 5.0) is not None
    return engine.degraded.is_set()


def assert_matches_serial(tmp_path, recipes, store):
    serial_store = store_for(tmp_path / "serial")
    serial = run_serial_sweep(recipes, serial_store)
    for key in serial.task_ids:
        assert store.blob_path(key).read_bytes() == \
            serial_store.blob_path(key).read_bytes()


@pytest.mark.parametrize("setting", SETTINGS)
def test_sole_dead_worker_claim_degrades(tmp_path, monkeypatch, setting):
    # The only "worker" claimed the task and died: its lease never
    # heartbeats.  The coordinator used to count any claim as a live
    # worker and waited out its whole timeout with the task pending.
    recipes = recipes_for(["add_copy"], 400)
    queue = FileWorkQueue(tmp_path / "queue", lease_s=0.2)
    queue.submit(recipes[0])
    assert queue.claim("ghost") is not None
    store = store_for(tmp_path / "dist")

    assert run_supervised(
        setting, tmp_path, monkeypatch, recipes, queue, store, 0.3
    )
    status = queue.status()
    assert status.done == 1 and status.poisoned == 0
    assert_matches_serial(tmp_path, recipes, store)


@pytest.mark.parametrize("setting", SETTINGS)
def test_late_worker_joins_degraded_drain(tmp_path, monkeypatch, setting):
    recipes = recipes_for(["add_copy", "copy", "mcf", "scale"], 3000)
    keys = [content_key(recipe) for recipe in recipes]
    queue = FileWorkQueue(tmp_path / "queue")
    store = store_for(tmp_path / "dist")
    open_at_join = []
    summaries = []

    def late_worker():
        summaries.append(run_worker(
            queue, store, owner="late-worker", idle_exit_s=0.5,
            poll_s=0.005,
        ))

    thread = threading.Thread(target=late_worker)

    def worker_took_a_task():
        records = [queue.lease(key) for key in keys]
        records += [queue.done_record(key) for key in keys]
        return any(
            record is not None and record.get("owner") == "late-worker"
            for record in records
        )

    def join_now():
        open_at_join.append(sum(
            queue.done_record(key) is None for key in keys
        ))
        thread.start()
        # Hold the supervisor until the worker has a task of its own,
        # so the two really execute side by side.
        deadline = time.monotonic() + 10.0
        while not worker_took_a_task() and time.monotonic() < deadline:
            time.sleep(0.001)

    degraded = run_supervised(
        setting, tmp_path, monkeypatch, recipes, queue, store, 0.0,
        after_first=join_now,
    )
    thread.join(timeout=30.0)
    assert not thread.is_alive()

    assert degraded
    assert open_at_join and open_at_join[0] > 0   # joined mid-drain
    assert summaries[0].executed >= 1 and summaries[0].failed == 0
    status = queue.status()
    assert status.done == len(recipes)
    assert status.poisoned == 0 and not status.poison
    assert_matches_serial(tmp_path, recipes, store)


@pytest.mark.parametrize("setting", SETTINGS)
def test_workerless_first_task_degrades_at_once(
    tmp_path, monkeypatch, setting
):
    # No presence record: there is no worker to wait for, so the long
    # grace never applies and the first poll executes in-process.
    recipes = recipes_for(["add_copy"], 400)
    queue = FileWorkQueue(tmp_path / "queue")
    store = store_for(tmp_path / "dist")
    started = time.monotonic()
    assert run_supervised(
        setting, tmp_path, monkeypatch, recipes, queue, store, 30.0
    )
    assert time.monotonic() - started < 15.0
    assert queue.status().done == 1
    assert_matches_serial(tmp_path, recipes, store)


@pytest.mark.parametrize("setting", SETTINGS)
def test_live_worker_that_never_claims_keeps_the_grace(
    tmp_path, monkeypatch, setting
):
    recipes = recipes_for(["add_copy"], 400)
    task_id = content_key(recipes[0])
    queue = FileWorkQueue(tmp_path / "queue")
    queue.announce("silent-worker", started_at=time.time())
    store = store_for(tmp_path / "dist")
    degraded = []
    thread = threading.Thread(target=lambda: degraded.append(
        run_supervised(
            setting, tmp_path, monkeypatch, recipes, queue, store, 0.5
        )
    ))
    started = time.monotonic()
    thread.start()
    time.sleep(0.2)
    # Not degraded yet: the supervisor has not claimed the task.
    early = (queue.lease(task_id), queue.done_record(task_id))
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert early == (None, None)
    assert degraded == [True]
    assert time.monotonic() - started >= 0.5
    assert queue.done_record(task_id)["owner"] != "silent-worker"
    assert_matches_serial(tmp_path, recipes, store)
