"""Unit tests for the lease-based filesystem work queue.

No simulation here: recipes are throwaway dicts, time is passed
explicitly through ``now=`` so every lease/backoff decision is
deterministic.  The protocol claims under test: atomic single-winner
claims, exponential-backoff retries, poison quarantine, expired- and
corrupt-lease reclaim, straggler speculation, and done-record dedup.
"""

import json
import time

import pytest

from repro.distrib.queue import (
    FileWorkQueue,
    atomic_write_json,
    _read_json,
    worker_identity,
)
from repro.results.store import content_key


def make_queue(tmp_path, **kwargs):
    defaults = dict(
        lease_s=5.0, max_attempts=3, backoff_base_s=1.0,
        backoff_max_s=60.0, corrupt_grace_s=2.0,
    )
    defaults.update(kwargs)
    return FileWorkQueue(tmp_path / "queue", **defaults)


def recipe(n):
    return {"kind": "test-task", "n": n}


class TestSubmit:
    def test_task_id_is_content_key(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        assert task.task_id == content_key(recipe(1))
        assert queue.task(task.task_id).recipe == recipe(1)

    def test_idempotent_while_pending(self, tmp_path):
        queue = make_queue(tmp_path)
        first = queue.submit(recipe(1))
        second = queue.submit(recipe(1))
        assert first.task_id == second.task_id
        status = queue.status()
        assert status.pending == 1
        assert status.total_tasks == 1

    def test_resubmit_after_done_does_not_requeue(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        claimed = queue.claim("w1")
        queue.complete(task.task_id, "w1", task.task_id)
        queue.submit(recipe(1))
        status = queue.status()
        assert status.pending == 0
        assert status.done == 1
        assert claimed.task_id == task.task_id

    def test_resubmit_while_claimed_does_not_duplicate(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit(recipe(1))
        queue.claim("w1")
        queue.submit(recipe(1))
        status = queue.status()
        assert status.pending == 0
        assert status.claimed == 1


class TestClaim:
    def test_claim_carries_lease(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        now = 1000.0
        claimed = queue.claim("w1", now=now)
        assert claimed.task_id == task.task_id
        assert claimed.owner == "w1"
        assert claimed.attempts == 1
        assert claimed.deadline == pytest.approx(now + queue.lease_s)

    def test_exactly_one_winner(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit(recipe(1))
        first = queue.claim("w1")
        second = queue.claim("w2")
        assert first is not None
        assert second is None

    def test_want_filter_skips_foreign_tasks(self, tmp_path):
        queue = make_queue(tmp_path)
        mine = queue.submit(recipe(1))
        queue.submit(recipe(2))
        claimed = queue.claim("w1", want={mine.task_id})
        assert claimed.task_id == mine.task_id
        assert queue.claim("w1", want={mine.task_id}) is None
        # The foreign task is still there for everyone else.
        assert queue.claim("w2") is not None

    def test_backoff_defers_retry(self, tmp_path):
        queue = make_queue(tmp_path, backoff_base_s=10.0)
        task = queue.submit(recipe(1))
        now = 1000.0
        queue.claim("w1", now=now)
        assert queue.fail(task.task_id, "w1", "boom", now=now) == "pending"
        assert queue.claim("w2", now=now + 1.0) is None
        retry = queue.claim("w2", now=now + 11.0)
        assert retry is not None
        assert retry.attempts == 2

    def test_stale_pending_marker_for_done_task_is_retired(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        queue.claim("w1")
        queue.complete(task.task_id, "w1", task.task_id)
        # A speculated copy could leave a pending marker behind a
        # finished task; claiming must retire it, never re-run.
        atomic_write_json(
            queue._path("pending", task.task_id),
            {"attempts": 0, "not_before": 0.0},
        )
        assert queue.claim("w2") is None
        assert not queue._path("pending", task.task_id).is_file()

    def test_missing_body_poisons_instead_of_looping(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        queue._path("tasks", task.task_id).unlink()
        assert queue.claim("w1") is None
        record = queue.poison_record(task.task_id)
        assert record is not None
        assert "body" in record["error"]


class TestHeartbeat:
    def test_heartbeat_extends_deadline(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        queue.claim("w1", now=1000.0)
        assert queue.heartbeat(task.task_id, "w1", now=1004.0)
        lease = _read_json(queue._path("claimed", task.task_id))
        assert lease["deadline"] == pytest.approx(1004.0 + queue.lease_s)
        assert lease["heartbeats"] == 1

    def test_heartbeat_from_wrong_owner_fails(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        queue.claim("w1")
        assert not queue.heartbeat(task.task_id, "w2")

    def test_heartbeat_after_reclaim_reports_lost(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        queue.claim("w1", now=1000.0)
        queue.reclaim_expired(now=1000.0 + queue.lease_s + 1.0)
        assert not queue.heartbeat(task.task_id, "w1", now=1010.0)


class TestTerminal:
    def test_complete_dedups_second_finisher(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        queue.claim("w1")
        assert queue.complete(task.task_id, "w1", "deadbeefdeadbeef")
        assert not queue.complete(task.task_id, "w2", "deadbeefdeadbeef")
        record = queue.done_record(task.task_id)
        assert record["result_key"] == "deadbeefdeadbeef"
        assert record["owner"] == "w1"
        assert queue.status().claimed == 0

    def test_fail_until_poison(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=2, backoff_base_s=0.0)
        task = queue.submit(recipe(1))
        now = 1000.0
        queue.claim("w1", now=now)
        assert queue.fail(task.task_id, "w1", "first\nboom", now=now) == \
            "pending"
        queue.claim("w1", now=now + 1.0)
        assert queue.fail(task.task_id, "w1", "second\nboom", now=now + 2.0) \
            == "poison"
        record = queue.poison_record(task.task_id)
        assert record["attempts"] == 2
        assert "boom" in record["error"]
        assert queue.claim("w1", now=now + 3.0) is None

    def test_fail_leaves_pending_with_retry_state_only(self, tmp_path):
        # The rename back to pending is the single visible transition:
        # the pending file must be born holding the retry state, never
        # the old lease (which a concurrent claimant would read as a
        # task with zero backoff).
        queue = make_queue(tmp_path, backoff_base_s=10.0)
        task = queue.submit(recipe(1))
        queue.claim("w1", now=1000.0)
        queue.fail(task.task_id, "w1", "boom", now=1000.0)
        state = _read_json(queue._path("pending", task.task_id))
        assert state["attempts"] == 1
        assert state["not_before"] == pytest.approx(1010.0)
        assert "owner" not in state
        assert "deadline" not in state

    def test_fail_after_losing_claim(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        queue.claim("w1", now=1000.0)
        queue.reclaim_expired(now=1000.0 + queue.lease_s + 1.0)
        assert queue.fail(task.task_id, "w1", "late", now=1010.0) == "lost"


class TestReclaim:
    def test_expired_lease_returns_to_pending(self, tmp_path):
        queue = make_queue(tmp_path, backoff_base_s=0.0)
        task = queue.submit(recipe(1))
        queue.claim("w1", now=1000.0)
        expired_at = 1000.0 + queue.lease_s + 0.1
        assert queue.reclaim_expired(now=expired_at) == [task.task_id]
        retry = queue.claim("w2", now=expired_at + 0.1)
        assert retry is not None
        assert retry.attempts == 2

    def test_live_lease_is_left_alone(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit(recipe(1))
        queue.claim("w1", now=1000.0)
        assert queue.reclaim_expired(now=1001.0) == []

    def test_corrupt_claim_reclaimed_after_grace(self, tmp_path):
        import os

        queue = make_queue(tmp_path, corrupt_grace_s=2.0)
        task = queue.submit(recipe(1))
        queue.claim("w1")
        path = queue._path("claimed", task.task_id)
        path.write_text("{torn")
        # Inside the grace window a torn file might be a mid-rewrite
        # claim; after it, it is debris.
        assert queue.reclaim_expired(now=time.time()) == []
        stamp = time.time() - 10.0
        os.utime(path, (stamp, stamp))
        assert queue.reclaim_expired(now=time.time()) == [task.task_id]
        assert queue.claim("w2", now=time.time() + 60.0) is not None

    def test_mid_claim_handshake_not_instantly_reclaimed(self, tmp_path):
        import os

        queue = make_queue(tmp_path, corrupt_grace_s=2.0)
        task = queue.submit(recipe(1))
        # Freeze a claim mid-handshake: the pending file has been
        # renamed into claimed/ but the winner has not yet written its
        # lease, so the claim file holds pending-state JSON (readable,
        # but no owner/deadline).
        os.rename(
            queue._path("pending", task.task_id),
            queue._path("claimed", task.task_id),
        )
        # Inside the grace window the handshake may still be in
        # flight — reclaiming now would steal the claim from its
        # winner the instant it was made.
        assert queue.reclaim_expired(now=time.time()) == []
        assert queue._path("claimed", task.task_id).is_file()
        # Past the grace the claimant is dead mid-handshake; the task
        # is recovered, with the interrupted attempt counted.
        path = queue._path("claimed", task.task_id)
        stamp = time.time() - 10.0
        os.utime(path, (stamp, stamp))
        assert queue.reclaim_expired(now=time.time()) == [task.task_id]
        retry = queue.claim("w2", now=time.time() + 60.0)
        assert retry is not None
        assert retry.attempts == 2

    def test_claim_for_done_task_is_released_not_requeued(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        queue.claim("w1", now=1000.0)
        # done lands (a speculated copy finished) but the claim file
        # lingers; reclaim must release it, not re-pend the task.
        atomic_write_json(
            queue._path("done", task.task_id),
            {"task_id": task.task_id, "result_key": task.task_id},
        )
        assert queue.reclaim_expired(now=1000.0 + queue.lease_s + 1) == []
        assert queue.status().pending == 0
        assert queue.status().claimed == 0

    def test_reclaim_at_attempt_limit_poisons(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=1)
        task = queue.submit(recipe(1))
        queue.claim("w1", now=1000.0)
        queue.reclaim_expired(now=1000.0 + queue.lease_s + 1.0)
        record = queue.poison_record(task.task_id)
        assert record is not None
        assert "lease expired" in record["error"]


class TestSpeculate:
    def test_speculation_preserves_attempts(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        first = queue.claim("w1", now=1000.0)
        assert queue.speculate(task.task_id, now=1001.0)
        # Immediately claimable, and NOT counted as a failure: the
        # speculative copy claims at the same attempt number.
        second = queue.claim("w2", now=1001.0)
        assert second is not None
        assert second.attempts == first.attempts

    def test_speculation_refuses_done_or_unclaimed(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        assert not queue.speculate(task.task_id)  # still pending
        queue.claim("w1")
        queue.complete(task.task_id, "w1", task.task_id)
        assert not queue.speculate(task.task_id)  # already done


class TestIntrospection:
    def test_status_census(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=1, backoff_base_s=0.0)
        for n in range(1, 5):
            queue.submit(recipe(n))
        # Claims come out in sorted-id order, not submission order, so
        # drive the census by what each claim actually returned.
        done_task = queue.claim("w1", now=1000.0)
        queue.complete(done_task.task_id, "w1", done_task.task_id)
        poisoned = queue.claim("w1", now=1000.0)
        queue.fail(poisoned.task_id, "w1", "boom", now=1000.0)
        claimed = queue.claim("w1", now=1000.0)
        status = queue.status()
        assert status.total_tasks == 4
        assert status.done == 1
        assert status.poisoned == 1
        assert status.claimed == 1
        assert status.pending == 1
        assert status.open_tasks == 2
        assert status.leases[0]["task_id"] == claimed.task_id
        text = "\n".join(status.summary_lines())
        assert "4 task(s)" in text
        assert "poisoned" in text

    def test_drain_cancels_open_work_only(self, tmp_path):
        queue = make_queue(tmp_path)
        done_task = queue.submit(recipe(1))
        queue.submit(recipe(2))
        queue.submit(recipe(3))
        queue.claim("w1")
        queue.complete(done_task.task_id, "w1", done_task.task_id)
        queue.claim("w1")
        removed = queue.drain()
        assert removed["pending"] + removed["claimed"] == 2
        status = queue.status()
        assert status.pending == 0
        assert status.claimed == 0
        assert status.done == 1
        assert status.total_tasks == 3  # bodies kept for inspection

    def test_worker_identity_names_this_process(self):
        import os

        ident = worker_identity()
        assert ident.endswith(f":{os.getpid()}")

    def test_state_files_are_valid_json(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        queue.claim("w1")
        for state in ("tasks", "claimed"):
            text = queue._path(state, task.task_id).read_text()
            assert isinstance(json.loads(text), dict)


class TestRelease:
    def test_release_returns_claim_without_attempt_penalty(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        first = queue.claim("w1", now=1000.0)
        assert first.attempts == 1
        assert queue.release(task.task_id, "w1", now=1001.0)
        status = queue.status()
        assert status.pending == 1
        assert status.claimed == 0
        # Immediately claimable (no backoff), at the same attempt
        # number the released worker held — the attempt is uncounted.
        second = queue.claim("w2", now=1001.0)
        assert second is not None
        assert second.attempts == first.attempts

    def test_release_records_who_handed_it_back(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        queue.claim("w1", now=1000.0)
        queue.release(task.task_id, "w1", now=1001.0)
        pending = _read_json(queue._path("pending", task.task_id))
        assert pending["released_by"] == "w1"
        assert pending["attempts"] == 0
        assert pending["not_before"] == 1001.0

    def test_release_refuses_foreign_or_missing_claims(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        assert not queue.release(task.task_id, "w1")   # still pending
        queue.claim("w1")
        assert not queue.release(task.task_id, "w2")   # not the owner
        assert queue.status().claimed == 1             # untouched
        assert queue.release(task.task_id, "w1")

    def test_release_does_not_resurrect_done_tasks(self, tmp_path):
        queue = make_queue(tmp_path)
        task = queue.submit(recipe(1))
        queue.claim("w1")
        queue.complete(task.task_id, "w1", task.task_id)
        assert not queue.release(task.task_id, "w1")
        assert queue.status().done == 1


class TestStatusJson:
    def test_to_json_mirrors_the_census(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=1, backoff_base_s=0.0)
        for n in range(1, 4):
            queue.submit(recipe(n))
        done_task = queue.claim("w1", now=1000.0)
        queue.complete(done_task.task_id, "w1", done_task.task_id)
        poisoned = queue.claim("w1", now=1000.0)
        queue.fail(poisoned.task_id, "w1", "boom", now=1000.0)
        claimed = queue.claim("w1", now=1000.0)
        doc = queue.status().to_json()
        assert doc["total_tasks"] == 3
        assert doc["done"] == 1
        assert doc["poisoned"] == 1
        assert doc["claimed"] == 1
        assert doc["pending"] == 0
        assert doc["open_tasks"] == 1
        assert doc["leases"][0]["task_id"] == claimed.task_id
        assert doc["poison"][0]["error"] == "boom"
        json.dumps(doc)   # round-trippable, no exotic types
