"""Tests for the serve stack: journal, engine, HTTP daemon, client.

Everything here is in-process and fast — the engine executes misses
through its own sticky-degraded path (no worker subprocesses), and the
HTTP daemon binds port 0 on localhost inside the test.  The
process-killing recovery claims (SIGKILL mid-request, restart, replay,
graceful SIGTERM drain) live in ``test_serve_chaos.py``.

The load-bearing claims:

* a served miss produces a result blob *byte-identical* to a serial
  sweep of the same recipe (the store-addressing contract extends to
  the daemon);
* N concurrent identical requests coalesce onto one execution — one
  journal entry, one accepted count, one blob, N equal payloads;
* admission control sheds (never queues unboundedly) past every
  watermark, with store hits still served while draining;
* journal replay completes pre-crash requests and resolves entries
  whose blob already landed without re-executing;
* the client's deadline/retry loop survives dead sockets, sheds, 202
  polling, and a daemon restart that forgot the key (404 → resubmit).
"""

import json
import threading
import time

import pytest

from repro.distrib.coordinator import run_serial_sweep
from repro.distrib.queue import FileWorkQueue
from repro.distrib.worker import sweep_task_recipe
from repro.results.store import content_key, store_for
from repro.scenarios.spec import ScenarioSpec
from repro.serve.client import (
    DeadlineExceeded,
    ServeClient,
    ServeError,
    ServeUnavailable,
)
from repro.serve.engine import RequestEngine, RequestFailed, RequestShed
from repro.serve.engine import InFlight
from repro.serve.journal import JOURNAL_VERSION, RequestJournal
from repro.serve.server import ServeDaemon, read_endpoint
from repro.sim.config import DefenseConfig, SystemConfig


def small_recipe(workload="add_copy", n_requests=300, seed=0):
    """One cheap single-core task recipe (a few ms to simulate)."""
    system = SystemConfig(n_cores=1, banks_per_channel=8)
    spec = ScenarioSpec.benign(workload, system=system)
    return sweep_task_recipe(spec.recipe(), n_requests, seed)


def unbuildable_recipe():
    """A recipe that parses but whose ExPress tMRO is below tRAS."""
    system = SystemConfig(n_cores=1, banks_per_channel=8)
    defense = DefenseConfig(tracker="graphene", scheme="express", tmro_ns=1.0)
    spec = ScenarioSpec.benign("add_copy", system=system, defense=defense)
    return sweep_task_recipe(spec.recipe(), 300, 0)


def slow_recipe(n_requests=20_000, seed=0):
    """A task long enough (~1s) that waits and polls can observe it."""
    system = SystemConfig(n_cores=1, banks_per_channel=8)
    spec = ScenarioSpec.benign("mcf", system=system)
    return sweep_task_recipe(spec.recipe(), n_requests, seed)


def broken_recipe():
    """A recipe whose simulator construction raises (poisons fast)."""
    return {
        "kind": "sweep-task",
        "scenario": {"bogus": True},
        "n_requests": 10,
        "seed": 0,
    }


def make_engine(tmp_path, **overrides):
    """An engine wired to fresh store/queue/journal under ``tmp_path``."""
    store = store_for(tmp_path)
    kwargs = dict(
        max_inflight=8,
        max_waiters=16,
        queue_watermark=64,
        serial_grace_s=0.05,
        poll_s=0.01,
    )
    queue = FileWorkQueue(
        tmp_path / "queue",
        lease_s=overrides.pop("lease_s", 5.0),
        max_attempts=overrides.pop("max_attempts", 4),
    )
    kwargs.update(overrides)
    journal = RequestJournal(tmp_path / "serve" / "journal")
    engine = RequestEngine(store, queue, journal, **kwargs)
    return engine, store, queue, journal


class TestRequestJournal:
    def test_record_entry_resolve_roundtrip(self, tmp_path):
        journal = RequestJournal(tmp_path / "j")
        recipe = small_recipe()
        key = content_key(recipe)
        assert journal.record(key, recipe) is True
        assert journal.depth() == 1
        entry = journal.entry(key)
        assert entry is not None
        assert entry.recipe == recipe
        assert entry.journaled_at > 0
        assert journal.resolve(key) is True
        assert journal.depth() == 0
        assert journal.entry(key) is None
        assert journal.resolve(key) is False   # already gone

    def test_record_is_idempotent_by_key(self, tmp_path):
        journal = RequestJournal(tmp_path / "j")
        recipe = small_recipe()
        key = content_key(recipe)
        assert journal.record(key, recipe) is True
        assert journal.record(key, recipe) is False
        assert journal.depth() == 1

    def test_entries_sorted_and_tolerant(self, tmp_path):
        journal = RequestJournal(tmp_path / "j")
        a, b = small_recipe("add_copy"), small_recipe("copy")
        journal.record(content_key(a), a)
        journal.record(content_key(b), b)
        (tmp_path / "j" / "torn.json").write_text("{not json")
        entries = journal.entries()
        assert [e.key for e in entries] == sorted(
            [content_key(a), content_key(b)]
        )

    def test_discard_corrupt_drops_only_unreplayable(self, tmp_path):
        journal = RequestJournal(tmp_path / "j")
        recipe = small_recipe()
        journal.record(content_key(recipe), recipe)
        (tmp_path / "j" / "torn.json").write_text("{not json")
        (tmp_path / "j" / "oldver.json").write_text(json.dumps({
            "version": JOURNAL_VERSION + 1, "recipe": {},
        }))
        dropped = journal.discard_corrupt()
        assert sorted(dropped) == ["oldver", "torn"]
        assert journal.depth() == 1

    def test_no_tmp_residue_after_record(self, tmp_path):
        journal = RequestJournal(tmp_path / "j")
        recipe = small_recipe()
        journal.record(content_key(recipe), recipe)
        assert not list((tmp_path / "j").glob("*.tmp"))


class TestEngineExecution:
    def test_miss_matches_serial_byte_for_byte(self, tmp_path):
        recipe = small_recipe()
        serial_store = store_for(tmp_path / "serial")
        run_serial_sweep([recipe], serial_store)
        engine, store, _queue, journal = make_engine(tmp_path / "served")
        entry, disposition = engine.submit(recipe)
        assert disposition == "accepted"
        payload = engine.wait(entry, 60.0)
        assert payload is not None
        key = content_key(recipe)
        assert entry.key == key
        assert (
            store.blob_path(key).read_bytes()
            == serial_store.blob_path(key).read_bytes()
        )
        # The journal entry died only after the blob became durable.
        assert journal.depth() == 0
        assert engine.stats.completed == 1

    def test_second_submit_is_a_store_hit(self, tmp_path):
        recipe = small_recipe()
        engine, _store, _queue, _journal = make_engine(tmp_path)
        first, _ = engine.submit(recipe)
        engine.wait(first, 60.0)
        again, disposition = engine.submit(recipe)
        assert disposition == "hit"
        assert again.done.is_set()
        assert engine.wait(again, 0.0) == first.payload
        assert engine.stats.store_hits == 1

    def test_deadline_bounds_the_wait_not_the_work(self, tmp_path):
        engine, store, _queue, _journal = make_engine(tmp_path)
        recipe = slow_recipe()
        entry, disposition = engine.submit(recipe)
        assert disposition == "accepted"
        assert engine.wait(entry, 0.01) is None      # 202-style
        state, _ = engine.lookup(entry.key)
        assert state in ("pending", "done")
        payload = engine.wait(entry, 60.0)           # work continued
        assert payload is not None
        assert store.get(entry.key) is not None

    def test_poisoned_task_raises_request_failed(self, tmp_path):
        engine, _store, queue, journal = make_engine(
            tmp_path, max_attempts=1,
        )
        entry, _ = engine.submit(broken_recipe())
        with pytest.raises(RequestFailed):
            engine.wait(entry, 60.0)
        assert engine.stats.failed == 1
        # Poison outlives the journal entry (no infinite replay loop)...
        assert journal.depth() == 0
        state, poison = engine.lookup(entry.key)
        assert state == "failed"
        assert poison is not None and "error" in poison

    def test_lookup_states(self, tmp_path):
        engine, store, _queue, journal = make_engine(tmp_path)
        assert engine.lookup("feedfacefeedface") == ("unknown", None)
        recipe = small_recipe()
        key = content_key(recipe)
        # Journaled but not in flight (the post-crash shape): pending.
        journal.record(key, recipe)
        assert engine.lookup(key)[0] == "pending"
        journal.resolve(key)
        entry, _ = engine.submit(recipe)
        engine.wait(entry, 60.0)
        state, payload = engine.lookup(key)
        assert state == "done"
        assert payload == store.get(key)


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_execution(
        self, tmp_path
    ):
        n = 6
        engine, store, _queue, journal = make_engine(tmp_path)
        recipe = slow_recipe(n_requests=8_000)
        barrier = threading.Barrier(n)
        results, errors = [], []

        def one_request():
            barrier.wait()
            try:
                entry, disposition = engine.submit(recipe)
                payload = engine.wait(entry, 60.0)
                results.append((disposition, payload))
            except Exception as exc:   # pragma: no cover - forensics
                errors.append(exc)

        threads = [
            threading.Thread(target=one_request) for _ in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors
        assert len(results) == n
        dispositions = [d for d, _ in results]
        # Exactly one execution was started; everyone else either
        # joined it or (if they lost the race entirely) hit the store.
        assert engine.stats.accepted == 1
        assert dispositions.count("accepted") == 1
        assert set(dispositions) <= {"accepted", "coalesced", "hit"}
        payloads = [p for _, p in results]
        assert all(p == payloads[0] for p in payloads)
        # One blob, one (now-resolved) journal entry.
        assert store.get(content_key(recipe)) is not None
        assert journal.depth() == 0
        assert engine.stats.completed == 1


class TestAdmission:
    def test_draining_sheds_new_work(self, tmp_path):
        engine, _store, _queue, _journal = make_engine(tmp_path)
        engine.draining = True
        with pytest.raises(RequestShed) as excinfo:
            engine.submit(small_recipe())
        assert excinfo.value.reason == "draining"
        assert excinfo.value.retry_after_s > 0
        assert engine.stats.shed == 1

    def test_store_hits_served_even_while_draining(self, tmp_path):
        recipe = small_recipe()
        engine, _store, _queue, _journal = make_engine(tmp_path)
        entry, _ = engine.submit(recipe)
        engine.wait(entry, 60.0)
        engine.draining = True
        again, disposition = engine.submit(recipe)
        assert disposition == "hit"
        assert again.payload is not None

    def test_inflight_watermark_sheds(self, tmp_path):
        engine, _store, _queue, _journal = make_engine(
            tmp_path, max_inflight=0,
        )
        with pytest.raises(RequestShed) as excinfo:
            engine.submit(small_recipe())
        assert "in-flight" in excinfo.value.reason

    def test_queue_watermark_sheds(self, tmp_path):
        engine, _store, queue, _journal = make_engine(
            tmp_path, queue_watermark=1,
        )
        queue.submit(slow_recipe())   # unrelated backlog
        with pytest.raises(RequestShed) as excinfo:
            engine.submit(small_recipe())
        assert "queue" in excinfo.value.reason

    def test_drained_backlog_does_not_shed(self, tmp_path):
        engine, _store, queue, _journal = make_engine(
            tmp_path, queue_watermark=3,
        )
        for seed in (1, 2, 3):
            queue.submit(small_recipe(seed=seed))
        queue.drain()   # bodies stay in tasks/, no work is open
        entry, disposition = engine.submit(small_recipe())
        assert disposition == "accepted"
        assert engine.wait(entry, 60.0) is not None

    def test_waiter_cap_sheds_the_wait(self, tmp_path):
        engine, _store, _queue, _journal = make_engine(
            tmp_path, max_waiters=0,
        )
        entry = InFlight(key="deadbeef", recipe={})
        with pytest.raises(RequestShed) as excinfo:
            engine.wait(entry, 0.01)
        assert "waiter" in excinfo.value.reason


class TestReplay:
    def test_replay_executes_journaled_requests(self, tmp_path):
        recipe = small_recipe()
        key = content_key(recipe)
        engine, store, _queue, journal = make_engine(tmp_path)
        journal.record(key, recipe)   # the post-crash journal shape
        assert engine.replay_journal() == 1
        assert engine.stats.replayed == 1
        deadline = time.monotonic() + 60.0
        while engine.status()["inflight"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert store.get(key) is not None
        assert journal.depth() == 0

    def test_replay_resolves_already_landed_blobs_without_rerun(
        self, tmp_path
    ):
        recipe = small_recipe()
        key = content_key(recipe)
        engine, store, _queue, journal = make_engine(tmp_path)
        run_serial_sweep([recipe], store)   # blob is already durable
        journal.record(key, recipe)         # crash hit before resolve
        assert engine.replay_journal() == 0
        assert journal.depth() == 0
        assert engine.stats.replayed == 0

    def test_replay_discards_corrupt_entries(self, tmp_path):
        engine, _store, _queue, journal = make_engine(tmp_path)
        (journal.root / "torn.json").write_text("{not json")
        assert engine.replay_journal() == 0
        assert journal.depth() == 0


@pytest.fixture
def daemon(tmp_path):
    """An in-process daemon on a fresh port-0 endpoint."""
    daemon = ServeDaemon(
        tmp_path,
        serial_grace_s=0.05,
        max_waiters=16,
    )
    daemon.start()
    daemon.serve_in_thread()
    yield daemon
    daemon.shutdown(drain_timeout_s=30.0)


class TestHTTPDaemon:
    def client(self, daemon, **kwargs):
        host, port = daemon.address
        return ServeClient(host, port, **kwargs)

    def test_healthz_and_endpoint_file(self, daemon, tmp_path):
        client = self.client(daemon)
        assert client.healthz() == {"ok": True, "draining": False}
        endpoint = read_endpoint(tmp_path)
        assert endpoint is not None
        assert (endpoint["host"], endpoint["port"]) == daemon.address

    def test_request_roundtrip_and_hit(self, daemon):
        client = self.client(daemon)
        recipe = small_recipe()
        first = client.request({"recipe": recipe}, deadline_s=60.0)
        assert first.key == content_key(recipe)
        assert first.source == "accepted"
        again = client.request({"recipe": recipe}, deadline_s=60.0)
        assert again.source == "hit"
        assert again.payload == first.payload

    def test_scenario_form_matches_recipe_form(self, daemon):
        client = self.client(daemon)
        system_recipe = small_recipe(n_requests=300, seed=0)
        by_recipe = client.request(
            {"recipe": system_recipe}, deadline_s=60.0
        )
        # The preset form addresses presets from the registry; it
        # must produce the preset's own content key.
        by_name = client.request(
            {"scenario": "benign_add_copy", "n_requests": 60, "seed": 0},
            deadline_s=60.0,
        )
        assert by_name.key != by_recipe.key
        assert by_name.payload

    def test_status_surfaces_the_full_census(self, daemon):
        client = self.client(daemon)
        client.request({"recipe": small_recipe()}, deadline_s=60.0)
        status = client.status()
        for field in (
            "owner", "draining", "degraded", "inflight", "waiters",
            "stats", "admission", "journal_depth", "queue", "store",
        ):
            assert field in status
        assert status["stats"]["received"] >= 1
        assert status["store"]["blobs"] >= 1
        assert status["journal_depth"] == 0
        assert "open_tasks" in status["queue"]

    def test_zero_wait_gets_202_then_poll_completes(self, daemon):
        client = self.client(daemon)
        recipe = slow_recipe(n_requests=6_000)
        code, data = client.call(
            "POST", "/request", {"recipe": recipe, "wait_s": 0}
        )
        assert code == 202
        assert data["status"] == "pending"
        key = data["key"]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            code, data = client.result(key)
            if code == 200:
                break
            assert code == 202
            time.sleep(0.05)
        assert code == 200
        assert data["payload"]

    def test_bad_bodies_get_400(self, daemon):
        client = self.client(daemon)
        assert client.call("POST", "/request", {})[0] == 400
        assert client.call(
            "POST", "/request", {"recipe": "not-a-dict"}
        )[0] == 400
        assert client.call(
            "POST", "/request", {"scenario": "no_such_preset"}
        )[0] == 400

    @pytest.mark.parametrize("n_requests", [0, -3])
    def test_non_positive_n_requests_gets_400(self, daemon, n_requests):
        client = self.client(daemon)
        code, data = client.call(
            "POST", "/request",
            {"scenario": "benign_add_copy", "n_requests": n_requests},
        )
        assert code == 400
        assert data["error"] == (
            f"n_requests must be positive, got {n_requests}"
        )
        assert client.status()["stats"]["accepted"] == 0

    @pytest.mark.parametrize("recipe", [
        small_recipe(n_requests=-5),
        small_recipe(n_requests=0),
        dict(small_recipe(), n_requests="300"),
        dict(small_recipe(), n_requests=True),
        dict(small_recipe(), seed="0"),
        {k: v for k, v in small_recipe().items() if k != "seed"},
        dict(small_recipe(), kind="fuzz-repro"),
        broken_recipe(),
        dict(small_recipe(), scenario=None),
        unbuildable_recipe(),
    ], ids=[
        "n_requests=-5", "n_requests=0", "n_requests-str",
        "n_requests-bool", "seed-str", "no-seed", "other-kind",
        "bogus-scenario", "null-scenario", "tmro-below-tras",
    ])
    def test_unrunnable_recipe_gets_400_and_leaves_no_trace(
        self, daemon, recipe
    ):
        client = self.client(daemon)
        code, data = client.call("POST", "/request", {"recipe": recipe})
        assert code == 400, data
        assert "error" in data
        status = client.status()
        assert status["stats"]["accepted"] == 0
        assert status["journal_depth"] == 0
        assert status["queue"]["total_tasks"] == 0
        assert status["store"]["blobs"] == 0

    def test_unknown_paths_get_404(self, daemon):
        client = self.client(daemon)
        assert client.call("GET", "/nope")[0] == 404
        assert client.call("POST", "/nope", {})[0] == 404
        assert client.result("feedfacefeedface")[0] == 404

    def test_draining_sheds_with_503_and_retry_after(self, daemon):
        client = self.client(daemon)
        daemon.engine.draining = True
        code, data = client.call(
            "POST", "/request", {"recipe": small_recipe()}
        )
        assert code == 503
        assert data["reason"] == "draining"
        assert data["retry_after_s"] > 0
        daemon.engine.draining = False

    def test_inflight_shed_gets_429(self, daemon):
        client = self.client(daemon)
        daemon.engine.max_inflight = 0
        try:
            code, data = client.call(
                "POST", "/request", {"recipe": small_recipe("copy")}
            )
        finally:
            daemon.engine.max_inflight = 8
        assert code == 429
        assert "in-flight" in data["reason"]


class ScriptedClient(ServeClient):
    """A client whose transport is a scripted list of responses."""

    def __init__(self, script):
        super().__init__("test", 0, sleep=self.record_sleep)
        self.script = list(script)
        self.calls = []
        self.sleeps = []

    def record_sleep(self, seconds):
        self.sleeps.append(seconds)

    def call(self, method, path, body=None):
        self.calls.append((method, path))
        # The last step repeats forever (a daemon that keeps saying
        # "pending" while the client's deadline runs out).
        step = (
            self.script.pop(0) if len(self.script) > 1
            else self.script[0]
        )
        if isinstance(step, Exception):
            raise step
        return step


class TestClientRetryLoop:
    def test_survives_dead_socket_shed_and_202(self):
        client = ScriptedClient([
            ConnectionRefusedError("down"),
            (429, {"status": "shed", "retry_after_s": 0.01}),
            (202, {"status": "pending", "key": "k1"}),
            (202, {"status": "pending", "key": "k1"}),
            (200, {"status": "done", "key": "k1", "payload": "p"}),
        ])
        outcome = client.request({"recipe": {}}, deadline_s=30.0)
        assert outcome.payload == "p"
        assert outcome.key == "k1"
        assert outcome.submits == 2   # the shed POST and the accepted one
        assert outcome.polls == 2
        assert outcome.retries == 2   # dead socket + shed
        assert len(client.sleeps) == 4   # error, shed, 2x poll backoff

    def test_404_on_poll_resubmits_idempotently(self):
        client = ScriptedClient([
            (202, {"status": "pending", "key": "k1"}),
            (404, {"status": "unknown", "key": "k1"}),
            (200, {"status": "done", "key": "k1", "payload": "p",
                   "source": "accepted"}),
        ])
        outcome = client.request({"recipe": {}}, deadline_s=30.0)
        assert outcome.payload == "p"
        assert outcome.submits == 2   # the daemon forgot us; resubmitted
        assert outcome.polls == 1

    def test_deadline_exceeded_carries_the_key(self):
        client = ScriptedClient(
            [(202, {"status": "pending", "key": "k1"})]
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            client.request({"recipe": {}}, deadline_s=0.05)
        assert excinfo.value.key == "k1"

    def test_500_raises_serve_error(self):
        client = ScriptedClient([
            (500, {"status": "failed", "error": "poisoned"}),
        ])
        with pytest.raises(ServeError):
            client.request({"recipe": {}}, deadline_s=30.0)

    def test_from_results_dir_requires_endpoint(self, tmp_path):
        with pytest.raises(ServeUnavailable):
            ServeClient.from_results_dir(tmp_path)
