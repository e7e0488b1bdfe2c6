"""Serve-daemon chaos: real SIGKILLs, restarts, and graceful drains.

These spawn actual ``repro serve`` subprocesses (which is why they
cannot live in ``test_serve.py`` — ``os._exit`` would take pytest down
with it) and assert the acceptance criteria of the serving layer:

* ``serve-kill-mid-request``: the daemon dies (exit 45) between the
  journal write and any execution; the journal holds exactly the one
  accepted key and the store holds no blob; a restarted daemon replays
  the entry to completion with a result blob *byte-identical* to a
  serial run, and then drains clean on SIGTERM (exit 0, empty journal).
* ``sigkill-after-accept``: every request is 202-accepted and the
  daemon is SIGKILLed mid-flight; restart + replay completes all keys.

The journal, blob, drain and store checks of both cases are the
harness verdict's ``failures`` (:func:`repro.chaos.run_serve_chaos_case`);
``report.ok`` asserts them all.
* graceful drain: SIGTERM with a request in flight exits 0 with an
  empty in-flight set and the request answered (blob durable) — an
  accepted request is never silently dropped.
"""

import signal
import time

import pytest

from repro.distrib.coordinator import run_serial_sweep
from repro.distrib.worker import sweep_task_recipe
from repro.results.store import content_key, store_for
from repro.scenarios.spec import ScenarioSpec
from repro.chaos import (
    reap,
    run_serve_chaos_case,
    serve_command,
    spawn,
    wait_for_endpoint,
)
from repro.serve.client import ServeClient
from repro.serve.engine import KILL_MID_REQUEST_EXIT
from repro.serve.journal import RequestJournal
from repro.serve.server import serve_dir
from repro.sim.config import SystemConfig

pytestmark = pytest.mark.slow

#: Sized so a request takes long enough (~1s) to be killed mid-flight
#: but the whole file stays in tens of seconds.
SERVE_CHAOS_REQUESTS = 20_000


def chaos_recipes():
    system = SystemConfig(n_cores=1, banks_per_channel=8)
    specs = [
        ScenarioSpec.benign("mcf", system=system),
        ScenarioSpec.benign("add_copy", system=system),
    ]
    return [
        sweep_task_recipe(spec.recipe(), SERVE_CHAOS_REQUESTS, 0)
        for spec in specs
    ]


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """The serial run every serve chaos case compares bytes against."""
    store = store_for(tmp_path_factory.mktemp("serial"))
    run_serial_sweep(chaos_recipes(), store)
    return store


class TestServeChaos:
    def test_kill_mid_request_replays_byte_identical(
        self, tmp_path, serial_reference
    ):
        report = run_serve_chaos_case(
            tmp_path, chaos_recipes(),
            fault="serve-kill-mid-request",
            timeout_s=120.0,
            serial_store=serial_reference,
        )
        # ``ok`` includes the kill window's signature: the request
        # exists only in the journal — exactly one entry, zero result
        # blobs — and the drain leaves the journal empty.
        assert report.ok, "\n".join(report.summary_lines())
        assert report.fault_fired
        assert report.exit_codes == [KILL_MID_REQUEST_EXIT, 0]
        assert not report.failures
        assert not report.mismatched_keys

    def test_sigkill_after_accept_replays_all_keys(
        self, tmp_path, serial_reference
    ):
        recipes = chaos_recipes()
        report = run_serve_chaos_case(
            tmp_path, recipes,
            fault="sigkill-after-accept",
            timeout_s=120.0,
            serial_store=serial_reference,
        )
        # ``ok`` includes: every accepted request was journaled before
        # the SIGKILL, and the drain leaves the journal empty.
        assert report.ok, "\n".join(report.summary_lines())
        assert report.exit_codes == [-signal.SIGKILL, 0]
        assert report.keys == [content_key(r) for r in recipes]
        assert not report.failures
        assert not report.mismatched_keys


class TestGracefulDrain:
    def test_sigterm_with_inflight_request_drains_and_exits_zero(
        self, tmp_path, serial_reference
    ):
        recipe = chaos_recipes()[0]
        key = content_key(recipe)
        proc = spawn(serve_command(tmp_path), tmp_path / "daemon.log")
        try:
            endpoint = wait_for_endpoint(tmp_path, proc.pid, 30.0)
            client = ServeClient(
                endpoint["host"], endpoint["port"], timeout_s=10.0
            )
            code, data = client.call(
                "POST", "/request", {"recipe": recipe, "wait_s": 0}
            )
            assert code == 202, (code, data)
            # SIGTERM with the request in flight: stop accepting,
            # finish the work, exit 0.
            proc.send_signal(signal.SIGTERM)
            assert reap(proc, 120.0) == 0
        finally:
            reap(proc, 0)
        store = store_for(tmp_path)
        journal = RequestJournal(serve_dir(tmp_path) / "journal")
        # The accepted request was answered, not dropped: blob durable,
        # journal empty, bytes identical to the serial reference.
        assert store.get(key) is not None
        assert journal.depth() == 0
        assert (
            store.blob_path(key).read_bytes()
            == serial_reference.blob_path(key).read_bytes()
        )

    def test_sigterm_idle_daemon_exits_zero_quickly(self, tmp_path):
        proc = spawn(serve_command(tmp_path), tmp_path / "daemon.log")
        try:
            wait_for_endpoint(tmp_path, proc.pid, 30.0)
            proc.send_signal(signal.SIGTERM)
            assert reap(proc, 30.0) == 0
        finally:
            reap(proc, 0)
        # The endpoint advertisement is retired on clean shutdown.
        from repro.serve.server import read_endpoint

        deadline = time.monotonic() + 5.0
        while read_endpoint(tmp_path) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert read_endpoint(tmp_path) is None
