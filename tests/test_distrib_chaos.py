"""Chaos matrix: real worker subprocesses dying at protocol instants.

Each case spawns actual ``repro worker`` subprocesses against a shared
queue directory, injects one fault, and asserts the sweep still
completes with result blobs *byte-identical* to a serial reference run
(computed once per module).  The in-process integration claims live in
``test_distrib_sweep.py``; this file is about what happens when a
worker genuinely dies — ``os._exit`` mid-protocol, a frozen heartbeat,
a corrupted claim file — which cannot be simulated inside pytest's own
process.

Tasks are sized so a 0.5s lease expires under a frozen or killed
worker *mid-task*, making the reclaim path load-bearing rather than
decorative.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.chaos import (
    ChaosReport,
    reap,
    run_chaos_case,
    spawn,
    wait_for_claim,
    worker_command,
)
from repro.distrib.coordinator import run_serial_sweep, shard_points
from repro.distrib.queue import FileWorkQueue
from repro.distrib.worker import (
    KILL_MID_PUT_EXIT,
    KILL_MID_TASK_CYCLE,
    KILL_MID_TASK_EXIT,
)
from repro.results.store import store_for
from repro.scenarios.spec import ScenarioSpec
from repro.sim.config import SystemConfig

pytestmark = pytest.mark.slow

#: Long enough that a 0.5s lease expires mid-simulation, short enough
#: that the whole matrix stays in tens of seconds.
CHAOS_REQUESTS = 60_000
CHAOS_LEASE_S = 0.5
#: A frozen worker's lease runs out ~0.7s after its claim (one beat a
#: third of a lease in, then the lease), so its task must run longer
#: or the freeze is vacuous.  On a 2-core x86 VM a 60_000-request task
#: builds and runs in ~0.5s; a 200_000-request one in ~1.3-1.8s.
FREEZE_REQUESTS = 200_000


def chaos_recipes(n_requests=CHAOS_REQUESTS):
    system = SystemConfig(n_cores=2, banks_per_channel=8)
    specs = [
        ScenarioSpec.benign("mcf", system=system),
        ScenarioSpec.benign("add_copy", system=system),
    ]
    return shard_points(specs, n_requests, 0)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """The serial run every chaos case compares bytes against."""
    store = store_for(tmp_path_factory.mktemp("serial"))
    run_serial_sweep(chaos_recipes(), store)
    return store


def run_case(
    tmp_path, serial_reference, fault, n_workers=2,
    n_requests=CHAOS_REQUESTS,
):
    return run_chaos_case(
        tmp_path,
        chaos_recipes(n_requests),
        fault=fault,
        n_workers=n_workers,
        lease_s=CHAOS_LEASE_S,
        timeout_s=300.0,
        serial_store=serial_reference,
    )


def assert_byte_identical(report):
    assert report.ok, "\n".join(report.summary_lines())
    assert len(report.outcome.results) == 2
    assert not report.mismatched_keys


class TestChaosMatrix:
    def test_fault_free_fleet(self, tmp_path, serial_reference):
        report = run_case(tmp_path, serial_reference, None)
        assert_byte_identical(report)
        assert all(code == 0 for code in report.exit_codes)
        # The fleet did the work: the coordinator never degraded, and
        # every done record names a worker, not the coordinator.
        assert not report.outcome.degraded
        queue = FileWorkQueue(tmp_path / "dist" / "queue")
        owners = {queue.done_record(key)["owner"] for key in report.keys}
        assert "coordinator-serial" not in owners
        assert all(re.fullmatch(r".+:\d+", owner) for owner in owners)

    def test_worker_kill_mid_task(self, tmp_path, serial_reference):
        report = run_case(
            tmp_path, serial_reference, "worker-kill-mid-task"
        )
        assert_byte_identical(report)
        # The saboteur really died mid-simulation, leaving an expired
        # lease behind for the survivor to re-run from scratch; the
        # verdict reads that off its exit code.
        assert report.exit_codes[0] == KILL_MID_TASK_EXIT
        assert report.fault_fired

    def test_fault_that_never_fires_fails_the_case(self, tmp_path):
        # Tasks that finish before the kill cycle never reach it, so
        # the kill-mid-task saboteur finishes normally: a vacuous run.
        report = run_chaos_case(
            tmp_path, chaos_recipes(n_requests=2000),
            fault="worker-kill-mid-task", n_workers=1,
            lease_s=CHAOS_LEASE_S, timeout_s=300.0,
        )
        assert all(
            result.elapsed_cycles < KILL_MID_TASK_CYCLE
            for result in report.outcome.results
        )
        assert report.exit_codes == [0]
        assert not report.mismatched_keys
        assert not report.fault_fired
        assert not report.ok
        assert any("never fired" in line for line in report.summary_lines())

    def test_worker_kill_mid_put(self, tmp_path, serial_reference):
        report = run_case(
            tmp_path, serial_reference, "worker-kill-mid-put"
        )
        assert_byte_identical(report)
        assert report.exit_codes[0] == KILL_MID_PUT_EXIT
        assert report.fault_fired
        # Dying between the temp write and the rename leaves an
        # orphaned *.tmp in the distributed store; gc must report it
        # (dry run) and then remove it without touching the results.
        dist_store = store_for(tmp_path / "dist")
        dry = dist_store.gc(dry_run=True, tmp_grace_s=1e9)
        assert dry.stale_tmp, "expected the torn-write *.tmp orphan"
        assert dry.reclaimable_bytes > 0
        real = dist_store.gc(tmp_grace_s=1e9)
        assert real.stale_tmp
        after = dist_store.gc(dry_run=True, tmp_grace_s=1e9)
        assert not after.stale_tmp
        for key in report.outcome.task_ids:
            assert dist_store.get(key) is not None

    def test_worker_freeze_heartbeat(self, tmp_path):
        # Longer tasks than the module's, so the run computes its own
        # serial reference (serial_store=None).
        report = run_case(
            tmp_path, None, "worker-freeze-heartbeat",
            n_requests=FREEZE_REQUESTS,
        )
        assert_byte_identical(report)
        # The frozen straggler's lease expired and was reclaimed; its
        # own late completion then deduplicated, so every worker still
        # exits cleanly.
        assert report.outcome.reclaimed >= 1
        assert report.fault_fired
        assert all(code == 0 for code in report.exit_codes)

    def test_corrupt_claim_file(self, tmp_path, serial_reference):
        report = run_case(
            tmp_path, serial_reference, "corrupt-claim-file"
        )
        assert_byte_identical(report)
        assert report.fault_fired
        assert report.notes  # records which claim was corrupted


class TestGracefulWorkerShutdown:
    def test_sigterm_finishes_the_task_and_exits_zero(self, tmp_path):
        """SIGTERM = deploy rollover: finish the task, then exit 0."""
        import signal

        queue = FileWorkQueue(tmp_path / "queue", lease_s=30.0)
        for recipe in chaos_recipes():
            queue.submit(recipe)
        proc = spawn(
            worker_command(tmp_path / "queue", tmp_path, 30.0),
            tmp_path / "worker.log",
        )
        try:
            task_id, owner = wait_for_claim(queue, timeout_s=60.0)
            assert [w["owner"] for w in queue.live_workers()] == [owner]
            proc.send_signal(signal.SIGTERM)
            assert reap(proc, 120.0) == 0
        finally:
            reap(proc, 0)
        # The graceful exit retired the worker's presence record.
        assert queue.live_workers() == []
        assert not list((queue.root / "workers").glob("*.json"))
        # The task under way when the signal landed is done (its result
        # blob stored), and the worker claimed nothing after it.
        assert queue.done_record(task_id) is not None
        assert store_for(tmp_path).get(task_id) is not None
        status = queue.status()
        assert (status.done, status.pending, status.claimed) == (1, 1, 0)
        log = (tmp_path / "worker.log").read_text()
        assert "1 task(s) executed" in log
        assert "[graceful shutdown]" in log


class TestSpawnedFleetSweep:
    def test_spawned_workers_announce_before_supervision(
        self, tmp_path, capsys
    ):
        """``--spawn-workers`` waits for the fleet, so it is not degraded."""
        from repro.cli import main

        assert main([
            "sweep", "benign_mcf", "benign_add_copy", "--distributed",
            "--spawn-workers", "1", "--requests", "2000",
            "--serial-grace", "60", "--results-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "(distributed mode)" in out
        queue = FileWorkQueue(tmp_path / "queue")
        owners = {record["owner"] for record in (
            queue.done_record(task_id) for task_id in queue._ids("done")
        )}
        assert len(queue._ids("done")) == 2
        assert "coordinator-serial" not in owners
        assert queue.live_workers() == []


class TestHarnessCore:
    def test_spawn_and_reap_leak_no_resource(self, tmp_path):
        """Under ``-X dev`` a leaked log handle or unreaped child warns."""
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.chaos import reap, spawn\n"
            "proc = spawn([sys.executable, '-c', 'print(1)'],\n"
            "             Path(sys.argv[1]))\n"
            "assert reap(proc, 30.0) == 0\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-c", script, str(tmp_path / "child.log")],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert (tmp_path / "child.log").read_text() == "1\n"

    def test_reap_kills_a_process_that_outlives_its_timeout(self, tmp_path):
        proc = spawn(
            [sys.executable, "-c", "import time; time.sleep(60)"],
            tmp_path / "sleeper.log",
        )
        assert reap(proc, 0.1) is None
        assert proc.returncode is not None
        assert reap(proc, 0) == proc.returncode

    def test_report_needs_fired_fault_and_no_failures(self):
        report = ChaosReport(
            fault="sigkill-after-accept", keys=["k"], mismatched_keys=[],
            exit_codes=[-9, 0], fault_fired=True,
        )
        assert report.ok
        report.failures.append("graceful drain exited 1, want 0")
        assert not report.ok
        report.failures.clear()
        report.fault_fired = False
        assert not report.ok
