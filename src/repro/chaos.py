"""Crash harness: real ``repro`` subprocesses, injected deaths, one oracle.

The oracle is brutally simple and that is the point: run the same task
recipes once serially (no queue, no workers, no daemon) and once under
an injected fault, then compare the result blobs *byte for byte*.
Content addressing makes this possible — serial and faulted executions
of one recipe land on the same ``objects/<key>.json`` path in their
respective stores — and it subsumes every weaker assertion (same
metrics, same counts) at once.

Two cases share one core: :func:`spawn` and :func:`reap` for the
subprocesses, one deadline poll loop, :data:`EXTERNAL_FAULTS`, the
serial reference, and :class:`ChaosReport` as the verdict.

:func:`run_chaos_case` — a fleet of ``repro worker`` subprocesses on
    one queue.  In-process faults (:mod:`repro.security.faults` names,
    passed to ``repro worker --fault``) make the worker die
    mid-simulation, die inside the result blob's atomic write, or
    freeze its heartbeat; they fire at the exact protocol instant every
    time.  External faults SIGKILL the worker holding the first claim
    or overwrite its claim file with garbage.  These exercise the
    reclaim paths no cooperative fault can (the victim gets no chance
    to clean up).

:func:`run_serve_chaos_case` — one ``repro serve`` daemon, killed and
    restarted.  ``serve-kill-mid-request`` (in-process) makes the daemon
    ``os._exit(45)`` immediately after writing the first request's
    journal entry — before any queue submit, any execution, any result
    put — so the journal is the *only* trace the request ever existed.
    ``sigkill-after-accept`` (external) 202-accepts every request, then
    SIGKILLs the daemon with the work in flight.  Either way a restarted
    daemon must replay to completion and then drain clean on SIGTERM.

Both cases serve the test matrices and the CI smokes
(``tools/chaos_smoke.py``, ``tools/serve_smoke.py``).  The module sits
above :mod:`repro.distrib` and :mod:`repro.serve` and is the only one
that spawns ``repro`` subprocesses.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar,
)

from .distrib.coordinator import (
    SweepOutcome,
    run_distributed_sweep,
    run_serial_sweep,
)
from .distrib.queue import FileWorkQueue
from .distrib.worker import KILL_MID_PUT_EXIT, KILL_MID_TASK_EXIT
from .results.store import ResultStore, content_key, store_for
from .serve.client import ServeClient
from .serve.engine import KILL_MID_REQUEST_EXIT
from .serve.journal import RequestJournal
from .serve.server import read_endpoint, serve_dir

T = TypeVar("T")

#: Faults injected by the harness from outside the victim process.  The
#: in-process ones are :data:`repro.security.faults.KNOWN_FAULTS` names.
EXTERNAL_FAULTS = {
    "sigkill-claim-holder":
        "SIGKILL the worker holding the first claim, mid-simulation",
    "corrupt-claim-file":
        "overwrite the first claim file with garbage bytes",
    "sigkill-after-accept":
        "SIGKILL the daemon after every request is journaled and "
        "202-accepted, before the work completes",
}

#: The victim's exit status that proves a kill fault fired: its own
#: ``os._exit`` code for in-process faults, SIGKILL for external ones.
#: The victim is the saboteur worker (spawned first, so it holds the
#: first claim) or the daemon's first life.
_FAULT_EXITS = {
    "worker-kill-mid-task": KILL_MID_TASK_EXIT,
    "worker-kill-mid-put": KILL_MID_PUT_EXIT,
    "serve-kill-mid-request": KILL_MID_REQUEST_EXIT,
    "sigkill-claim-holder": -signal.SIGKILL,
    "sigkill-after-accept": -signal.SIGKILL,
}


# -- the shared core: spawn, reap, poll, reference, verdict ---------------


def _repo_pythonpath() -> str:
    """A PYTHONPATH that resolves :mod:`repro` in a child process."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    return f"{src}{os.pathsep}{existing}" if existing else src


def spawn(argv: Sequence[str], log_path: Path) -> subprocess.Popen:
    """Start one subprocess that can import :mod:`repro`, logging to a file.

    The child gets its own copy of the log handle; the parent's copy is
    closed before this returns, so spawning leaks no file.
    """
    env = dict(os.environ, PYTHONPATH=_repo_pythonpath())
    with open(log_path, "w") as log:
        return subprocess.Popen(
            list(argv), stdout=log, stderr=subprocess.STDOUT, env=env,
        )


def reap(proc: subprocess.Popen, timeout_s: float) -> Optional[int]:
    """``proc``'s exit code, waiting at most ``timeout_s`` for it.

    On timeout the process is killed and waited for again, so it never
    outlives its caller; the result is then None.  ``reap(proc, 0)``
    kills a process that is still running and is a no-op on one that
    has already been reaped.
    """
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def _poll(
    probe: Callable[[], Optional[T]],
    timeout_s: float,
    poll_s: float,
    what: str,
) -> T:
    """Call ``probe`` every ``poll_s`` until it returns non-None.

    Raises ``TimeoutError`` naming ``what`` once ``timeout_s`` has
    passed — the harness fails loudly instead of hanging.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        found = probe()
        if found is not None:
            return found
        time.sleep(poll_s)
    raise TimeoutError(f"timed out after {timeout_s:.1f}s waiting for {what}")


def _serial_reference(
    base_dir: Path,
    recipes: Sequence[Dict[str, Any]],
    serial_store: Optional[ResultStore],
) -> Tuple[List[str], ResultStore]:
    """The unique keys of ``recipes`` and a store with their serial blobs.

    A caller-provided ``serial_store`` already holds the blobs (so a
    test matrix simulates the reference once); otherwise the serial
    sweep runs into ``<base>/serial``.
    """
    unique = {content_key(recipe): recipe for recipe in recipes}
    if serial_store is None:
        serial_store = store_for(base_dir / "serial")
        run_serial_sweep(list(unique.values()), serial_store)
    return list(unique), serial_store


def compare_blobs(
    serial_store: ResultStore,
    dist_store: ResultStore,
    keys: Sequence[str],
) -> List[str]:
    """Keys whose blob *bytes* differ between the two stores.

    Byte equality of the blob files — not just payload equality — is
    the strongest form of the determinism claim: recipe, payload, and
    canonical serialization all agree.
    """
    mismatched = []
    for key in keys:
        try:
            a = serial_store.blob_path(key).read_bytes()
            b = dist_store.blob_path(key).read_bytes()
        except OSError:
            mismatched.append(key)
            continue
        if a != b:
            mismatched.append(key)
    return mismatched


@dataclass
class ChaosReport:
    """One chaos case's verdict and forensics.

    ``exit_codes`` are the workers' (saboteur first) or the daemon's two
    lives'.  ``failures`` lists every broken recovery promise other than
    a blob mismatch; ``outcome`` is the worker case's sweep outcome.
    """

    fault: Optional[str]
    keys: List[str]
    mismatched_keys: List[str]
    exit_codes: List[Optional[int]]
    fault_fired: bool
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    outcome: Optional[SweepOutcome] = None

    @property
    def ok(self) -> bool:
        """Fault fired, every promise held, every blob byte-identical."""
        return (
            self.fault_fired
            and not self.mismatched_keys
            and not self.failures
        )

    def summary_lines(self) -> List[str]:
        head = (
            f"chaos[{self.fault or 'none'}]: "
            f"{'OK' if self.ok else 'FAIL'} — {len(self.keys)} key(s), "
            f"exits {self.exit_codes}"
        )
        if self.outcome is not None:
            head += f", {self.outcome.reclaimed} reclaim(s)"
        lines = [head]
        if not self.fault_fired:
            lines.append("  the injected fault never fired (vacuous run)")
        for key in self.mismatched_keys:
            lines.append(f"  blob {key} differs from the serial run")
        lines.extend(f"  failed: {failure}" for failure in self.failures)
        lines.extend(f"  {note}" for note in self.notes)
        return lines


# -- the worker case ---------------------------------------------------------


def worker_command(
    queue_dir: Path,
    results_dir: Path,
    lease_s: float,
    fault: Optional[str] = None,
    idle_exit_s: float = 15.0,
) -> List[str]:
    """The ``repro worker`` argv for one subprocess worker."""
    cmd = [
        sys.executable, "-m", "repro.cli", "worker",
        "--queue-dir", str(queue_dir),
        "--results-dir", str(results_dir),
        "--lease", str(lease_s),
        "--idle-exit", str(idle_exit_s),
    ]
    if fault is not None:
        cmd += ["--fault", fault]
    return cmd


def wait_for_claim(
    queue: FileWorkQueue, timeout_s: float = 30.0, poll_s: float = 0.02
) -> Tuple[str, str]:
    """Block until any task is claimed; returns ``(task_id, owner)``.

    Raises ``TimeoutError`` if no worker ever claims — the harness's
    way of failing loudly when the fleet never started.
    """
    def claimed() -> Optional[Tuple[str, str]]:
        for lease in queue.status().leases:
            if "owner" in lease:
                return lease["task_id"], str(lease["owner"])
        return None

    return _poll(
        claimed, timeout_s, poll_s, "a task claim — did the workers start?"
    )


def sigkill_owner(owner: str) -> bool:
    """SIGKILL the process a ``host:pid`` lease owner names (same host)."""
    try:
        os.kill(int(owner.rsplit(":", 1)[1]), signal.SIGKILL)
    except (IndexError, ValueError, ProcessLookupError, PermissionError):
        return False
    return True


def corrupt_claim(queue: FileWorkQueue, task_id: str) -> bool:
    """Overwrite a claim file with garbage (a torn/flipped-bit write)."""
    path = queue._path("claimed", task_id)
    if not path.is_file():
        return False
    path.write_text("{torn json \x00\x01")
    # Backdate the mtime so the corrupt-grace reclaim fires immediately
    # instead of waiting out the grace window.
    stamp = time.time() - max(queue.corrupt_grace_s, queue.lease_s) - 1.0
    os.utime(path, (stamp, stamp))
    return True


def run_chaos_case(
    base_dir: Path,
    recipes: Sequence[Dict[str, Any]],
    fault: Optional[str] = None,
    n_workers: int = 2,
    lease_s: float = 1.5,
    timeout_s: float = 180.0,
    serial_store: Optional[ResultStore] = None,
) -> ChaosReport:
    """Run one full worker chaos experiment under ``base_dir``.

    Serial reference in ``<base>/serial`` (or a caller-provided
    ``serial_store``), distributed run (queue + store + worker logs) in
    ``<base>/dist``.  ``fault`` is an in-process worker fault (given to
    exactly one worker — the *saboteur*) or an :data:`EXTERNAL_FAULTS`
    name (injected here once the saboteur claims); None runs
    fault-free.

    The first worker (the saboteur, when a fault is requested) is
    spawned *first* and the others only after its first claim appears
    — otherwise a fast clean worker could drain the queue before the
    fault ever fires, and a sweep that started before any worker
    announced itself would degrade and do the work in-process.
    Whether the fault fired is read off the saboteur, never assumed:
    its exit status for the kills, a reclaim of its lease for a frozen
    heartbeat, a successful overwrite for a corrupted claim.  The
    distributed store is fresh, so every blob byte compared at the end
    was written by the distributed machinery under fire.
    """
    base_dir = Path(base_dir)
    keys, serial_store = _serial_reference(base_dir, recipes, serial_store)
    dist_dir = base_dir / "dist"
    queue = FileWorkQueue(
        dist_dir / "queue", lease_s=lease_s, corrupt_grace_s=0.5,
    )
    dist_store = store_for(dist_dir)
    for recipe in recipes:
        queue.submit(recipe)

    worker_fault = None if fault in EXTERNAL_FAULTS else fault
    fault_fired = fault is None
    notes: List[str] = []
    workers: List[subprocess.Popen] = []

    def _spawn(index: int, worker_fault_name: Optional[str]) -> None:
        workers.append(spawn(
            worker_command(
                dist_dir / "queue", dist_dir, lease_s,
                fault=worker_fault_name,
            ),
            dist_dir / f"worker-{index}.log",
        ))

    try:
        _spawn(0, worker_fault)   # the saboteur (clean if fault is None)
        task_id, owner = wait_for_claim(queue)
        if fault == "sigkill-claim-holder":
            notes.append(
                f"SIGKILLed {owner} holding {task_id}"
                if sigkill_owner(owner) else f"could not kill {owner}"
            )
        elif fault == "corrupt-claim-file":
            fault_fired = corrupt_claim(queue, task_id)
            notes.append(
                f"corrupted claim of {task_id} (owner {owner})"
                if fault_fired else f"claim of {task_id} already gone"
            )
        for i in range(1, n_workers):
            _spawn(i, None)
        # Default grace: a fleet whose every worker died (or a sole
        # worker SIGKILLed holding its claim) must end in degraded
        # in-process execution, not a timeout.
        outcome = run_distributed_sweep(
            recipes, queue, dist_store,
            timeout_s=timeout_s,
        )
    finally:
        exit_codes = [reap(proc, 30.0) for proc in workers]

    if fault in _FAULT_EXITS:
        fault_fired = exit_codes[0] == _FAULT_EXITS[fault]
    elif fault == "worker-freeze-heartbeat":
        fault_fired = outcome.reclaimed >= 1
    return ChaosReport(
        fault=fault,
        keys=keys,
        mismatched_keys=compare_blobs(serial_store, dist_store, keys),
        exit_codes=exit_codes,
        fault_fired=fault_fired,
        notes=notes,
        outcome=outcome,
    )


# -- the serve case ----------------------------------------------------------


def serve_command(
    results_dir: Path,
    port: int = 0,
    lease_s: float = 1.5,
    serial_grace_s: float = 0.5,
    fault: Optional[str] = None,
) -> List[str]:
    """The ``repro serve`` argv for one daemon subprocess."""
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--results-dir", str(results_dir),
        "--port", str(port),
        "--lease", str(lease_s),
        "--serial-grace", str(serial_grace_s),
    ]
    if fault is not None:
        cmd += ["--fault", fault]
    return cmd


def wait_for_endpoint(
    results_dir: Path,
    pid: int,
    timeout_s: float = 30.0,
    poll_s: float = 0.05,
) -> Dict[str, Any]:
    """Block until *this* daemon (by pid) advertises its endpoint.

    Matching on pid matters after a restart: the killed daemon's stale
    endpoint file is still on disk, and connecting to its dead port
    would make the harness flake.
    """
    def advertised() -> Optional[Dict[str, Any]]:
        endpoint = read_endpoint(results_dir)
        if endpoint is not None and endpoint.get("pid") == pid:
            return endpoint
        return None

    return _poll(
        advertised, timeout_s, poll_s,
        f"daemon pid {pid} to advertise an endpoint under {results_dir}",
    )


def poll_until_done(
    client: ServeClient,
    key: str,
    timeout_s: float,
    poll_s: float = 0.1,
) -> Dict[str, Any]:
    """Re-poll ``/result/<key>`` until 200; tolerate transient errors.

    A 500 means the key is poisoned and raises ``AssertionError`` at
    once instead of waiting out the deadline.
    """
    def done() -> Optional[Dict[str, Any]]:
        try:
            code, data = client.result(key)
        except (OSError, http.client.HTTPException):
            return None
        if code == 500:
            raise AssertionError(f"key {key} poisoned: {data}")
        return data if code == 200 else None

    return _poll(done, timeout_s, poll_s, f"key {key} to finish")


def _connect(results_dir: Path, pid: int, timeout_s: float) -> ServeClient:
    """A client for the daemon ``pid`` once it advertises its endpoint."""
    endpoint = wait_for_endpoint(results_dir, pid, timeout_s)
    return ServeClient(endpoint["host"], endpoint["port"], timeout_s=10.0)


def _post_all(
    client: ServeClient, recipes: Sequence[Dict[str, Any]]
) -> List[str]:
    """POST every recipe at once with ``wait_s=0``; the failed accepts.

    Identical recipes race into the daemon together, which is what
    exercises coalescing onto one journal entry and one execution.
    """
    def post(recipe: Dict[str, Any]) -> Any:
        try:
            return client.call(
                "POST", "/request", {"recipe": recipe, "wait_s": 0},
            )
        except (OSError, http.client.HTTPException) as exc:
            return exc

    with ThreadPoolExecutor(max_workers=max(1, len(recipes))) as pool:
        responses = list(pool.map(post, recipes))
    return [
        f"request {i} not accepted (want 200/202): {response}"
        for i, response in enumerate(responses)
        if not (isinstance(response, tuple) and response[0] in (200, 202))
    ]


def run_serve_chaos_case(
    base_dir: Path,
    recipes: Sequence[Dict[str, Any]],
    fault: str = "serve-kill-mid-request",
    timeout_s: float = 120.0,
    serial_grace_s: float = 0.5,
    serial_store: Optional[ResultStore] = None,
) -> ChaosReport:
    """Run one full serve chaos experiment under ``base_dir``.

    Serial reference in ``<base>/serial`` (or a caller-provided
    ``serial_store``), the daemon's world (store + queue + journal) in
    ``<base>/daemon``, each life's log in ``<base>/daemon-<n>.log``.
    No workers are spawned: the daemon's own sticky-degraded execution
    does the computing, which keeps the case about the *journal*, not
    the fleet.  Duplicate recipes are welcome: they must coalesce onto
    one journal entry and one blob.

    Besides byte identity, the verdict's ``failures`` name every broken
    recovery promise:

    * a request not accepted with 200/202;
    * after the kill, a journal not holding exactly the accepted keys
      (only the first under ``serve-kill-mid-request``, which must also
      have stored no blob yet);
    * a drain that does not exit 0 with an empty journal and the
      endpoint file retired;
    * a store whose objects are not exactly the keys' blobs.
    """
    base_dir = Path(base_dir)
    keys, serial_store = _serial_reference(base_dir, recipes, serial_store)
    daemon_dir = base_dir / "daemon"
    daemon_dir.mkdir(parents=True, exist_ok=True)
    journal = RequestJournal(serve_dir(daemon_dir) / "journal")
    store = store_for(daemon_dir)
    internal = fault not in EXTERNAL_FAULTS
    failures: List[str] = []
    notes: List[str] = []

    def _spawn(life: int, daemon_fault: Optional[str]) -> subprocess.Popen:
        return spawn(
            serve_command(
                daemon_dir, serial_grace_s=serial_grace_s,
                fault=daemon_fault,
            ),
            base_dir / f"daemon-{life}.log",
        )

    # -- first life: accept, then die --------------------------------------
    first = _spawn(1, fault if internal else None)
    try:
        client = _connect(daemon_dir, first.pid, timeout_s)
        if internal:
            # The first POST dies mid-handshake: journal written, then
            # os._exit(45).  The client sees a dead socket.
            try:
                client.call(
                    "POST", "/request",
                    {"recipe": recipes[0], "wait_s": 5.0},
                )
                notes.append("first POST answered — fault did not fire?")
            except (OSError, http.client.HTTPException):
                pass
            accepted = keys[:1]
        else:
            # Accept everything (wait_s=0 → 202), then SIGKILL.
            failures += _post_all(client, recipes)
            first.send_signal(signal.SIGKILL)
            accepted = keys
        first_exit = reap(first, 30.0)
    finally:
        reap(first, 0)

    journaled = sorted(entry.key for entry in journal.entries())
    if journaled != sorted(accepted):
        failures.append(
            f"journal after the kill holds {journaled}, want exactly "
            f"{sorted(accepted)} — coalescing or the write-ahead "
            "discipline is broken"
        )
    if internal:
        early = [key for key in keys if store.get(key) is not None]
        if early:
            failures.append(f"blobs {early} stored before the replay")

    # -- second life: replay + fresh submissions finish, then drain -------
    second = _spawn(2, None)
    try:
        client = _connect(daemon_dir, second.pid, timeout_s)
        if internal:
            # Only the first recipe was ever journaled; submit the
            # rest as fresh requests against the recovered daemon.
            failures += _post_all(client, recipes[1:])
        for key in keys:
            poll_until_done(client, key, timeout_s)
        second.send_signal(signal.SIGTERM)
        drain_exit = reap(second, timeout_s)
    finally:
        reap(second, 0)

    if drain_exit != 0:
        failures.append(f"graceful drain exited {drain_exit}, want 0")
    if journal.depth():
        failures.append(f"{journal.depth()} journal entries left after drain")
    if read_endpoint(daemon_dir) is not None:
        failures.append("endpoint file not retired on clean shutdown")
    blobs = sorted(path.stem for path in store.objects_dir.glob("*.json"))
    if blobs != sorted(keys):
        failures.append(f"store holds {blobs}, want exactly {sorted(keys)}")
    return ChaosReport(
        fault=fault,
        keys=keys,
        mismatched_keys=compare_blobs(serial_store, store, keys),
        exit_codes=[first_exit, drain_exit],
        fault_fired=(
            fault in _FAULT_EXITS and first_exit == _FAULT_EXITS[fault]
        ),
        failures=failures,
        notes=notes,
    )
