"""Chaos harness: real worker subprocesses, injected deaths, one oracle.

The oracle is brutally simple and that is the point: run the same task
recipes once serially (no queue, no workers) and once distributed
under an injected fault, then compare the result blobs *byte for
byte*.  Content addressing makes this possible — serial and
distributed executions of one recipe land on the same
``objects/<key>.json`` path in their respective stores — and it
subsumes every weaker assertion (same metrics, same counts) at once.

Faults come in two flavors:

* **In-process** (:mod:`repro.security.faults` names, passed to
  ``repro worker --fault``): the worker itself dies after its first
  checkpoint, dies inside the result blob's atomic write, or freezes
  its heartbeat.  Deterministic — the fault fires at the exact
  protocol instant every time.
* **External** (this module's doing): SIGKILL the worker that holds
  the first claim, or overwrite its claim file with garbage.  These
  exercise the reclaim paths no cooperative fault can (the victim gets
  no chance to clean up).

:func:`run_chaos_case` packages the whole experiment — serial
reference, worker fleet, fault injection, supervision, byte
comparison — for both the test matrix and ``tools/chaos_smoke.py``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..results.store import ResultStore, content_key, store_for
from .coordinator import (
    SweepOutcome,
    run_distributed_sweep,
    run_serial_sweep,
)
from .queue import FileWorkQueue

#: External fault names (injected by the harness, not the worker).
EXTERNAL_FAULTS = {
    "sigkill-claim-holder":
        "SIGKILL the worker holding the first claim, mid-simulation",
    "corrupt-claim-file":
        "overwrite the first claim file with garbage bytes",
}


def _repo_pythonpath() -> str:
    """A PYTHONPATH that resolves :mod:`repro` in a child process."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    return f"{src}{os.pathsep}{existing}" if existing else src


def worker_command(
    queue_dir: Path,
    results_dir: Path,
    lease_s: float,
    checkpoint_stride: int,
    fault: Optional[str] = None,
    idle_exit_s: float = 15.0,
) -> List[str]:
    """The ``repro worker`` argv for one subprocess worker."""
    cmd = [
        sys.executable, "-m", "repro.cli", "worker",
        "--queue-dir", str(queue_dir),
        "--results-dir", str(results_dir),
        "--lease", str(lease_s),
        "--checkpoint-stride", str(checkpoint_stride),
        "--idle-exit", str(idle_exit_s),
    ]
    if fault is not None:
        cmd += ["--fault", fault]
    return cmd


def spawn_worker(
    queue_dir: Path,
    results_dir: Path,
    lease_s: float,
    checkpoint_stride: int,
    fault: Optional[str] = None,
    idle_exit_s: float = 15.0,
    log_path: Optional[Path] = None,
) -> subprocess.Popen:
    """Start one real ``repro worker`` subprocess (logs to a file)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _repo_pythonpath()
    log = open(log_path, "w") if log_path is not None else subprocess.DEVNULL
    return subprocess.Popen(
        worker_command(
            queue_dir, results_dir, lease_s, checkpoint_stride,
            fault=fault, idle_exit_s=idle_exit_s,
        ),
        stdout=log, stderr=subprocess.STDOUT, env=env,
    )


def wait_for_claim(
    queue: FileWorkQueue, timeout_s: float = 30.0, poll_s: float = 0.02
) -> Tuple[str, str]:
    """Block until any task is claimed; returns ``(task_id, owner)``.

    Raises ``TimeoutError`` if no worker ever claims — the harness's
    way of failing loudly when the fleet never started.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for lease in queue.status().leases:
            if "owner" in lease:
                return lease["task_id"], str(lease["owner"])
        time.sleep(poll_s)
    raise TimeoutError(
        f"no task claimed within {timeout_s:.1f}s — did the workers start?"
    )


def owner_pid(owner: str) -> Optional[int]:
    """The pid embedded in a ``host:pid`` lease-owner string."""
    try:
        return int(owner.rsplit(":", 1)[1])
    except (IndexError, ValueError):
        return None


def sigkill_owner(owner: str) -> bool:
    """SIGKILL the process a lease owner string names (same host)."""
    pid = owner_pid(owner)
    if pid is None:
        return False
    try:
        os.kill(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
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
    """One chaos case's verdict and forensics."""

    fault: Optional[str]
    outcome: SweepOutcome
    mismatched_keys: List[str]
    worker_exit_codes: List[Optional[int]]
    fault_fired: bool = True
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Sweep completed with every blob byte-identical to serial."""
        return not self.mismatched_keys

    def summary_lines(self) -> List[str]:
        lines = [
            f"chaos[{self.fault or 'none'}]: "
            f"{'OK' if self.ok else 'MISMATCH'} — "
            f"{len(self.outcome.results)} task(s), "
            f"worker exits {self.worker_exit_codes}, "
            f"{self.outcome.reclaimed} reclaim(s)"
        ]
        for key in self.mismatched_keys:
            lines.append(f"  blob {key} differs from the serial run")
        lines.extend(f"  {note}" for note in self.notes)
        return lines


def run_chaos_case(
    base_dir: Path,
    recipes: Sequence[Dict[str, Any]],
    fault: Optional[str] = None,
    n_workers: int = 2,
    lease_s: float = 1.5,
    checkpoint_stride: int = 20_000,
    timeout_s: float = 180.0,
    serial_store: Optional[ResultStore] = None,
) -> ChaosReport:
    """Run one full chaos experiment under ``base_dir``.

    Serial reference in ``<base>/serial`` (or a caller-provided
    ``serial_store`` already holding the blobs, so a test matrix
    simulates the reference once), distributed run (queue + store +
    worker logs) in ``<base>/dist``.  ``fault`` is an in-process
    worker fault (given to exactly one worker — the *saboteur*) or an
    :data:`EXTERNAL_FAULTS` name (injected here once the saboteur
    claims); None runs fault-free.

    When a fault is requested the saboteur is spawned *first* and the
    clean workers only after its first claim appears — otherwise a
    fast clean worker could drain the queue before the fault ever
    fires, and the case would pass vacuously.  The distributed store
    is fresh, so every blob byte compared at the end was written by
    the distributed machinery under fire.
    """
    base_dir = Path(base_dir)
    keys = [content_key(recipe) for recipe in recipes]
    if serial_store is None:
        serial_store = store_for(base_dir / "serial")
        run_serial_sweep(recipes, serial_store)

    dist_dir = base_dir / "dist"
    queue = FileWorkQueue(
        dist_dir / "queue", lease_s=lease_s, corrupt_grace_s=0.5,
    )
    dist_store = store_for(dist_dir)
    for recipe in recipes:
        queue.submit(recipe)

    external = fault in EXTERNAL_FAULTS
    worker_fault = None if external else fault
    notes: List[str] = []
    workers: List[subprocess.Popen] = []

    def _spawn(index: int, worker_fault_name: Optional[str]) -> None:
        workers.append(spawn_worker(
            dist_dir / "queue", dist_dir, lease_s, checkpoint_stride,
            fault=worker_fault_name,
            log_path=dist_dir / f"worker-{index}.log",
        ))

    try:
        _spawn(0, worker_fault)   # the saboteur (clean if fault is None)
        fault_fired = True
        if fault is not None:
            task_id, owner = wait_for_claim(queue)
            if fault == "sigkill-claim-holder":
                fault_fired = sigkill_owner(owner)
                notes.append(
                    f"SIGKILLed {owner} holding {task_id}"
                    if fault_fired else f"could not kill {owner}"
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
            checkpoint_stride=checkpoint_stride,
        )
    finally:
        exit_codes: List[Optional[int]] = []
        for proc in workers:
            try:
                exit_codes.append(proc.wait(timeout=30.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                exit_codes.append(None)

    mismatched = compare_blobs(serial_store, dist_store, keys)
    return ChaosReport(
        fault=fault,
        outcome=outcome,
        mismatched_keys=mismatched,
        worker_exit_codes=exit_codes,
        fault_fired=fault_fired,
        notes=notes,
    )
