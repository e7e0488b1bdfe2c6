"""Test-only defense-fault injection registry.

The invariant engine (:mod:`repro.security.invariants`) and the scenario
fuzzer (:mod:`repro.scenarios.fuzz`) are validated end to end by
*planting* a known defense bug and asserting the fuzzer finds it,
shrinks it and stores a replayable reproducer.  The plant lives here:
a process-local set of active fault names that defense construction
code consults.

Faults are keyed by name so they stay out of the recipe/config surface
(adding a field to ``DefenseConfig`` would change every content-store
key).  Nothing in a production run ever activates one; the registry is
empty unless a test or ``repro fuzz --fault`` turns a fault on.

Known faults:

``lax-tmro``
    :meth:`DefenseConfig.express_tmro_cycles` returns 4x the configured
    tMRO, so the controller enforces a far weaker row-open limit than
    the tracker provisioning assumed.  The invariant monitor computes
    the *intended* tMRO independently from the raw nanosecond figure,
    so any workload that holds a row open between the intended and the
    lax limit trips the ``tmro-deadline`` invariant.

**Process-layer faults** extend the same registry into the distributed
sweep runtime (:mod:`repro.distrib`): instead of a wrong number, the
planted bug is a crash or a stall at a protocol-critical instant.  The
chaos harness injects them into *worker processes* (``repro worker
--fault ...``) and asserts the sweep still completes with results
bit-identical to a serial run:

``worker-kill-mid-task``
    The worker ``os._exit``\\ s once its simulation reaches
    :data:`~repro.distrib.worker.KILL_MID_TASK_CYCLE` — a
    SIGKILL-equivalent death mid-simulation, leaving an expired-lease
    claim behind for another worker to re-run from scratch.  A task
    that finishes before that cycle never triggers it.

``worker-kill-mid-put``
    The worker dies *inside* the result store's atomic write, between
    the temp-file write and the rename — the torn-write window.  The
    store must read clean (the blob is simply missing) and ``gc`` must
    sweep the orphaned temp file.

``worker-freeze-heartbeat``
    The worker's heartbeat thread stops refreshing the lease after the
    first beat while the simulation keeps running — a straggler whose
    lease expires under it.  The task is reclaimed and re-run
    elsewhere; the frozen worker's late result deduplicates by content
    key.

``serve-kill-mid-request``
    The ``repro serve`` daemon ``os._exit``\\ s immediately after
    writing a request's journal entry, before submitting or executing
    anything — the exact window the write-ahead journal exists for.
    A restarted daemon must replay the entry to completion with a
    result blob byte-identical to a serial run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: Fault names the registry accepts, mapped to one-line descriptions.
KNOWN_FAULTS = {
    "lax-tmro": "express_tmro_cycles returns 4x the configured tMRO",
    "worker-kill-mid-task":
        "worker process dies mid-simulation, at a fixed cycle",
    "worker-kill-mid-put":
        "worker dies between the result blob's temp write and rename",
    "worker-freeze-heartbeat":
        "worker's lease heartbeat freezes after the first beat",
    "serve-kill-mid-request":
        "serve daemon dies after the journal write, before any "
        "execution or result put",
}

#: Enforcement factor the ``lax-tmro`` fault applies.
LAX_TMRO_FACTOR = 4

_active: set = set()


def fault_active(name: str) -> bool:
    """True when ``name`` has been injected (hot path: one set probe)."""
    return name in _active


def inject(name: str) -> None:
    """Activate a known fault process-wide until :func:`clear`."""
    if name not in KNOWN_FAULTS:
        raise ValueError(
            f"unknown fault {name!r}; known: {sorted(KNOWN_FAULTS)}"
        )
    _active.add(name)


def clear(name: str | None = None) -> None:
    """Deactivate one fault, or every fault when ``name`` is None."""
    if name is None:
        _active.clear()
    else:
        _active.discard(name)


def active_faults() -> tuple:
    """Currently injected fault names, sorted (for run metadata)."""
    return tuple(sorted(_active))


@contextmanager
def injected(name: str) -> Iterator[None]:
    """Scope a fault to a ``with`` block (always deactivates on exit)."""
    inject(name)
    try:
        yield
    finally:
        clear(name)
