"""Discrete-event system simulator: cores -> controllers -> banks.

The fast engine: an event loop at DRAM-clock granularity over the
shell both engines share (:mod:`repro.sim.core`), which wires the
trace-driven cores to one :class:`ChannelController` per channel and
collects the result.  Three event kinds circulate:

* ``core`` — a core tries to issue its next request;
* ``bank`` — a bank may have work (demand, refresh, RFM, mitigation);
* ``done`` — a request's data returned, the core retires it.

The run ends when every core has retired its whole trace; open rows are
then flushed so ImPress-P records their final EACTs.

**Hot-path engineering** (see ``docs/performance.md``):

* Events are single packed ints — ``(cycle, seq, kind, payload)``
  squeezed into one integer whose ordering matches the old 4-tuple's.
  Each heap sift does one int comparison instead of an element-wise
  tuple comparison, and no per-event tuple is allocated (the packed
  values exceed one machine word, but a single bignum compare still
  beats tuple protocol dispatch).
* Bank wakeups are deduplicated: at most one *live* heap entry exists
  per bank at any time (``_bank_wake`` tracks its cycle); redundant
  same-cycle or later wakeups are dropped at push time and superseded
  entries are skipped at pop time.  The original engine pushed a new
  wakeup chain per enqueue, which grew the event count ~40x beyond the
  useful work.
* Traces are pre-compiled to ``(channel, bank, row)`` arrays once per
  ``(trace, mapper)`` via :mod:`repro.workloads.compiled`, so the issue
  path does list indexing instead of per-request address arithmetic.
* An issued request is one packed int (``row | core_id | is_write``,
  :mod:`repro.memctrl.request`) appended straight to its bank's
  queue; the issue path reads only the compiled rows, flat banks,
  write flags and gaps, and builds no per-request object.
* A bank event allocates nothing: :meth:`ChannelController.step`
  returns the next wake as an int, and the controller's
  ``done_core``/``done_cycle`` become the DONE event directly.

Behavior is bit-identical to :class:`repro.sim.reference.ReferenceSimulator`
(the preserved original loop); ``tests/test_engine_equivalence.py``
enforces it across seeded workload/defense matrices.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

from ..memctrl.controller import BANK_QUEUE_CAPACITY
from ..memctrl.request import CORE_ID_BITS, ROW_SHIFT
from ..workloads.compiled import CompiledTrace, compile_traces, mapper_key
from ..workloads.trace import Trace
from .config import DefenseConfig, SystemConfig
from .core import (
    EVENT_BANK,
    EVENT_CORE,
    EVENT_DONE,
    QUEUE_RETRY_CYCLES,
    CoreState,
    _EngineShell,
)
from .stats import SimResult

# Packed-event layout, most-significant first: cycle | seq | kind | payload.
# Heap order on the packed int therefore equals order on the old
# (cycle, seq, kind, payload) tuple, because seq is globally unique.
_SEQ_BITS = 44                      # > 17e12 events; far beyond any run
_PAYLOAD_BITS = CORE_ID_BITS       # a core id or a flat bank id
_KIND_SHIFT = _PAYLOAD_BITS
_LOW_BITS = _PAYLOAD_BITS + 2       # kind needs 2 bits
_CYCLE_SHIFT = _SEQ_BITS + _LOW_BITS
_PAYLOAD_MASK = (1 << _PAYLOAD_BITS) - 1
_CORE_TAG = EVENT_CORE << _KIND_SHIFT
_BANK_TAG = EVENT_BANK << _KIND_SHIFT
_DONE_TAG = EVENT_DONE << _KIND_SHIFT
#: Packed-event threshold that no real event reaches (cycles stay below
#: 2**34, so packed values stay below 2**96).  Used as the "no stop
#: cycle" sentinel so the main loop's stop check is always one plain
#: int comparison.
_NO_STOP = 1 << 120


class SystemSimulator(_EngineShell):
    """One simulation run of traces against a defense configuration."""

    __slots__ = (
        "_compiled", "_bank_wake", "_bank_ctrls", "_local_banks", "_books",
        "_issue_arrays",
    )

    def __init__(
        self,
        system: SystemConfig,
        traces: Optional[Sequence[Trace]] = None,
        defense: Optional[DefenseConfig] = None,
        tmro_ns: Optional[float] = None,
        compiled: Optional[Sequence[CompiledTrace]] = None,
    ) -> None:
        if traces is None:
            if compiled is None:
                raise ValueError("need traces or compiled traces")
            traces = [entry.trace for entry in compiled]
        elif compiled is not None and any(
            entry.trace is not trace
            for entry, trace in zip(compiled, traces)
        ):
            raise ValueError(
                "compiled traces do not correspond to the traces argument"
            )
        super().__init__(system, traces, defense, tmro_ns)
        if compiled is None:
            compiled = compile_traces(traces, self.mapper)
        elif any(
            entry.key != mapper_key(self.mapper) for entry in compiled
        ):
            raise ValueError("compiled traces were built for another mapper")
        if len(compiled) != system.n_cores:
            raise ValueError("need one compiled trace per core")
        total_banks = system.channels * system.banks_per_channel
        if total_banks > _PAYLOAD_MASK:
            raise ValueError("bank count exceeds event payload range")
        self._compiled: List[CompiledTrace] = list(compiled)
        #: Cycle of each bank's single live heap entry, -1 when none.
        self._bank_wake: List[int] = [-1] * total_banks
        # Flat-bank dispatch tables: the event loop indexes a controller
        # and a local bank id, and the issue path a bank's bookkeeping
        # (skipping can_accept/enqueue re-validation), instead of doing
        # a div/mod + controller lookup per event.
        per = system.banks_per_channel
        self._bank_ctrls = [c for c in self.controllers for _ in range(per)]
        self._local_banks = list(range(per)) * system.channels
        self._books = [book for c in self.controllers for book in c.state]
        #: Per-core compiled arrays for the issue path.
        self._issue_arrays = [
            (entry.rows, entry.flat_banks, entry.is_write, entry.gaps,
             entry.length)
            for entry in self._compiled
        ]

    # -- core issue logic -------------------------------------------------

    def _try_issue(self, core: CoreState, cycle: int) -> None:
        rows, flats, writes, gaps, length = self._issue_arrays[core.core_id]
        books = self._books
        heap = self._heap
        push = heapq.heappush
        bank_wake = self._bank_wake
        core_id = core.core_id
        core_bits = core_id << 1
        mlp = core.mlp
        index = core.index
        outstanding = core.outstanding
        while index < length and outstanding < mlp:
            flat = flats[index]
            book = books[flat]
            queue = book.queue
            if len(queue) >= BANK_QUEUE_CAPACITY:
                self._seq += 1
                push(
                    heap,
                    (((cycle + QUEUE_RETRY_CYCLES) << _SEQ_BITS | self._seq)
                     << _LOW_BITS) | _CORE_TAG | core_id,
                )
                break
            # The packed request of memctrl.request (row | core | write).
            queue.append(rows[index] << ROW_SHIFT | core_bits | writes[index])
            # Wake the bank when it can actually serve: an arrival at a
            # busy bank would only get a busy-return from step(), so
            # schedule straight for busy_until instead of polling now.
            wake_at = book.busy_until
            if wake_at < cycle:
                wake_at = cycle
            wake = bank_wake[flat]
            if wake < 0 or wake_at < wake:
                bank_wake[flat] = wake_at
                self._seq += 1
                push(
                    heap,
                    ((wake_at << _SEQ_BITS | self._seq) << _LOW_BITS)
                    | _BANK_TAG | flat,
                )
            index += 1
            outstanding += 1
            if outstanding >= mlp:
                core.stalled_on_mlp = True
                break
            if index < length:
                gap = gaps[index]
                if gap > 0:
                    self._seq += 1
                    push(
                        heap,
                        (((cycle + gap) << _SEQ_BITS | self._seq)
                         << _LOW_BITS) | _CORE_TAG | core_id,
                    )
                    break
                # gap == 0: keep issuing at this cycle.
        core.index = index
        core.outstanding = outstanding

    # -- main loop ----------------------------------------------------------

    def _prime(self) -> None:
        """Seed the heap with each core's first issue event (run once)."""
        self._started = True
        heap = self._heap
        push = heapq.heappush
        compiled = self._compiled
        for core in self.cores:
            if len(core.trace) == 0:
                core.finish_cycle = 0
                continue
            self._seq += 1
            push(
                heap,
                ((compiled[core.core_id].gaps[0] << _SEQ_BITS | self._seq)
                 << _LOW_BITS) | _CORE_TAG | core.core_id,
            )
        self._remaining = sum(len(core.trace) for core in self.cores)

    def run_until(
        self,
        stop_cycle: Optional[int] = None,
        max_cycles: int = 1 << 34,
    ) -> bool:
        """Process every event up to and including ``stop_cycle``.

        ``None`` runs to completion.  Returns True when the whole run is
        finished (all requests issued and retired).  The loop is exactly
        the original ``run`` loop plus one int comparison against the
        pre-packed stop threshold, so behavior at any stop point is a
        prefix of the straight run — which is what makes stepped runs
        (the invariant monitor) bit-faithful.
        """
        if not self._started:
            self._prime()
        heap = self._heap
        push = heapq.heappush
        pop = heapq.heappop
        cores = self.cores
        bank_wake = self._bank_wake
        bank_ctrls = self._bank_ctrls
        local_banks = self._local_banks
        extra = self.system.extra_latency_cycles
        threshold = (
            ((stop_cycle + 1) << _CYCLE_SHIFT)
            if stop_cycle is not None
            else _NO_STOP
        )
        remaining = self._remaining
        pending_done = self._pending_done
        cycle = self._now
        while (remaining > 0 or pending_done > 0) and heap:
            if heap[0] >= threshold:
                break
            event = pop(heap)
            payload = event & _PAYLOAD_MASK
            kind = (event >> _KIND_SHIFT) & 3
            cycle = event >> _CYCLE_SHIFT
            if cycle > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"({remaining} requests outstanding)"
                )
            if kind == EVENT_BANK:
                if bank_wake[payload] != cycle:
                    continue    # superseded by an earlier wakeup
                bank_wake[payload] = -1
                controller = bank_ctrls[payload]
                wake = controller.step(local_banks[payload], cycle)
                core_id = controller.done_core
                if core_id >= 0:
                    controller.done_core = -1
                    self._seq += 1
                    push(
                        heap,
                        (((controller.done_cycle + extra) << _SEQ_BITS
                          | self._seq) << _LOW_BITS) | _DONE_TAG | core_id,
                    )
                    remaining -= 1
                    pending_done += 1
                if wake >= cycle:
                    if wake <= cycle:
                        wake = cycle + 1
                    # bank_wake[payload] is -1 here: it was cleared at
                    # pop and neither step() nor the DONE push touch
                    # it, so this push is never superseded.
                    bank_wake[payload] = wake
                    self._seq += 1
                    push(
                        heap,
                        ((wake << _SEQ_BITS | self._seq) << _LOW_BITS)
                        | _BANK_TAG | payload,
                    )
            elif kind == EVENT_DONE:
                pending_done -= 1
                # Inlined CoreState.retire.
                core = cores[payload]
                outstanding = core.outstanding - 1
                if outstanding < 0:
                    raise RuntimeError("retire with no outstanding request")
                core.outstanding = outstanding
                core.retired += 1
                if outstanding == 0 and core.index >= core.trace_length:
                    core.finish_cycle = cycle
                if core.stalled_on_mlp:
                    core.stalled_on_mlp = False
                    if core.index < core.trace_length:
                        self._try_issue(core, cycle)
            else:  # EVENT_CORE
                self._try_issue(cores[payload], cycle)
        self._now = cycle
        self._remaining = remaining
        self._pending_done = pending_done
        return remaining == 0 and pending_done == 0


#: Engine tiers :func:`build_simulator` dispatches between.
ENGINE_NAMES = ("reference", "fast")


def build_simulator(
    system: SystemConfig,
    workload,
    defense: Optional[DefenseConfig] = None,
    tmro_ns: Optional[float] = None,
    n_requests: int = 2000,
    seed: int = 0,
    engine: str = "fast",
):
    """The unrun simulator of one sweep point.

    ``workload`` is a rate-mode name or a per-core source tuple (see
    :func:`simulate_workload`); source tuples are validated against
    ``system``.  Traces resolve through the process-local compiled-trace
    cache, so every caller building the same point gets bit-identical
    input.  ``engine`` is ``"fast"`` (:class:`SystemSimulator`) or
    ``"reference"`` (:class:`~repro.sim.reference.ReferenceSimulator`).
    """
    from ..workloads.compiled import compiled_point_traces

    if engine not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r}; choose one of {ENGINE_NAMES}"
        )
    if not isinstance(workload, str):
        system.validate_sources(tuple(workload))
    compiled = compiled_point_traces(
        workload, system.n_cores, n_requests, seed, system.mapper()
    )
    if engine == "reference":
        from .reference import ReferenceSimulator

        return ReferenceSimulator(
            system,
            [entry.trace for entry in compiled],
            defense,
            tmro_ns=tmro_ns,
        )
    return SystemSimulator(
        system, defense=defense, tmro_ns=tmro_ns, compiled=compiled
    )


def simulate_workload(
    name,
    defense: Optional[DefenseConfig] = None,
    system: Optional[SystemConfig] = None,
    n_requests_per_core: int = 2000,
    tmro_ns: Optional[float] = None,
    seed: int = 0,
    engine: str = "fast",
) -> SimResult:
    """Convenience wrapper: one run of a workload against a defense.

    ``name`` is either a named rate-mode workload (a string — the
    legacy single-workload path) or a heterogeneous per-core source
    tuple (:data:`repro.workloads.sources.CoreSources`, one entry per
    core — the scenario path).  Both forms are hashable, so both key the
    process-local compiled-trace cache and the
    :class:`~repro.experiments.common.SweepRunner` run cache directly;
    consecutive calls with the same recipe (a defense sweep) share one
    compiled trace set.

    ``engine`` selects the tier: ``"fast"`` (default, the oracle-pinned
    event engine) or ``"reference"`` (the preserved original loop); both
    produce bit-identical results.  The batch tier runs grids, not
    points: :func:`repro.sim.batch.simulate_batch`.
    """
    system = system or SystemConfig()
    return build_simulator(
        system, name, defense, tmro_ns, n_requests_per_core, seed, engine
    ).run()
