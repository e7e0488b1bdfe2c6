"""Reference simulation engine: the original event discipline.

This is the pre-optimization :class:`SystemSimulator` event loop.  Only
the loop is the oracle's own: the controller wiring, the core state and
the :class:`~repro.sim.stats.SimResult` collection are the shell both
engines share (:mod:`repro.sim.core`), so the oracle and the fast
engine differ in event order and nothing else.  It exists for two
reasons:

* **Equivalence testing** — ``tests/test_engine_equivalence.py`` runs
  seeded workloads through both engines and asserts the
  :class:`~repro.sim.stats.SimResult` fields are bit-identical, which is
  the contract the optimized engine must honor.
* **Benchmarking** — ``tools/microbench.py`` times this engine against
  the optimized one on the same single-core run (``single_core`` /
  ``single_core_reference``) and reports the speedup factor.

The event discipline is frozen (its cost may change, its order never):

* one calendar entry per wakeup, FIFO within a cycle: events run in
  ``(cycle, push order)``, each cycle's ``(kind, payload)`` events in
  one bucket of ``_calendar`` and the pending cycles in ``_heap``;
* no bank-wakeup deduplication;
* :meth:`ChannelController.step` on every bank event, busy no-ops
  included;
* per-request ``mapper.map_address``;
* the checked ``can_accept`` / ``enqueue`` / ``pack_request`` path.

``TestOracleDiscipline`` (``tests/test_engine_equivalence.py``) pins
one point's ``step`` calls and pushes, so dedup or a dropped push fails.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from ..memctrl.request import pack_request
from .core import (
    EVENT_BANK,
    EVENT_CORE,
    EVENT_DONE,
    QUEUE_RETRY_CYCLES,
    CoreState,
    _EngineShell,
)


def _schedule(calendar: dict, heap: list, cycle: int, event: tuple) -> None:
    """Queue ``event`` at ``cycle``, behind everything already there.

    Every push of the reference goes through here: one calendar entry
    per wakeup, never merged with another.
    """
    bucket = calendar.get(cycle)
    if bucket is None:
        calendar[cycle] = [event]
        heappush(heap, cycle)
    else:
        bucket.append(event)


class ReferenceSimulator(_EngineShell):
    """The original event discipline, kept for equivalence runs."""

    __slots__ = ("_calendar",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Each pending cycle's ``(kind, payload)`` events in push
        #: order; ``_heap`` holds exactly the cycles with a bucket.
        self._calendar: dict = {}

    def _try_issue(self, core: CoreState, cycle: int) -> None:
        trace, core_id = core.trace, core.core_id
        addresses, writes, gaps = trace.addresses, trace.writes, trace.gaps
        map_address, controllers = self.mapper.map_address, self.controllers
        calendar, heap = self._calendar, self._heap
        schedule, per = _schedule, self.system.banks_per_channel
        while core.can_issue():
            index = core.index
            mapped = map_address(addresses[index])
            channel, bank = mapped.channel, mapped.bank
            controller = controllers[channel]
            if not controller.can_accept(bank):
                schedule(calendar, heap, cycle + QUEUE_RETRY_CYCLES,
                         (EVENT_CORE, core_id))
                return
            controller.enqueue(
                bank, pack_request(mapped.row, core_id, writes[index])
            )
            schedule(calendar, heap, cycle, (EVENT_BANK, channel * per + bank))
            core.issue()
            if core.outstanding >= core.mlp:
                core.stalled_on_mlp = True
                return
            if not core.exhausted:
                gap = gaps[core.index]
                if gap > 0:
                    schedule(calendar, heap, cycle + gap,
                             (EVENT_CORE, core_id))
                    return
                # gap == 0: keep issuing at this cycle.

    def _prime(self) -> None:
        """Seed the calendar with each core's first issue event (run once)."""
        self._started = True
        for core in self.cores:
            if core.trace_length == 0:
                core.finish_cycle = 0
                continue
            _schedule(self._calendar, self._heap, core.trace.gaps[0],
                      (EVENT_CORE, core.core_id))
        self._remaining = sum(core.trace_length for core in self.cores)

    def run_until(
        self,
        stop_cycle: Optional[int] = None,
        max_cycles: int = 1 << 34,
    ) -> bool:
        """Process every event up to and including ``stop_cycle``.

        ``None`` runs to completion.  Returns True when the whole run is
        finished.  Mirrors the optimized engine's ``run_until``.
        """
        if not self._started:
            self._prime()
        heap, calendar = self._heap, self._calendar
        cores, controllers = self.cores, self.controllers
        per = self.system.banks_per_channel
        extra_latency = self.system.extra_latency_cycles
        try_issue, schedule = self._try_issue, _schedule
        remaining, pending_done = self._remaining, self._pending_done
        while (remaining > 0 or pending_done > 0) and heap:
            cycle = heap[0]
            if stop_cycle is not None and cycle > stop_cycle:
                break
            if cycle > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"({remaining} requests outstanding)"
                )
            heappop(heap)
            self._now = cycle
            # The bucket stays in the calendar while it drains, so an
            # event pushed for this cycle joins its end and runs last.
            # Nothing is pushed for an earlier cycle: a completion never
            # precedes its column command (extra latency is >= 0).
            events = iter(calendar[cycle])
            for kind, payload in events:
                if kind == EVENT_CORE:
                    try_issue(cores[payload], cycle)
                elif kind == EVENT_BANK:
                    controller = controllers[payload // per]
                    next_wake = controller.step(payload % per, cycle)
                    if controller.done_core >= 0:
                        schedule(calendar, heap,
                                 controller.done_cycle + extra_latency,
                                 (EVENT_DONE, controller.done_core))
                        controller.done_core = -1
                        remaining -= 1
                        pending_done += 1
                    if next_wake >= cycle:
                        if next_wake == cycle:
                            next_wake = cycle + 1
                        schedule(calendar, heap, next_wake,
                                 (EVENT_BANK, payload))
                else:  # EVENT_DONE
                    pending_done -= 1
                    core = cores[payload]
                    core.retire(cycle)
                    if core.stalled_on_mlp:
                        core.stalled_on_mlp = False
                        if not core.exhausted:
                            try_issue(core, cycle)
                    if remaining == 0 and pending_done == 0:
                        break
            else:
                del calendar[cycle]
                continue
            # The run finished partway through this cycle: the rest
            # stays pending under it.
            rest = list(events)
            if rest:
                calendar[cycle] = rest
                heappush(heap, cycle)
            else:
                del calendar[cycle]
        self._remaining, self._pending_done = remaining, pending_done
        return remaining == 0 and pending_done == 0
