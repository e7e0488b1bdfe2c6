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

The event discipline is frozen (only interpreter overhead may go):

* one heap entry per wakeup, a ``(cycle, seq, kind, payload)`` tuple
  ordered by the global push counter ``_seq``;
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


class ReferenceSimulator(_EngineShell):
    """The original event discipline, kept for equivalence runs."""

    __slots__ = ()

    def _try_issue(self, core: CoreState, cycle: int) -> None:
        trace, core_id = core.trace, core.core_id
        addresses, writes, gaps = trace.addresses, trace.writes, trace.gaps
        map_address, controllers = self.mapper.map_address, self.controllers
        heap, per = self._heap, self.system.banks_per_channel
        while core.can_issue():
            index = core.index
            mapped = map_address(addresses[index])
            channel, bank = mapped.channel, mapped.bank
            controller = controllers[channel]
            if not controller.can_accept(bank):
                self._seq += 1
                heappush(heap, (cycle + QUEUE_RETRY_CYCLES, self._seq,
                                EVENT_CORE, core_id))
                return
            controller.enqueue(
                bank, pack_request(mapped.row, core_id, writes[index])
            )
            self._seq += 1
            heappush(heap, (cycle, self._seq, EVENT_BANK,
                            channel * per + bank))
            core.issue()
            if core.outstanding >= core.mlp:
                core.stalled_on_mlp = True
                return
            if not core.exhausted:
                gap = gaps[core.index]
                if gap > 0:
                    self._seq += 1
                    heappush(heap, (cycle + gap, self._seq, EVENT_CORE,
                                    core_id))
                    return
                # gap == 0: keep issuing at this cycle.

    def _prime(self) -> None:
        """Seed the heap with each core's first issue event (run once)."""
        self._started = True
        for core in self.cores:
            if core.trace_length == 0:
                core.finish_cycle = 0
                continue
            self._seq += 1
            heappush(self._heap, (core.trace.gaps[0], self._seq,
                                  EVENT_CORE, core.core_id))
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
        heap, cores, controllers = self._heap, self.cores, self.controllers
        per = self.system.banks_per_channel
        extra_latency = self.system.extra_latency_cycles
        try_issue = self._try_issue
        remaining, pending_done = self._remaining, self._pending_done
        while (remaining > 0 or pending_done > 0) and heap:
            if stop_cycle is not None and heap[0][0] > stop_cycle:
                break
            cycle, _seq, kind, payload = heappop(heap)
            if cycle > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"({remaining} requests outstanding)"
                )
            self._now = cycle
            if kind == EVENT_CORE:
                try_issue(cores[payload], cycle)
            elif kind == EVENT_BANK:
                controller = controllers[payload // per]
                next_wake = controller.step(payload % per, cycle)
                if controller.done_core >= 0:
                    self._seq += 1
                    heappush(heap, (controller.done_cycle + extra_latency,
                                    self._seq, EVENT_DONE,
                                    controller.done_core))
                    controller.done_core = -1
                    remaining -= 1
                    pending_done += 1
                if next_wake >= cycle:
                    if next_wake == cycle:
                        next_wake = cycle + 1
                    self._seq += 1
                    heappush(heap, (next_wake, self._seq, EVENT_BANK, payload))
            else:  # EVENT_DONE
                pending_done -= 1
                core = cores[payload]
                core.retire(cycle)
                if core.stalled_on_mlp:
                    core.stalled_on_mlp = False
                    if not core.exhausted:
                        try_issue(core, cycle)
        self._remaining, self._pending_done = remaining, pending_done
        return remaining == 0 and pending_done == 0
