"""Reference simulation engine: the original, unoptimized event loop.

This is a frozen copy of the pre-optimization :class:`SystemSimulator`
event loop (per-request address mapping, one heap entry per wakeup with
a global sequence counter, no bank-wakeup deduplication).  Only the
loop is frozen: the controller wiring, the core state and the
:class:`~repro.sim.stats.SimResult` collection are the shell both
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

Do not optimize this module; it is deliberately the slow, obviously
correct formulation.
"""

from __future__ import annotations

import heapq
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
    """The original event loop, preserved verbatim for equivalence runs."""

    __slots__ = ()

    # -- event plumbing ---------------------------------------------------

    def _push(self, cycle: int, kind: int, payload: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (cycle, self._seq, kind, payload))

    def _flat_bank(self, channel: int, bank: int) -> int:
        return channel * self.system.banks_per_channel + bank

    def _unflatten(self, flat: int) -> tuple:
        per = self.system.banks_per_channel
        return flat // per, flat % per

    # -- core issue logic -------------------------------------------------

    def _try_issue(self, core: CoreState, cycle: int) -> None:
        while core.can_issue():
            request = core.trace[core.index]
            mapped = self.mapper.map_address(request.address)
            controller = self.controllers[mapped.channel]
            if not controller.can_accept(mapped.bank):
                self._push(cycle + QUEUE_RETRY_CYCLES, EVENT_CORE, core.core_id)
                return
            controller.enqueue(
                mapped.bank,
                pack_request(mapped.row, core.core_id, request.is_write),
            )
            self._push(
                cycle, EVENT_BANK, self._flat_bank(mapped.channel, mapped.bank)
            )
            core.issue()
            if core.outstanding >= core.mlp:
                core.stalled_on_mlp = True
                return
            if not core.exhausted:
                gap = core.trace[core.index].gap_cycles
                if gap > 0:
                    self._push(cycle + gap, EVENT_CORE, core.core_id)
                    return
                # gap == 0: keep issuing at this cycle.

    # -- main loop ----------------------------------------------------------

    def _prime(self) -> None:
        """Seed the heap with each core's first issue event (run once)."""
        self._started = True
        for core in self.cores:
            if len(core.trace) == 0:
                core.finish_cycle = 0
                continue
            first_gap = core.trace[0].gap_cycles
            self._push(first_gap, EVENT_CORE, core.core_id)
        self._remaining = sum(len(core.trace) for core in self.cores)

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
        remaining = self._remaining
        pending_done = self._pending_done
        while (remaining > 0 or pending_done > 0) and self._heap:
            if stop_cycle is not None and self._heap[0][0] > stop_cycle:
                break
            cycle, _seq, kind, payload = heapq.heappop(self._heap)
            if cycle > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"({remaining} requests outstanding)"
                )
            self._now = cycle
            if kind == EVENT_CORE:
                self._try_issue(self.cores[payload], cycle)
            elif kind == EVENT_BANK:
                channel, bank = self._unflatten(payload)
                controller = self.controllers[channel]
                next_wake = controller.step(bank, cycle)
                if controller.done_core >= 0:
                    self._push(
                        controller.done_cycle
                        + self.system.extra_latency_cycles,
                        EVENT_DONE,
                        controller.done_core,
                    )
                    controller.done_core = -1
                    remaining -= 1
                    pending_done += 1
                if next_wake >= cycle:
                    self._push(max(next_wake, cycle + 1), EVENT_BANK, payload)
            else:  # EVENT_DONE
                pending_done -= 1
                core = self.cores[payload]
                core.retire(cycle)
                if core.stalled_on_mlp:
                    core.stalled_on_mlp = False
                    if not core.exhausted:
                        self._try_issue(core, cycle)
        self._remaining = remaining
        self._pending_done = pending_done
        return remaining == 0 and pending_done == 0
