"""Reference simulation engine: the original, unoptimized event loop.

This is a frozen copy of the pre-optimization :class:`SystemSimulator`
event loop (per-request address mapping, one heap entry per wakeup with
a global sequence counter, no bank-wakeup deduplication).  It exists for
two reasons:

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
from typing import List, Optional, Sequence

from ..core.mitigation import MitigationScheme
from ..dram.commands import CommandCounts
from ..memctrl.controller import ChannelController
from ..memctrl.request import CORE_ID_BITS, CORE_ID_MASK, pack_request
from ..workloads.trace import Trace
from .config import DefenseConfig, SystemConfig
from .core import CoreState
from .stats import SimResult

#: Retry delay when a core finds its target bank queue full (must match
#: the optimized engine's value for equivalence to hold).
QUEUE_RETRY_CYCLES = 16

EVENT_CORE = 0
EVENT_BANK = 1
EVENT_DONE = 2


class ReferenceSimulator:
    """The original event loop, preserved verbatim for equivalence runs."""

    __slots__ = (
        "system", "defense", "mapper", "controllers", "cores",
        "_heap", "_seq", "_now", "_started", "_remaining", "_pending_done",
    )

    def __init__(
        self,
        system: SystemConfig,
        traces: Sequence[Trace],
        defense: Optional[DefenseConfig] = None,
        tmro_ns: Optional[float] = None,
    ) -> None:
        if len(traces) != system.n_cores:
            raise ValueError("need one trace per core")
        if system.n_cores > CORE_ID_MASK:
            raise ValueError(
                f"n_cores {system.n_cores} exceeds the {CORE_ID_BITS}-bit "
                "core-id field"
            )
        self.system = system
        self.defense = defense or DefenseConfig()
        self.mapper = system.mapper()
        timings = system.timings
        tmro_cycles = (
            timings.clock.cycles(tmro_ns) if tmro_ns is not None else None
        )
        self.controllers: List[ChannelController] = []
        for _channel in range(system.channels):
            scheme: MitigationScheme = self.defense.build_scheme(
                timings, system.banks_per_channel
            )
            self.controllers.append(
                ChannelController(
                    timings=timings,
                    num_banks=system.banks_per_channel,
                    scheme=scheme,
                    use_rfm=self.defense.uses_rfm,
                    rfmth=self.defense.effective_rfmth(),
                    tmro_cycles=tmro_cycles
                    if tmro_cycles is not None
                    else self.defense.express_tmro_cycles(timings),
                    mop_burst_lines=system.mop_burst_lines,
                    idle_close_cycles=system.idle_close_cycles,
                )
            )
        self.cores = [
            CoreState(core_id=i, trace=trace, mlp=system.mlp)
            for i, trace in enumerate(traces)
        ]
        self._heap: List = []
        # Only the relative order of sequence numbers matters.
        self._seq = 0
        self._now = 0
        self._started = False
        self._remaining = 0
        self._pending_done = 0

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

    @property
    def now(self) -> int:
        """Cycle of the most recently processed event."""
        return self._now

    @property
    def done(self) -> bool:
        """True once every request has been issued and retired."""
        return (
            self._started
            and self._remaining == 0
            and self._pending_done == 0
        )

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

    def run(self, max_cycles: int = 1 << 34) -> SimResult:
        """Run every core's trace to completion; returns the SimResult."""
        self.run_until(None, max_cycles)
        if self._remaining > 0:
            raise RuntimeError("event heap drained with work remaining")
        return self.finish()

    def finish(self) -> SimResult:
        """Flush open rows and collect the result (run must be done)."""
        end_cycle = self._now
        for controller in self.controllers:
            controller.flush_open_rows(end_cycle + 1)
        return self._collect(end_cycle)

    def _collect(self, end_cycle: int) -> SimResult:
        counts = CommandCounts()
        hits = misses = conflicts = rfm_mitigations = tmro_closures = 0
        core_acts = [0] * len(self.cores)
        for controller in self.controllers:
            counts = counts.merged_with(controller.counts)
            hits += controller.row_hits
            misses += controller.row_misses
            conflicts += controller.row_conflicts
            rfm_mitigations += controller.rfm_mitigations
            tmro_closures += controller.tmro_closures
            for core_id, acts in controller.core_demand_acts.items():
                core_acts[core_id] += acts
        return SimResult(
            elapsed_cycles=end_cycle,
            core_cycles=[
                core.finish_cycle if core.finish_cycle is not None else end_cycle
                for core in self.cores
            ],
            core_requests=[core.retired for core in self.cores],
            counts=counts,
            row_hits=hits,
            row_misses=misses,
            row_conflicts=conflicts,
            rfm_mitigations=rfm_mitigations,
            tmro_closures=tmro_closures,
            core_demand_acts=core_acts,
        )
