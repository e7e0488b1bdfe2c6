"""Trace-driven core model and the per-run state both engines share.

Each core replays its LLC-miss trace with a bounded number of
outstanding misses (the MLP the ROB can expose) and per-request think
time.  This is the DESIGN.md substitution for the paper's cycle-level
out-of-order cores: the DRAM-side phenomena under study depend on the
arrival structure the trace encodes, not on in-core microarchitecture.

:class:`_EngineShell` wires the cores to one controller per channel and
collects the :class:`~repro.sim.stats.SimResult`; the fast engine
(:mod:`repro.sim.system`) and the reference oracle
(:mod:`repro.sim.reference`) each add only their own event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..dram.commands import CommandCounts
from ..memctrl.controller import ChannelController
from ..memctrl.request import CORE_ID_BITS, CORE_ID_MASK
from ..workloads.trace import Trace
from .config import DefenseConfig, SystemConfig
from .stats import SimResult

#: Retry delay when a core finds its target bank queue full.
QUEUE_RETRY_CYCLES = 16

EVENT_CORE = 0
EVENT_BANK = 1
EVENT_DONE = 2


@dataclass(slots=True)
class CoreState:
    """Issue/retire bookkeeping for one core."""

    core_id: int
    trace: Trace
    mlp: int = 8
    index: int = 0
    outstanding: int = 0
    retired: int = 0
    stalled_on_mlp: bool = False
    finish_cycle: Optional[int] = None
    #: Cached ``len(trace)`` — the retire path runs once per request and
    #: must not pay a ``__len__`` dispatch each time.
    trace_length: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.mlp < 1:
            raise ValueError("mlp must be positive")
        self.trace_length = len(self.trace)

    @property
    def exhausted(self) -> bool:
        return self.index >= self.trace_length

    def can_issue(self) -> bool:
        return self.index < self.trace_length and self.outstanding < self.mlp

    def issue(self) -> None:
        self.index += 1
        self.outstanding += 1

    def retire(self, cycle: int) -> None:
        outstanding = self.outstanding - 1
        if outstanding < 0:
            raise RuntimeError("retire with no outstanding request")
        self.outstanding = outstanding
        self.retired += 1
        if outstanding == 0 and self.index >= self.trace_length:
            self.finish_cycle = cycle


class _EngineShell:
    """The per-run state both engines share.

    Validates the traces, builds one :class:`ChannelController` per
    channel and one :class:`CoreState` per core, and turns the finished
    run into a :class:`SimResult`.  A subclass supplies ``_prime`` and
    ``run_until``: the event loop is the only part the engines differ in.
    """

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
        self.defense = defense = defense or DefenseConfig()
        self.mapper = system.mapper()
        timings = system.timings
        tmro_cycles = (
            timings.clock.cycles(tmro_ns) if tmro_ns is not None
            else defense.express_tmro_cycles(timings)
        )
        self.controllers: List[ChannelController] = [
            ChannelController(
                timings=timings,
                num_banks=system.banks_per_channel,
                scheme=defense.build_scheme(
                    timings, system.banks_per_channel
                ),
                use_rfm=defense.uses_rfm,
                rfmth=defense.effective_rfmth(),
                tmro_cycles=tmro_cycles,
                mop_burst_lines=system.mop_burst_lines,
                idle_close_cycles=system.idle_close_cycles,
            )
            for _channel in range(system.channels)
        ]
        self.cores = [
            CoreState(core_id=i, trace=trace, mlp=system.mlp)
            for i, trace in enumerate(traces)
        ]
        self._heap: list = []
        # Only the relative order of sequence numbers matters.
        self._seq = 0
        self._now = 0
        self._started = False
        self._remaining = 0
        self._pending_done = 0

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
