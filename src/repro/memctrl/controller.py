"""Channel memory controller: queues, FR-FCFS scheduling, page policy.

One :class:`ChannelController` owns the banks of one channel.  Both
simulation engines drive it with two calls:

* :meth:`enqueue` — a core's LLC miss arrives as a packed int (the
  fast engine appends to the bank's queue directly);
* :meth:`step` — the bank is (possibly) free: do the highest-priority
  piece of work and return the cycle to look again.  A finished demand
  request is reported through the ``done_core``/``done_cycle`` fields,
  which the caller reads and resets to ``-1``; a step finishes at most
  one request.

Scheduling priority per bank (Section III and the baseline of Table II):

1. refresh, once a REF pulse is due (closes the open row);
2. RFM, when the bank's activation count reaches RFMTH (in-DRAM
   tracker configurations only) — the in-DRAM tracker mitigates under it;
3. pending mitigative victim refreshes requested by an MC-based tracker;
4. tMRO expiry (ExPress): force-close a row open too long;
5. demand requests, row hits first (FR-FCFS), then oldest-first.

Every row closure is reported to the mitigation scheme, which is how
ImPress-N earns its window credits and ImPress-P its EACT records.
The per-bank kernel slots that carry those reports (``_act_kernels``,
``_close_kernels``, ``_rfm_kernels``) are also the one place anything
observes a run: the batch recorder, the invariant monitor and the
divergence locator wrap them.

**Hot-path engineering** (see ``docs/performance.md``): the scheme's
per-bank activate/close/RFM kernels are hoisted into flat lists at
construction, so the step path calls each bank's tracker kernel with
no dispatch through the scheme; the timing fields used per step are cached as plain ints; ``step`` /
``_serve_demand`` read each per-bank object exactly once into locals;
a bank queue holds one packed int per request (``row | core_id |
is_write``, see :mod:`.request`), so issuing a request builds no
object; ``_serve_demand`` issues the demand ACT inline; and a step
allocates nothing — it returns an int and reports a completion through
two int fields (``repro check``'s ``no-alloc-in-kernels`` rule keeps
it that way).  Scheduling decisions
are unchanged — ``tests/test_sim_golden.py`` pins the pre-refactor
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.mitigation import MitigationScheme
from ..dram.bank import Bank
from ..dram.commands import CommandCounts
from ..dram.refresh import RefreshScheduler
from ..dram.timing import CycleTimings
from .request import CORE_ID_MASK, ROW_SHIFT

#: Demand-queue capacity per bank; cores back off when it fills.
BANK_QUEUE_CAPACITY = 16

#: Victim refreshes per mitigation: blast radius 2 -> 4 rows, each an
#: ACT + PRE taking one tRC (Appendix B's 4-activation mitigation cost).
VICTIMS_PER_MITIGATION = 4


@dataclass(slots=True)
class BankBookkeeping:
    """Controller-side per-bank state beyond the DRAM bank itself."""

    queue: List[int] = field(default_factory=list)   # packed requests
    pending_mitigations: int = 0      # aggressors awaiting victim refresh
    acts_since_rfm: int = 0
    busy_until: int = 0
    act_cycle: int = -1               # when the open row was activated
    columns_since_act: int = 0        # MOP burst accounting
    last_use: int = 0                 # last ACT or column issue


class ChannelController:
    """Memory controller for one channel."""

    __slots__ = (
        "timings", "num_banks", "scheme", "use_rfm", "rfmth",
        "tmro_cycles", "mop_burst_lines", "idle_close_cycles", "banks",
        "refresh", "state", "counts", "core_demand_acts", "row_hits",
        "row_misses", "row_conflicts", "rfm_mitigations", "tmro_closures",
        "done_core", "done_cycle",
        "_act_kernels", "_close_kernels", "_rfm_kernels",
        "_tPRE", "_tRC", "_tRCD", "_tCCD", "_tCAS", "_tRAS", "_tRFM",
    )

    def __init__(
        self,
        timings: CycleTimings,
        num_banks: int,
        scheme: MitigationScheme,
        use_rfm: bool = False,
        rfmth: int = 80,
        tmro_cycles: Optional[int] = None,
        mop_burst_lines: Optional[int] = 8,
        idle_close_cycles: Optional[int] = 400,
    ) -> None:
        if num_banks < 1:
            raise ValueError("num_banks must be positive")
        self.timings = timings
        self.num_banks = num_banks
        self.scheme = scheme
        self.use_rfm = use_rfm
        self.rfmth = rfmth
        # ExPress publishes its limit through the scheme; an explicit
        # tmro_cycles argument overrides (used in tMRO sweeps, Fig 3).
        self.tmro_cycles = (
            tmro_cycles if tmro_cycles is not None else scheme.tmro_cycles()
        )
        self.mop_burst_lines = mop_burst_lines
        self.idle_close_cycles = idle_close_cycles
        self.banks = [Bank(timings=timings, bank_id=i) for i in range(num_banks)]
        stagger = max(1, timings.tREFI // num_banks)
        self.refresh = [
            RefreshScheduler(timings, phase_offset=i * stagger)
            for i in range(num_banks)
        ]
        self.state = [BankBookkeeping() for _ in range(num_banks)]
        self.counts = CommandCounts()
        #: Demand ACTs attributed to the core that triggered them,
        #: keyed by core id.  This is what scenario metrics read to
        #: report per-attacker activation rates; it only grows on the
        #: miss/conflict path, so row hits stay untouched.
        self.core_demand_acts: dict = {}
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
        self.rfm_mitigations = 0
        self.tmro_closures = 0
        #: The request the last :meth:`step` finished: its core (-1 when
        #: none) and the cycle its data returned (writes: column issue).
        self.done_core = -1
        self.done_cycle = 0
        # Hot-path caches: the scheme's per-bank kernels (no per-step
        # scheme/tracker indirection) and the timing fields the step
        # loop touches, as plain ints.
        self._act_kernels = list(scheme.act_kernels())
        self._close_kernels = list(scheme.close_kernels())
        self._rfm_kernels = list(scheme.rfm_kernels())
        self._tPRE = timings.tPRE
        self._tRC = timings.tRC
        self._tRCD = timings.tRCD
        self._tCCD = timings.tCCD
        self._tCAS = timings.tCAS
        self._tRAS = timings.tRAS
        self._tRFM = timings.tRFM

    # -- demand arrival ------------------------------------------------

    def can_accept(self, bank_id: int) -> bool:
        return len(self.state[bank_id].queue) < BANK_QUEUE_CAPACITY

    def enqueue(self, bank_id: int, request: int) -> None:
        """Queue a packed request (:func:`~.request.pack_request`)."""
        if not self.can_accept(bank_id):
            raise RuntimeError(f"bank {bank_id} queue full")
        self.state[bank_id].queue.append(request)

    # -- helpers ---------------------------------------------------------

    def _close_row(self, bank_id: int, cycle: int) -> int:
        """Precharge the open row; feeds the bank's close slot.  Returns
        the PRE cycle.

        The precharge arithmetic is inlined (``Bank.precharge`` minus the
        timing assertions — the controller computes ``pre_cycle`` from
        ``earliest_pre`` itself, so the checks cannot fire).  Every row
        close reaches ``_close_kernels[bank_id]`` when the slot is set,
        so an observer that must see each close fills a None slot.
        """
        bank = self.banks[bank_id]
        book = self.state[bank_id]
        ready = bank._ready_pre
        pre_cycle = cycle if cycle >= ready else ready
        row = bank.open_row
        bank.open_row = None
        ready_act = pre_cycle + self._tPRE
        if ready_act > bank._ready_act:
            bank._ready_act = ready_act
        self.counts.precharges += 1
        close_kernel = self._close_kernels[bank_id]
        if close_kernel is not None:
            book.pending_mitigations += close_kernel(
                row, book.act_cycle, pre_cycle
            )
        return pre_cycle

    # -- the scheduling step ---------------------------------------------

    def step(self, bank_id: int, cycle: int) -> int:
        """Do one piece of work on the bank at ``cycle``.

        Returns the next cycle the bank needs attention; a value below
        ``cycle`` means no wakeup (a postponed refresh).  When the step
        finished a demand request, ``done_core``/``done_cycle`` name it
        and the caller must reset ``done_core`` to -1.
        """
        book = self.state[bank_id]
        busy_until = book.busy_until
        if busy_until > cycle:
            return busy_until
        bank = self.banks[bank_id]
        tpre = self._tPRE

        # 1. Refresh.  (The fast `_next_due` pre-check short-circuits
        # the common not-yet-due case; `due()` keeps the postponement
        # semantics for schedulers that enable it.)
        refresh = self.refresh[bank_id]
        if cycle >= refresh._next_due and refresh.due(cycle):
            start = cycle
            if bank.open_row is not None:
                start = self._close_row(bank_id, cycle) + tpre
            ready = bank.earliest_act()
            if start < ready:
                start = ready
            done = bank.refresh(start)
            refresh.issue(start)
            self.counts.refreshes += 1
            book.busy_until = done
            return done

        # 2. RFM (in-DRAM tracker configurations).
        if self.use_rfm and book.acts_since_rfm >= self.rfmth:
            start = cycle
            if bank.open_row is not None:
                start = self._close_row(bank_id, cycle) + tpre
            ready = bank.earliest_act()
            if start < ready:
                start = ready
            done = start + self._tRFM
            # RFM blocks the bank; in-DRAM mitigation happens within it.
            bank_rfm_done = bank.rfm(start)
            if bank_rfm_done > done:
                done = bank_rfm_done
            book.acts_since_rfm = 0
            self.counts.rfms += 1
            if self._rfm_kernels[bank_id](start) is not None:
                self.rfm_mitigations += 1
            book.busy_until = done
            return done

        # 3. Mitigative victim refreshes (MC-based trackers).
        if book.pending_mitigations > 0:
            start = cycle
            if bank.open_row is not None:
                start = self._close_row(bank_id, cycle) + tpre
            ready = bank.earliest_act()
            if start < ready:
                start = ready
            # Four victims, each ACT + PRE back to back (one tRC apiece);
            # modeled as a block without opening a demand-visible row.
            done = start + VICTIMS_PER_MITIGATION * self._tRC
            self.counts.mitigative_acts += VICTIMS_PER_MITIGATION
            self.counts.precharges += VICTIMS_PER_MITIGATION
            book.pending_mitigations -= 1
            book.busy_until = done
            # Keep the bank's ACT clock coherent for the next demand ACT.
            bank.block_until(done)
            return done

        # 4. tMRO expiry (ExPress / tMRO sweeps).
        tmro = self.tmro_cycles
        bank_open = bank.open_row is not None
        if (
            tmro is not None
            and bank_open
            and cycle - book.act_cycle >= tmro
        ):
            pre_cycle = self._close_row(bank_id, cycle)
            self.tmro_closures += 1
            book.busy_until = pre_cycle + tpre
            return book.busy_until

        # 5. Demand requests, hits first.
        if book.queue:
            return self._serve_demand(bank_id, cycle, book, bank)

        # 6. Idle precharge: close a row nobody is hitting.
        idle_close = self.idle_close_cycles
        if (
            idle_close is not None
            and bank_open
            and not book.queue
            and cycle - book.last_use >= idle_close
        ):
            pre_cycle = self._close_row(bank_id, cycle)
            book.busy_until = pre_cycle + tpre
            return book.busy_until

        # Nothing to do: wake for refresh, tMRO expiry or idle close.
        wake = refresh._next_due
        if bank_open:
            if tmro is not None:
                tmro_wake = book.act_cycle + tmro
                if tmro_wake < wake:
                    wake = tmro_wake
            if idle_close is not None and not book.queue:
                idle_wake = book.last_use + idle_close
                if idle_wake < wake:
                    wake = idle_wake
        return wake

    def _serve_demand(
        self,
        bank_id: int,
        cycle: int,
        book: BankBookkeeping,
        bank: Bank,
    ) -> int:
        """Serve one demand request; the caller guarantees a non-empty
        queue and passes the bank state it already fetched.  Returns the
        next wake cycle and records the completion in ``done_core`` /
        ``done_cycle``."""
        queue = book.queue
        counts = self.counts
        tccd = self._tCCD
        request = -1
        open_row = bank.open_row
        if open_row is not None:
            for queued in queue:
                if queued >> ROW_SHIFT == open_row:
                    request = queued
                    break
        if request >= 0:
            # Row hit: column access only (inlined Bank.column_access).
            # remove() drops the first equal int, which is this entry:
            # an earlier equal int would have matched the row first.
            self.row_hits += 1
            queue.remove(request)
            ready = bank._ready_col
            col_cycle = cycle if cycle >= ready else ready
            bank._ready_col = col_cycle + tccd
            data_cycle = col_cycle + self._tCAS
            book.columns_since_act += 1
        else:
            # Oldest request: conflict (open other row) or miss (closed).
            request = queue.pop(0)
            start = cycle
            if open_row is not None:
                self.row_conflicts += 1
                start = self._close_row(bank_id, cycle) + self._tPRE
            else:
                self.row_misses += 1
            # The demand ACT (inlined Bank.activate minus its timing
            # assertions, which cannot fire: start respects _ready_act).
            row = request >> ROW_SHIFT
            ready = bank._ready_act
            act_cycle = start if start >= ready else ready
            bank.open_row = row
            bank.act_cycle = act_cycle
            bank._ready_pre = act_cycle + self._tRAS
            col_cycle = act_cycle + self._tRCD
            bank._ready_col = col_cycle
            bank._ready_act = act_cycle + self._tRC
            book.act_cycle = act_cycle
            book.acts_since_rfm += 1
            counts.demand_acts += 1
            core_acts = self.core_demand_acts
            core_id = (request >> 1) & CORE_ID_MASK
            core_acts[core_id] = core_acts.get(core_id, 0) + 1
            # Looked up per ACT: observers (the batch recorder, the
            # invariant monitor, the divergence locator) swap these
            # slots after construction and read the ACT's core above.
            act_kernel = self._act_kernels[bank_id]
            if act_kernel is not None:
                book.pending_mitigations += act_kernel(row)
            bank._ready_col = col_cycle + tccd
            data_cycle = col_cycle + self._tCAS
            book.columns_since_act = 1
        is_write = request & 1
        if is_write:
            counts.writes += 1
        else:
            counts.reads += 1
        busy_until = col_cycle + tccd
        book.busy_until = busy_until
        book.last_use = col_cycle
        # MOP auto-precharge once the row-group burst is exhausted
        # (inlined _maybe_mop_close).
        mop = self.mop_burst_lines
        if (
            mop is not None
            and bank.open_row is not None
            and book.columns_since_act >= mop
        ):
            pre_ready = self._close_row(bank_id, col_cycle) + self._tPRE
            if pre_ready > busy_until:
                busy_until = pre_ready
                book.busy_until = busy_until
        # When nothing else is pending on this bank, skip the busy_until
        # no-op wakeup: report the real next deadline (refresh / tMRO /
        # idle close), clamped to busy_until so no work happens earlier
        # than it would have.  This removes one step round-trip per
        # request without moving any command to a different cycle.
        wake = busy_until
        if not queue and book.pending_mitigations == 0 and not (
            self.use_rfm and book.acts_since_rfm >= self.rfmth
        ):
            deadline = self.refresh[bank_id]._next_due
            if bank.open_row is not None:
                tmro = self.tmro_cycles
                if tmro is not None:
                    tmro_wake = book.act_cycle + tmro
                    if tmro_wake < deadline:
                        deadline = tmro_wake
                idle_close = self.idle_close_cycles
                if idle_close is not None:
                    idle_wake = book.last_use + idle_close
                    if idle_wake < deadline:
                        deadline = idle_wake
            if deadline > wake:
                wake = deadline
        self.done_core = (request >> 1) & CORE_ID_MASK
        self.done_cycle = col_cycle if is_write else data_cycle
        return wake

    # -- wrap-up -----------------------------------------------------------

    def flush_open_rows(self, cycle: int) -> None:
        """Close every open row at simulation end so EACTs are recorded."""
        for bank_id, bank in enumerate(self.banks):
            if bank.is_open:
                self._close_row(bank_id, max(cycle, bank.earliest_pre()))

    def hit_rate(self) -> float:
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0
