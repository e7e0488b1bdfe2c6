"""DRAM bank state machine with JEDEC-style timing enforcement.

Each bank tracks its open row, when it was opened, and the earliest cycles
at which the next ACT/PRE/column command is legal.  The bank reports no
events: the memory controller hands each demand ACT and each row close
to the mitigation scheme's per-bank kernel slots
(:class:`~repro.memctrl.controller.ChannelController`), and anything that
observes a run — the batch recorder, the invariant monitor, the
divergence locator — wraps those slots.
"""

from __future__ import annotations

from typing import Optional

from .timing import CycleTimings


class TimingViolation(RuntimeError):
    """A command was issued before its earliest legal cycle."""


class Bank:
    """A single DRAM bank.

    The bank is purely reactive: callers (the memory controller, unit
    tests) issue commands at chosen cycles, and the bank validates
    timing and maintains row-buffer state.
    """

    __slots__ = (
        "timings",
        "bank_id",
        "open_row",
        "act_cycle",
        "_ready_act",
        "_ready_pre",
        "_ready_col",
    )

    def __init__(
        self,
        timings: CycleTimings,
        bank_id: int = 0,
        open_row: Optional[int] = None,
        act_cycle: int = -1,
    ) -> None:
        self.timings = timings
        self.bank_id = bank_id
        self.open_row = open_row
        self.act_cycle = act_cycle    #: cycle the open row was activated
        self._ready_act = 0
        self._ready_pre = 0
        self._ready_col = 0

    # -- timing queries -----------------------------------------------

    def earliest_act(self) -> int:
        """Earliest cycle an ACT may be issued (row must be closed)."""
        return self._ready_act

    def earliest_pre(self) -> int:
        """Earliest cycle the open row may be precharged."""
        return self._ready_pre

    @property
    def is_open(self) -> bool:
        return self.open_row is not None

    # -- commands -------------------------------------------------------

    def activate(self, row: int, cycle: int) -> None:
        """Open ``row``; the bank must be precharged and past tRC."""
        if self.open_row is not None:
            raise TimingViolation(
                f"bank {self.bank_id}: ACT while row {self.open_row} open"
            )
        if cycle < self._ready_act:
            raise TimingViolation(
                f"bank {self.bank_id}: ACT at {cycle} before {self._ready_act}"
            )
        timings = self.timings
        self.open_row = row
        self.act_cycle = cycle
        self._ready_pre = cycle + timings.tRAS
        self._ready_col = cycle + timings.tRCD
        self._ready_act = cycle + timings.tRC

    def column_access(self, cycle: int) -> int:
        """Issue a RD/WR burst; returns the cycle data is available."""
        if self.open_row is None:
            raise TimingViolation(f"bank {self.bank_id}: column access, no row")
        if cycle < self._ready_col:
            raise TimingViolation(
                f"bank {self.bank_id}: column at {cycle} before {self._ready_col}"
            )
        self._ready_col = cycle + self.timings.tCCD
        return cycle + self.timings.tCAS

    def precharge(self, cycle: int) -> int:
        """Close the open row; returns cycles the row was open (sans tPRE)."""
        if self.open_row is None:
            raise TimingViolation(f"bank {self.bank_id}: PRE with no open row")
        if cycle < self._ready_pre:
            raise TimingViolation(
                f"bank {self.bank_id}: PRE at {cycle} before {self._ready_pre}"
            )
        open_cycles = cycle - self.act_cycle
        self.open_row = None
        ready = cycle + self.timings.tPRE
        if ready > self._ready_act:
            self._ready_act = ready
        return open_cycles

    def block_until(self, cycle: int) -> None:
        """Reserve the (closed) bank for internal work until ``cycle``.

        Used for mitigative victim-refresh bursts, which occupy the bank
        without going through the demand ACT path.
        """
        if self.open_row is not None:
            raise TimingViolation(
                f"bank {self.bank_id}: cannot block with row open"
            )
        if cycle > self._ready_act:
            self._ready_act = cycle

    def refresh(self, cycle: int) -> int:
        """Perform a REF; the row must be closed.  Returns completion cycle."""
        if self.open_row is not None:
            raise TimingViolation(f"bank {self.bank_id}: REF with open row")
        if cycle < self._ready_act:
            raise TimingViolation(
                f"bank {self.bank_id}: REF at {cycle} before {self._ready_act}"
            )
        done = cycle + self.timings.tRFC
        self._ready_act = done
        return done

    def rfm(self, cycle: int) -> int:
        """Perform an RFM; the row must be closed.  Returns completion cycle."""
        if self.open_row is not None:
            raise TimingViolation(f"bank {self.bank_id}: RFM with open row")
        if cycle < self._ready_act:
            raise TimingViolation(
                f"bank {self.bank_id}: RFM at {cycle} before {self._ready_act}"
            )
        done = cycle + self.timings.tRFM
        self._ready_act = done
        return done
