"""Row-Press mitigation schemes: No-RP, ExPress, ImPress-N, ImPress-P.

A mitigation scheme sits between the DRAM banks and the Rowhammer
trackers.  It decides *what* each piece of bank activity is worth to the
tracker:

* **No-RP** — the Row-Press-oblivious baseline: one record per ACT.
* **ExPress** (Luo et al.) — also one record per ACT, but the memory
  controller additionally limits row-open time to tMRO and the tracker
  must be provisioned for the reduced threshold T* (Fig 1c).
* **ImPress-N** — divides time into tRC windows; a row open for a full
  window is recorded as one extra activation (Fig 9).  Sub-window
  Row-Press stays unmitigated, costing up to (1 + alpha) in threshold
  (Eq 5).
* **ImPress-P** — measures tON precisely, converts (tON + tPRE)/tRC into
  a fractional EACT and records that weight (Fig 11).  No threshold loss
  with full-precision counters.

A scheme is its *per-bank kernel lists*, built once at construction —
:meth:`MitigationScheme.act_kernels`, :meth:`~MitigationScheme.close_kernels`
and :meth:`~MitigationScheme.rfm_kernels` — which bind each bank's
tracker kernels (see :mod:`repro.trackers.base`) directly, so the
per-row close path costs one call into flat integer state.  An act or
close kernel returns how many mitigations of its row the tracker
wants; the controller turns those into victim refreshes.  In-DRAM
trackers mitigate under RFM instead and return 0 from the record path.
The controller, the security verifier (:mod:`repro.security.verifier`)
and the tests all drive these same kernels: the act kernel at ACT, the
close kernel at PRE.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Sequence

from ..dram.timing import CycleTimings
from ..trackers.base import Tracker

#: Activate kernel: ``(row) -> mitigation count`` (None = no ACT work).
ActKernel = Optional[Callable[[int], int]]
#: Close kernel: ``(row, act_cycle, close_cycle) -> mitigation count``
#: (None = nothing to record at row close).
CloseKernel = Optional[Callable[[int, int, int], int]]


class MitigationScheme(abc.ABC):
    """Feeds bank activity into per-bank trackers under one RP policy."""

    name: str = "base"

    def __init__(
        self, trackers: Sequence[Tracker], timings: CycleTimings
    ) -> None:
        if not trackers:
            raise ValueError("need at least one per-bank tracker")
        self.trackers = list(trackers)
        self.timings = timings
        self._act_kernels: List[ActKernel] = self._build_act_kernels()
        self._close_kernels: List[CloseKernel] = self._build_close_kernels()
        self._rfm_kernels = [tracker.on_rfm for tracker in self.trackers]

    # -- kernel surface (bound per bank, consumed by the controller) ----

    def _build_act_kernels(self) -> List[ActKernel]:
        """Default: every ACT records one unit into the bank's tracker."""
        return [tracker.record_unit for tracker in self.trackers]

    def _build_close_kernels(self) -> List[CloseKernel]:
        """Default: nothing is recorded when a row closes."""
        return [None] * len(self.trackers)

    def act_kernels(self) -> List[ActKernel]:
        """Per-bank ``(row) -> count`` activation kernels (None = no-op)."""
        return self._act_kernels

    def close_kernels(self) -> List[CloseKernel]:
        """Per-bank ``(row, act, close) -> count`` kernels (None = no-op)."""
        return self._close_kernels

    def rfm_kernels(self) -> List[Callable[[int], Optional[int]]]:
        """Per-bank bound ``Tracker.on_rfm`` methods."""
        return self._rfm_kernels

    def tmro_cycles(self) -> Optional[int]:
        """Row-open-time limit the controller must enforce (ExPress only)."""
        return None

    def storage_bytes_per_bank(self) -> int:
        """Extra per-bank state the scheme itself needs (not the tracker)."""
        return 0


class NoRpScheme(MitigationScheme):
    """Row-Press-oblivious baseline: plain Rowhammer tracking."""

    name = "no-rp"


class ExpressScheme(MitigationScheme):
    """Explicit Row-Press mitigation (Luo et al.).

    The controller closes any row open for ``tmro`` cycles; the trackers
    passed in must already be provisioned for the reduced threshold
    T* = TRH / TCL(tMRO) — use :mod:`repro.trackers.sizing` and
    :mod:`repro.data.rowpress` to compute it.
    """

    name = "express"

    def __init__(
        self,
        trackers: Sequence[Tracker],
        timings: CycleTimings,
        tmro_cycles: int,
    ) -> None:
        super().__init__(trackers, timings)
        if tmro_cycles < timings.tRAS:
            raise ValueError("tMRO cannot be below tRAS")
        self._tmro = tmro_cycles

    def tmro_cycles(self) -> Optional[int]:
        """The tMRO row-open limit the controller enforces for ExPress."""
        return self._tmro


class ImpressNScheme(MitigationScheme):
    """ImPress-N: integer window accounting (Section V).

    Time is divided into global windows of tRC.  A row open across an
    entire window is treated as having caused one activation in that
    window.  The hardware mechanism (Fig 9) samples the Open-Row Address
    register at each window boundary and credits a row seen at two
    consecutive boundaries; a row only registers as open once its
    activation completes (tACT after the ACT command), which is exactly
    the hole the Fig-10 decoy pattern exploits: an ACT landing within
    the last tACT of a window is invisible at that boundary, so a row
    open for tRAS + tRC can evade all credits (Eq 5).

    Hardware-precision caveat: combining the tACT slack on the open
    side with a close just before a boundary lets an adversary stretch
    the credit-free open time slightly past tRAS + tRC (by up to
    tACT + tPRE).  Eq 5's "at most one tRC unmitigated" bound holds at
    the paper's one-window granularity; the exact per-round bound this
    implementation guarantees is 1 + alpha * (tRC + tACT + tPRE)/tRC.
    """

    name = "impress-n"

    def _build_close_kernels(self) -> List[CloseKernel]:
        """One window-credit kernel per bank, tRC/tACT folded in (Fig 9)."""
        trc = self.timings.tRC
        tact = self.timings.tACT
        kernels: List[CloseKernel] = []
        for tracker in self.trackers:
            record_unit = tracker.record_unit

            def kernel(
                row: int,
                act_cycle: int,
                close_cycle: int,
                record_unit=record_unit,
                trc=trc,
                tact=tact,
            ) -> int:
                # One credit per full tRC window the row stayed open; a
                # row is only visible once its activation completes.
                first_boundary = -(-(act_cycle + tact) // trc)  # ceil div
                credits = close_cycle // trc - first_boundary
                fired = 0
                while credits > 0:
                    fired += record_unit(row)
                    credits -= 1
                return fired

            kernels.append(kernel)
        return kernels

    def storage_bytes_per_bank(self) -> int:
        """1-byte window timer + 3-byte Open-Row Address register."""
        return 4


class ImpressPScheme(MitigationScheme):
    """ImPress-P: precise EACT accounting (Section VI).

    A per-bank timer measures tON; on close the access's total time
    (tON + tPRE) is divided by tRC to get the Equivalent Activation
    Count, truncated to ``fraction_bits`` fractional bits, and recorded
    as the access's weight.  The plain ACT record is *not* also sent —
    EACT already includes the first activation's unit of damage
    (EACT >= 1 by construction).  Every bank's tracker must take raw
    weights at scale ``2**fraction_bits`` (:meth:`Tracker.raw_kernel`),
    so a counter tracker needs the scheme's ``fraction_bits``.
    """

    name = "impress-p"

    def __init__(
        self,
        trackers: Sequence[Tracker],
        timings: CycleTimings,
        fraction_bits: int = 7,
    ) -> None:
        if fraction_bits < 0:
            raise ValueError("fraction_bits must be non-negative")
        # Set before super().__init__: kernel construction needs it.
        self.fraction_bits = fraction_bits
        super().__init__(trackers, timings)

    def _build_act_kernels(self) -> List[ActKernel]:
        """No-op: damage is recorded at close time, once tON is known."""
        return [None] * len(self.trackers)

    def _build_close_kernels(self) -> List[CloseKernel]:
        """One EACT kernel per bank (Fig 11).

        The kernel quantizes EACT = (tON + tPRE)/tRC straight to the
        tracker's fixed point, ``raw = int(eact * scale)``: truncation
        drops the low bits, so the recorded damage never exceeds the
        true damage (the error source behind Fig 12), and for
        ``eact >= 1`` it never records less than one ACT.
        """
        scale = 1 << self.fraction_bits
        trc = self.timings.tRC
        tpre = self.timings.tPRE
        kernels: List[CloseKernel] = []
        for bank, tracker in enumerate(self.trackers):
            raw_record = tracker.raw_kernel(scale)
            if raw_record is None:
                raise ValueError(
                    f"bank {bank}'s {type(tracker).__name__} takes no raw "
                    f"weights at {self.fraction_bits} fraction bits"
                )

            def kernel(
                row: int,
                act_cycle: int,
                close_cycle: int,
                raw_record=raw_record,
                scale=scale,
                trc=trc,
                tpre=tpre,
            ) -> int:
                eact = (close_cycle - act_cycle + tpre) / trc
                return raw_record(row, int(eact * scale))

            kernels.append(kernel)
        return kernels

    def storage_bytes_per_bank(self) -> int:
        """A single 10-bit tON timer, rounded up to bytes."""
        return 2


SCHEME_NAMES = ("no-rp", "express", "impress-n", "impress-p")
