"""Common interface for Rowhammer trackers.

A tracker observes activations — possibly fractional, once ImPress-P
converts row-open time into EACT — and decides which aggressor rows to
mitigate.  Memory-controller-based trackers (Graphene, PARA, PRAC)
report a mitigation of the recorded row synchronously; in-DRAM trackers
(Mithril, MINT) accumulate state and mitigate only when the controller
issues an RFM command (:meth:`Tracker.on_rfm`).

**One record surface.**  A tracker is fed through two kernels:
:meth:`Tracker.record_unit` for one unit ACT and the closure returned
by :meth:`Tracker.raw_kernel` for a fixed-point weight.  Both work on
pre-scaled integers, allocate nothing per call and return a plain
mitigation count (the mitigated row is always the recorded one).  The
mitigation schemes (:mod:`repro.core.mitigation`) bind these kernels
per bank once at construction; the simulator, the security verifier
and the tests all drive the same bound kernels, and the golden-sequence
tests (``tests/test_tracker_golden.py``) pin them bit for bit.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

#: Kernel-surface callable: ``(row, raw_weight) -> mitigation count``.
RawRecordKernel = Callable[[int, int], int]


class Tracker(abc.ABC):
    """Abstract aggressor-row tracker."""

    __slots__ = ()

    #: True for trackers that live inside the DRAM chip and mitigate
    #: under RFM; False for memory-controller-based trackers.
    in_dram: bool = False

    def on_rfm(self, cycle: int = 0) -> Optional[int]:
        """Called when an RFM command arrives (in-DRAM trackers only).

        Returns the aggressor row to mitigate under this RFM, or None.
        """
        return None

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all tracking state (e.g. at the refresh window boundary)."""

    # -- record kernels --------------------------------------------------

    @abc.abstractmethod
    def record_unit(self, row: int) -> int:
        """Record one unit ACT on ``row``; returns the mitigation count."""

    def raw_kernel(self, scale: int) -> Optional[RawRecordKernel]:
        """A ``(row, raw) -> count`` kernel for fixed-point weights.

        ``raw`` is the weight in units of ``1/scale`` (``scale`` a power
        of two — the caller's fraction-bit denominator).  Returns None
        when the tracker cannot consume raw weights at that scale;
        ImPress-P rejects such a tracker at construction.
        """
        return None


@dataclass(slots=True)
class AccountingTracker(Tracker):
    """A tracker that only records: per-row accumulated (E)ACT weight.

    Used by the security verifier to measure how much damage a defense
    *credits* to a row, which is then compared against the true charge
    loss from the unified model.  It never mitigates.
    """

    in_dram: bool = False
    recorded: Dict[int, float] = field(default_factory=dict)
    total: float = 0.0

    def record_unit(self, row: int) -> int:
        """One unit ACT credited to ``row``; never mitigates."""
        recorded = self.recorded
        recorded[row] = recorded.get(row, 0.0) + 1.0
        self.total += 1.0
        return 0

    def raw_kernel(self, scale: int) -> Optional[RawRecordKernel]:
        """Accumulate ``raw/scale`` exactly (scale is a power of two)."""
        recorded = self.recorded

        def _kernel(row: int, raw: int) -> int:
            weight = raw / scale
            recorded[row] = recorded.get(row, 0.0) + weight
            self.total += weight
            return 0

        return _kernel

    def recorded_for(self, row: int) -> float:
        """Charge-accounting total the defense has credited to ``row``."""
        return self.recorded.get(row, 0.0)

    def reset(self) -> None:
        """Forget all per-row accounting (refresh-window boundary)."""
        self.recorded.clear()
        self.total = 0.0
