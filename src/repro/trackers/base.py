"""Common interface for Rowhammer trackers.

A tracker observes activations — possibly fractional, once ImPress-P
converts row-open time into EACT — and decides which aggressor rows to
mitigate.  Memory-controller-based trackers (Graphene, PARA) return
mitigations synchronously from :meth:`Tracker.record`; in-DRAM trackers
(Mithril, MINT) accumulate state and mitigate only when the controller
issues an RFM command (:meth:`Tracker.on_rfm`).

**Two record surfaces.**  :meth:`Tracker.record` is the readable,
validated API used by tests, the security verifier and attack replays:
it takes a float weight and returns the mitigated rows as a list.  The
simulator hot path instead goes through the *kernel* surface —
:meth:`Tracker.record_unit` and :meth:`Tracker.raw_kernel` — which
works on pre-scaled integers, allocates nothing per call, and returns a
plain mitigation count.  The mitigation schemes
(:mod:`repro.core.mitigation`) bind these kernels per bank once at
construction, so a row close costs one dict update instead of three
layers of dynamic dispatch.  Every concrete tracker implements both
surfaces over the *same* state, and the golden-sequence tests
(``tests/test_tracker_golden.py``) pin them to the original per-call
implementations bit for bit.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Kernel-surface callable: ``(row, raw_weight) -> mitigation count``.
RawRecordKernel = Callable[[int, int], int]


class Tracker(abc.ABC):
    """Abstract aggressor-row tracker."""

    __slots__ = ()

    #: True for trackers that live inside the DRAM chip and mitigate
    #: under RFM; False for memory-controller-based trackers.
    in_dram: bool = False

    @abc.abstractmethod
    def record(self, row: int, weight: float = 1.0, cycle: int = 0) -> List[int]:
        """Observe ``weight`` (E)ACTs on ``row``.

        Returns the aggressor rows that must be mitigated immediately
        (always empty for in-DRAM trackers).
        """

    def on_rfm(self, cycle: int = 0) -> Optional[int]:
        """Called when an RFM command arrives (in-DRAM trackers only).

        Returns the aggressor row to mitigate under this RFM, or None.
        """
        return None

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all tracking state (e.g. at the refresh window boundary)."""

    # -- kernel surface (simulator hot path) ---------------------------

    def record_unit(self, row: int) -> int:
        """Record one unit ACT on ``row``; returns the mitigation count.

        Kernel-surface equivalent of ``len(record(row, 1.0))``.  The
        default delegates to :meth:`record`; concrete trackers override
        it with an allocation-free integer path.
        """
        return len(self.record(row, 1.0))

    def raw_kernel(self, scale: int) -> Optional[RawRecordKernel]:
        """A ``(row, raw) -> count`` kernel for fixed-point weights.

        ``raw`` is the weight in units of ``1/scale`` (``scale`` a power
        of two — the caller's fraction-bit denominator).  Returns None
        when the tracker cannot consume raw weights at that scale, in
        which case the caller falls back to :meth:`record` with the
        equivalent float weight.
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

    def record(self, row: int, weight: float = 1.0, cycle: int = 0) -> List[int]:
        """Accumulate the (E)ACT weight credited to ``row``; never mitigates."""
        self.recorded[row] = self.recorded.get(row, 0.0) + weight
        self.total += weight
        return []

    def record_unit(self, row: int) -> int:
        """Kernel surface: one unit ACT, no list allocation."""
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
