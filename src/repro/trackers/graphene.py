"""Graphene: Misra-Gries counter tracking at the memory controller.

Graphene (Park et al., MICRO 2020) keeps a Misra-Gries frequent-items
summary per bank: a fixed table of (row, counter) entries plus a spillover
counter.  Any row whose true activation count exceeds the spillover is
guaranteed to be tracked; a mitigation (victim refresh) is issued when an
entry's counter reaches the internal threshold, after which that counter
resets.  The number of entries required is inversely proportional to the
threshold (Section III-B of the ImPress paper).

For ImPress-P the counters carry fractional EACT bits: the raw kernel
takes fixed-point weights and the counters accumulate them exactly.

**Kernel engineering.**  The per-activation path is an integer kernel:
the table maps row -> raw fixed-point count, and the lazy eviction heap
holds ``(count << 32) | row`` packed ints instead of tuples — packed
ordering equals tuple ordering (count first, row tie-break) because rows
are below 2**32, so heap behavior is bit-identical to the original
tuple heap while each push allocates no container.
:meth:`record_unit`/:meth:`raw_kernel` expose the kernel to the
mitigation schemes.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional

from .base import RawRecordKernel, Tracker

#: Rows are packed into the low bits of heap entries; row ids must stay
#: below this for packed ordering to equal (count, row) tuple ordering.
_ROW_BITS = 32
_ROW_MASK = (1 << _ROW_BITS) - 1


class GrapheneTracker(Tracker):
    """Per-bank Graphene instance.

    Parameters
    ----------
    entries:
        Misra-Gries table size (448 per bank for TRH = 4K, Table in
        Section III-B; double that for ExPress / ImPress-N at alpha = 1).
    internal_threshold:
        Counter value at which a mitigation fires (1333 for TRH = 4K).
    fraction_bits:
        Fixed-point fractional bits for EACT support (0 for the classic
        integer design, 7 for ImPress-P's default).
    """

    in_dram = False

    __slots__ = (
        "entries",
        "fraction_bits",
        "_scale",
        "_threshold_raw",
        "_table",
        "_spill",
        "_heap",
        "mitigations",
    )

    def __init__(
        self,
        entries: int,
        internal_threshold: float,
        fraction_bits: int = 0,
    ) -> None:
        if entries < 1:
            raise ValueError("entries must be positive")
        if internal_threshold <= 0:
            raise ValueError("internal_threshold must be positive")
        if fraction_bits < 0:
            raise ValueError("fraction_bits must be non-negative")
        self.entries = entries
        self.fraction_bits = fraction_bits
        self._scale = 1 << fraction_bits
        self._threshold_raw = int(internal_threshold * self._scale)
        self._table: Dict[int, int] = {}
        self._spill = 0
        # Lazy min-heap of (count_at_push << 32) | row packed ints;
        # stale entries are discarded on pop.  Keeps eviction O(log n)
        # amortized with no per-push tuple.
        self._heap: List[int] = []
        self.mitigations = 0

    @property
    def internal_threshold(self) -> float:
        """Counter value (in ACT units) at which a mitigation fires."""
        return self._threshold_raw / self._scale

    @property
    def spillover(self) -> float:
        """The Misra-Gries spillover counter, in ACT units.

        Every untracked activation lands here; a row's true count can
        exceed its table counter by at most this value, which is what
        makes the frequent-items guarantee hold.
        """
        return self._spill / self._scale

    def count_for(self, row: int) -> float:
        """Tracked (E)ACT count of ``row`` (0 when untracked)."""
        return self._table.get(row, 0) / self._scale

    def record_unit(self, row: int) -> int:
        """One unit ACT (raw weight = scale)."""
        return self._kernel(row, self._scale)

    def raw_kernel(self, scale: int) -> Optional[RawRecordKernel]:
        """The integer kernel, valid only at the tracker's own scale."""
        if scale != self._scale:
            return None
        return self._kernel

    def _kernel(self, row: int, raw: int) -> int:
        """Misra-Gries update with a raw fixed-point weight.

        With ImPress-P the weight is the access's fractional EACT.
        Returns the number of mitigations fired (0 or 1): 1 when the
        internal threshold is crossed and a victim refresh is due.
        """
        if raw == 0:
            return 0
        table = self._table
        count = table.get(row)
        if count is not None:
            count += raw
            table[row] = count
        elif len(table) < self.entries:
            count = self._spill + raw
            table[row] = count
            heappush(self._heap, (count << _ROW_BITS) | row)
        else:
            self._spill += raw
            count = self._maybe_swap_in(row)
            if count is None:
                return 0
        if count >= self._threshold_raw:
            table[row] = 0
            heappush(self._heap, row)  # count 0 packs to just the row
            self.mitigations += 1
            return 1
        return 0

    def _maybe_swap_in(self, row: int) -> int | None:
        """Misra-Gries swap: if spill caught up with the minimum entry,
        evict that entry and install ``row`` with the spill count."""
        heap = self._heap
        table = self._table
        while heap:
            packed = heap[0]
            candidate = packed & _ROW_MASK
            count = packed >> _ROW_BITS
            current = table.get(candidate)
            if current is None or current != count:
                heappop(heap)
                if current is not None:
                    heappush(heap, (current << _ROW_BITS) | candidate)
                continue
            if self._spill >= count:
                heappop(heap)
                del table[candidate]
                new_count = self._spill
                table[row] = new_count
                heappush(heap, (new_count << _ROW_BITS) | row)
                return new_count
            return None
        return None

    def reset(self) -> None:
        """Clear the table and spillover (refresh-window boundary)."""
        self._table.clear()
        self._heap.clear()
        self._spill = 0

    def tracked_rows(self) -> List[int]:
        """Rows currently holding a Misra-Gries table entry."""
        return list(self._table)
