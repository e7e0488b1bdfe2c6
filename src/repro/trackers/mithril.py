"""Mithril: in-DRAM counter-based summary tracking under RFM.

Mithril (Kim et al., HPCA 2022) keeps a Counter-based Summary (a
Misra-Gries-style table) inside the DRAM chip.  The memory controller
issues an RFM command every ``RFMTH`` activations per bank; under each
RFM, Mithril mitigates the row with the highest counter and resets that
counter to the current spillover floor.  Because mitigation happens under
RFM, the access pattern cannot change Mithril's performance cost
(Appendix B of the ImPress paper).

For ImPress-P, each counter is widened by 7 fractional bits and
incremented by EACT instead of 1 (Section VI-C).

**Kernel engineering.**  Both lazy heaps hold packed ints instead of
tuples: the min-heap packs ``(count << 32) | row`` and the max-heap
packs ``row - (count << 32)`` (rows sit in the low 32 bits, so integer
order equals the original ``(count, row)`` / ``(-count, row)`` tuple
order, tie-break included).  Each record does two int pushes and zero
container allocations; :meth:`record_unit`/:meth:`raw_kernel` feed the
kernel raw fixed-point weights straight from the mitigation scheme.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional

from .base import RawRecordKernel, Tracker

_ROW_BITS = 32
_ROW_MASK = (1 << _ROW_BITS) - 1


class MithrilTracker(Tracker):
    """Per-bank Mithril instance (in-DRAM)."""

    in_dram = True

    __slots__ = (
        "entries",
        "fraction_bits",
        "_scale",
        "_table",
        "_spill",
        "_heap",
        "_min_heap",
        "mitigations",
    )

    def __init__(self, entries: int, fraction_bits: int = 0) -> None:
        if entries < 1:
            raise ValueError("entries must be positive")
        if fraction_bits < 0:
            raise ValueError("fraction_bits must be non-negative")
        self.entries = entries
        self.fraction_bits = fraction_bits
        self._scale = 1 << fraction_bits
        self._table: Dict[int, int] = {}
        self._spill = 0
        # Lazy max-heap (row - (count << 32)) for top-row retrieval at
        # RFM and lazy min-heap ((count << 32) | row) for Misra-Gries
        # eviction; stale entries are discarded on pop so both stay
        # O(log n) amortized.
        self._heap: List[int] = []
        self._min_heap: List[int] = []
        self.mitigations = 0

    def count_for(self, row: int) -> float:
        """Tracked (E)ACT count of ``row`` (0 when untracked)."""
        return self._table.get(row, 0) / self._scale

    @property
    def spillover(self) -> float:
        """Misra-Gries spillover floor (in ACT units) untracked rows share."""
        return self._spill / self._scale

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

        Counters carry ImPress-P's fractional EACT bits when configured.
        Always returns 0: Mithril mitigates under :meth:`on_rfm`, never
        here.
        """
        if raw == 0:
            return 0
        table = self._table
        count = table.get(row)
        if count is not None:
            count += raw
            table[row] = count
            shifted = count << _ROW_BITS
            heappush(self._heap, row - shifted)
            heappush(self._min_heap, shifted | row)
        elif len(table) < self.entries:
            count = self._spill + raw
            table[row] = count
            shifted = count << _ROW_BITS
            heappush(self._heap, row - shifted)
            heappush(self._min_heap, shifted | row)
        else:
            self._spill += raw
            self._swap_if_caught_up(row)
        return 0

    def _swap_if_caught_up(self, row: int) -> None:
        """Evict the minimum entry once spillover reaches it (Misra-Gries)."""
        min_heap = self._min_heap
        table = self._table
        while min_heap:
            packed = min_heap[0]
            candidate = packed & _ROW_MASK
            count = packed >> _ROW_BITS
            current = table.get(candidate)
            if current is None or current != count:
                heappop(min_heap)
                if current is not None:
                    heappush(min_heap, (current << _ROW_BITS) | candidate)
                continue
            if self._spill >= count:
                heappop(min_heap)
                del table[candidate]
                spill = self._spill
                table[row] = spill
                shifted = spill << _ROW_BITS
                heappush(self._heap, row - shifted)
                heappush(min_heap, shifted | row)
            return

    def on_rfm(self, cycle: int = 0) -> Optional[int]:
        """Mitigate the hottest tracked row; reset it to the spill floor."""
        heap = self._heap
        table = self._table
        while heap:
            packed = heap[0]
            row = packed & _ROW_MASK
            count = (row - packed) >> _ROW_BITS
            current = table.get(row)
            if current is None or current != count:
                heappop(heap)
                continue
            heappop(heap)
            spill = self._spill
            table[row] = spill
            shifted = spill << _ROW_BITS
            heappush(heap, row - shifted)
            heappush(self._min_heap, shifted | row)
            self.mitigations += 1
            return row
        return None

    def reset(self) -> None:
        """Clear the summary and spillover (refresh-window boundary)."""
        self._table.clear()
        self._heap.clear()
        self._min_heap.clear()
        self._spill = 0
