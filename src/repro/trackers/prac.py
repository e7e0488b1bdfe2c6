"""PRAC: Per-Row Activation Counting (JESD79-5C), with ImPress support.

Section VI-F: for very low Rowhammer thresholds, industry and JEDEC are
adopting PRAC, where the DRAM array stores an activation counter per
row.  When a row's counter crosses the alert threshold, the DRAM raises
Alert-Back-Off (ABO): the controller pauses and the DRAM refreshes the
victims, after which the counter resets.

The paper notes ImPress composes directly with PRAC: widen each per-row
counter by 7 fractional bits and increment by EACT instead of 1.  This
module implements that tracker so the ablation bench can show PRAC+
ImPress-P holding T* at any threshold where Graphene/PARA become
impractical.
"""

from __future__ import annotations

from typing import Dict, Optional

from .base import RawRecordKernel, Tracker

#: JEDEC DDR5 rows per bank in our 32 GB/channel configuration.
DEFAULT_ROWS_PER_BANK = 65536


class PracTracker(Tracker):
    """Per-row activation counters with Alert-Back-Off mitigation.

    Mitigation is synchronous from the controller's perspective: when a
    counter crosses ``alert_threshold`` the row is nominated for victim
    refresh and its counter resets (the ABO flow).  PRAC is in-DRAM
    storage-wise, but unlike Mithril/MINT it does not wait for RFM, so
    we model it on the MC-visible path.

    The per-activation path is one sparse-dict update on raw
    fixed-point weights.
    """

    in_dram = False

    __slots__ = (
        "alert_threshold",
        "rows_per_bank",
        "fraction_bits",
        "_scale",
        "_alert_raw",
        "_counters",
        "alerts",
    )

    def __init__(
        self,
        alert_threshold: float,
        rows_per_bank: int = DEFAULT_ROWS_PER_BANK,
        fraction_bits: int = 0,
    ) -> None:
        if alert_threshold <= 0:
            raise ValueError("alert_threshold must be positive")
        if rows_per_bank < 1:
            raise ValueError("rows_per_bank must be positive")
        if fraction_bits < 0:
            raise ValueError("fraction_bits must be non-negative")
        self.alert_threshold = alert_threshold
        self.rows_per_bank = rows_per_bank
        self.fraction_bits = fraction_bits
        self._scale = 1 << fraction_bits
        self._alert_raw = int(alert_threshold * self._scale)
        # Sparse counter map: the array conceptually has one counter per
        # row; untouched rows stay at zero.
        self._counters: Dict[int, int] = {}
        self.alerts = 0

    def count_for(self, row: int) -> float:
        """Per-row activation counter value ((E)ACT units)."""
        return self._counters.get(row, 0) / self._scale

    def record_unit(self, row: int) -> int:
        """One unit ACT (raw weight = scale)."""
        return self._kernel(row, self._scale)

    def raw_kernel(self, scale: int) -> Optional[RawRecordKernel]:
        """The counter kernel, valid only at the tracker's own scale."""
        if scale != self._scale:
            return None
        return self._kernel

    def _kernel(self, row: int, raw: int) -> int:
        """Advance ``row``'s in-array counter by the (E)ACT weight.

        Crossing the alert threshold raises Alert-Back-Off: returns 1
        (the row is due a victim refresh) and the counter resets.  With
        ImPress-P the counter is widened by fractional EACT bits
        (Section VI-F).
        """
        if not 0 <= row < self.rows_per_bank:
            raise ValueError(f"row {row} outside the bank")
        if raw == 0:
            return 0
        counters = self._counters
        count = counters.get(row, 0) + raw
        if count >= self._alert_raw:
            counters[row] = 0
            self.alerts += 1
            return 1
        counters[row] = count
        return 0

    def reset(self) -> None:
        """Zero every per-row counter (refresh-window boundary)."""
        self._counters.clear()

    def storage_bits_per_row(self, max_count: float | None = None) -> int:
        """Counter width per row (the DRAM-array cost of PRAC).

        The alert threshold bounds the integer part; ImPress-P adds the
        fractional bits (Section VI-F).
        """
        bound = int(max_count if max_count is not None else self.alert_threshold)
        return max(1, bound.bit_length()) + self.fraction_bits

    def storage_kib_per_bank(self) -> float:
        """Total DRAM-array counter storage per bank (KiB)."""
        return self.rows_per_bank * self.storage_bits_per_row() / 8 / 1024
