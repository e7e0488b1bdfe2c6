"""MINT: a minimalist single-entry in-DRAM tracker.

MINT (Qureshi et al., MICRO 2024 — the paper's concurrent work) keeps
just three registers per bank:

* ``SAN`` — Selected Activation Number: which activation slot in the
  current RFM interval has been (randomly) chosen for mitigation;
* ``CAN`` — Current Activation Number: activations seen so far in the
  interval (widened by 7 fractional bits for ImPress-P);
* ``SAR`` — Selected Address Register: the row that occupied the
  selected slot.

At each RFM, the row in SAR (if valid) is mitigated, CAN resets, and a
fresh SAN is drawn uniformly from the next interval.  With ImPress-P,
CAN advances by EACT, so an access's chance of landing on the selected
slot is proportional to its EACT (Section VI-C).

The per-activation path is three integer registers, updated by
:meth:`record_unit` and :meth:`raw_kernel`.
"""

from __future__ import annotations

import random
from typing import Optional

from .base import RawRecordKernel, Tracker

#: Tolerated Rowhammer threshold per unit RFMTH (calibrated so that
#: RFMTH = 80 tolerates TRH = 1.6K, the figure of merit quoted in
#: Section III-B; MINT's own derivation is not reproduced here).
MINT_THRESHOLD_PER_RFMTH = 20.0


def mint_tolerated_threshold(rfmth: int) -> float:
    """Rowhammer threshold MINT tolerates at a given RFM threshold."""
    if rfmth < 1:
        raise ValueError("rfmth must be positive")
    return MINT_THRESHOLD_PER_RFMTH * rfmth


def mint_rfmth_for_threshold(trh: float) -> int:
    """Largest RFMTH whose tolerated threshold covers ``trh``."""
    if trh <= 0:
        raise ValueError("trh must be positive")
    return max(1, int(trh // MINT_THRESHOLD_PER_RFMTH))


class MintTracker(Tracker):
    """Per-bank MINT instance (in-DRAM)."""

    in_dram = True

    __slots__ = (
        "rfmth",
        "fraction_bits",
        "_scale",
        "rng",
        "_can",
        "_san",
        "_sar",
        "mitigations",
    )

    def __init__(
        self,
        rfmth: int = 80,
        fraction_bits: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if rfmth < 1:
            raise ValueError("rfmth must be positive")
        if fraction_bits < 0:
            raise ValueError("fraction_bits must be non-negative")
        self.rfmth = rfmth
        self.fraction_bits = fraction_bits
        self._scale = 1 << fraction_bits
        self.rng = rng or random.Random(0)
        self._can = 0                   # fixed-point CAN
        self._san = self._draw_san()
        self._sar: Optional[int] = None
        self.mitigations = 0

    def _draw_san(self) -> int:
        """Uniform slot in (0, RFMTH], in fixed-point units."""
        span = self.rfmth * self._scale
        return self.rng.randrange(span) + 1

    @property
    def can(self) -> float:
        """Current Activation Number: (E)ACTs seen this RFM interval."""
        return self._can / self._scale

    @property
    def san(self) -> float:
        """Selected Activation Number: the randomly chosen slot."""
        return self._san / self._scale

    @property
    def sar(self) -> Optional[int]:
        """Selected Address Register: row captured for the next RFM."""
        return self._sar

    def record_unit(self, row: int) -> int:
        """One unit ACT advances CAN by one scale."""
        return self._kernel(row, self._scale)

    def raw_kernel(self, scale: int) -> Optional[RawRecordKernel]:
        """The register kernel, valid only at the tracker's own scale."""
        if scale != self._scale:
            return None
        return self._kernel

    def _kernel(self, row: int, raw: int) -> int:
        """Advance CAN; capture ``row`` when it covers the selected slot.

        With ImPress-P the EACT weight widens the slot span the access
        covers, so its capture probability is proportional to its
        row-open time (Section VI-C).  Always returns 0: MINT never
        mitigates on the record path.
        """
        if raw == 0:
            return 0
        before = self._can
        self._can = before + raw
        # The access covers slots (before, before + raw]; if the selected
        # slot falls inside, this row is captured for the next RFM.
        if before < self._san <= self._can:
            self._sar = row
        return 0

    def on_rfm(self, cycle: int = 0) -> Optional[int]:
        """Mitigate the captured row and start a fresh RFM interval."""
        victim_source = self._sar
        self._sar = None
        self._can = 0
        self._san = self._draw_san()
        if victim_source is not None:
            self.mitigations += 1
        return victim_source

    def reset(self) -> None:
        """Clear CAN/SAR and redraw SAN (refresh-window boundary)."""
        self._can = 0
        self._sar = None
        self._san = self._draw_san()
