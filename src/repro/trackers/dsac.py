"""DSAC-style time-weighted counting, as critiqued in Section VII.

DSAC (Hong et al., 2023) weighs activations by a *logarithmic* function
of the row-open time.  The ImPress paper's Related Work shows why this
underestimates Row-Press: at tON = 256 tRC the logarithmic weight is
about 8, whereas the characterization demands ~0.48 * 256 = 122 — a 15x
underestimate that an attacker converts into unmitigated charge loss.

We implement the weighting so the critique is reproducible: the
:mod:`repro.security` verifier run against this weighting exhibits the
threshold collapse the paper predicts.
"""

from __future__ import annotations

import math
from typing import Optional

from .base import RawRecordKernel, Tracker

_log2 = math.log2


def dsac_weight(ton_trc: float) -> float:
    """DSAC's logarithmic time weight for a row open ``ton_trc``.

    Normalized so a minimal access (1 tRC) weighs 1 and tON = 256 tRC
    weighs 8 (the paper's example): weight = 1 + log2(tON/tRC) * 7/8.
    """
    if ton_trc < 1.0:
        raise ValueError("tON cannot be below one tRC")
    return 1.0 + _log2(ton_trc) * (7.0 / 8.0)


def impress_weight(ton_trc: float, alpha: float = 0.48) -> float:
    """The linear weight the characterization requires (CLM, Eq 3)."""
    if ton_trc < 1.0:
        raise ValueError("tON cannot be below one tRC")
    return 1.0 + alpha * (ton_trc - 0.75)


def underestimation_factor(ton_trc: float, alpha: float = 0.48) -> float:
    """How far DSAC's weight falls below the required weight."""
    return impress_weight(ton_trc, alpha) / dsac_weight(ton_trc)


class DsacLikeTracker(Tracker):
    """A counter tracker that applies the DSAC weighting itself.

    The raw kernel receives the access's open time (in tRC units) as the
    weight and *re-weighs* it logarithmically — in contrast to ImPress-P
    trackers, which accumulate the weight they are given.  Two further
    DSAC properties the paper criticizes are modeled: newly-installed
    rows always start at weight 1 (Row-Press on insertion is ignored),
    and counters are integer-valued.

    The table is a plain int dict; eviction keeps the original
    first-minimum (insertion-order tie-break) semantics.  Both kernels
    (:meth:`record_unit` / :meth:`raw_kernel`) run one update,
    :meth:`_update` — a unit activation's DSAC weight is exactly 1, so
    ``record_unit`` skips the logarithm.
    """

    in_dram = True

    __slots__ = ("entries", "mitigation_threshold", "_table", "mitigations")

    def __init__(self, entries: int, mitigation_threshold: float) -> None:
        if entries < 1:
            raise ValueError("entries must be positive")
        if mitigation_threshold <= 0:
            raise ValueError("mitigation_threshold must be positive")
        self.entries = entries
        self.mitigation_threshold = mitigation_threshold
        self._table: dict = {}
        self.mitigations = 0

    def record_unit(self, row: int) -> int:
        """One unit ACT; dsac_weight(1) is exactly 1."""
        return self._update(row, 1)

    def raw_kernel(self, scale: int) -> Optional[RawRecordKernel]:
        """Kernel taking the open time as a raw ``1/scale`` fixed-point.

        The open time (in tRC units), clamped at one tRC, is re-weighed
        by :func:`dsac_weight`, reproducing the underestimation the
        paper's Section VII critique exploits.  Any power-of-two scale
        works: the kernel reconstructs the exact float open time
        (``raw / scale`` is exact) first.
        """
        update = self._update
        weight = dsac_weight

        def _kernel(row: int, raw: int) -> int:
            ton_trc = raw / scale
            if ton_trc < 1.0:
                ton_trc = 1.0
            return update(row, int(weight(ton_trc)))

        return _kernel

    def _update(self, row: int, increment: int) -> int:
        """Add ``increment`` to a tracked row, or install it at 1."""
        table = self._table
        count = table.get(row)
        if count is not None:
            count += increment
            table[row] = count
        elif len(table) < self.entries:
            count = 1  # problem 2: installation weight is 1
            table[row] = 1
        else:
            victim = min(table, key=table.__getitem__)
            del table[victim]
            count = 1
            table[row] = 1
        if count >= self.mitigation_threshold:
            table[row] = 0
            self.mitigations += 1
            return 1
        return 0

    def count_for(self, row: int) -> float:
        """Integer weight DSAC has accumulated for ``row``."""
        return float(self._table.get(row, 0))

    def reset(self) -> None:
        """Clear the counter table (refresh-window boundary)."""
        self._table.clear()
