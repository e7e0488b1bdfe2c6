"""PARA: probabilistic aggressor mitigation at the memory controller.

PARA (Kim et al., ISCA 2014) selects each activation for mitigation with
a small probability ``p`` chosen for a target failure rate.  It keeps no
state, which makes it trivially compatible with ImPress-P: the selection
probability simply scales with EACT — an access that kept its row open
for 2.5 tRC is selected with probability ``min(1, 2.5 * p)``
(Section VI-C of the ImPress paper).
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .base import RawRecordKernel, Tracker

#: Per-attack escape probability implied by the paper's p = 1/184 at
#: TRH = 4K for a 0.1 FIT bank-failure target (Section III-B).
PAPER_ESCAPE_PROBABILITY = 3.7e-10


def para_probability(
    trh: float, escape_probability: float = PAPER_ESCAPE_PROBABILITY
) -> float:
    """Mitigation probability for a Rowhammer threshold.

    An aggressor escapes if none of its ``trh`` activations is selected:
    ``(1 - p) ** trh <= escape_probability``, so
    ``p = -ln(escape_probability) / trh``.  The default target reproduces
    the paper's p = 1/184 at TRH = 4K (and 1/92 at the halved threshold
    used by ExPress / ImPress-N with alpha = 1).
    """
    if trh <= 0:
        raise ValueError("trh must be positive")
    if not 0 < escape_probability < 1:
        raise ValueError("escape_probability must be in (0, 1)")
    return min(1.0, -math.log(escape_probability) / trh)


def para_failure_probability(p: float, trh: float) -> float:
    """Probability an aggressor reaches ``trh`` ACTs with no mitigation."""
    if not 0 <= p <= 1:
        raise ValueError("p must be a probability")
    if p == 1.0:
        return 0.0
    return (1.0 - p) ** trh


class ParaTracker(Tracker):
    """Stateless probabilistic tracker.

    An activation of weight ``w`` mitigates its row with probability
    ``min(1, p * w)``; with unit weight (:meth:`record_unit`) this is
    classic PARA, with fractional EACT weights (:meth:`raw_kernel`) it
    is ImPress-P's variable-probability PARA.  Each non-zero-weight
    activation takes one draw from ``rng``, so sequences are
    reproducible from the seed.
    """

    in_dram = False

    __slots__ = ("p", "rng", "mitigations")

    def __init__(self, p: float, rng: Optional[random.Random] = None) -> None:
        if not 0 < p <= 1:
            raise ValueError("p must be in (0, 1]")
        self.p = p
        self.rng = rng or random.Random(0)
        self.mitigations = 0

    def record_unit(self, row: int) -> int:
        """One unit ACT, selection probability ``p``."""
        if self.rng.random() < self.p:
            self.mitigations += 1
            return 1
        return 0

    def raw_kernel(self, scale: int) -> Optional[RawRecordKernel]:
        """Selection with probability ``p * raw / scale`` (any scale).

        ``raw / scale`` is the access's EACT under ImPress-P, making the
        selection probability proportional to row-open time.  PARA
        keeps no counters, so any fixed-point scale works: the float
        weight is exact for power-of-two scales.
        """
        p = self.p

        def _kernel(row: int, raw: int) -> int:
            if raw == 0:
                return 0
            if self.rng.random() < min(1.0, p * (raw / scale)):
                self.mitigations += 1
                return 1
            return 0

        return _kernel

    def reset(self) -> None:
        """PARA keeps no state."""
