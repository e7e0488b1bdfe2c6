"""Figure 12: ImPress-P effective threshold vs fractional counter bits.

Two independent routes to the same curve:

* the closed-form loss 1 - 2**-b (0.5 at b = 0, Section VI-B);
* the security verifier, which searches adversarial tON values for the
  worst truncation loss of a b-bit counter.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.analysis import impress_p_relative_threshold
from ..dram.timing import default_cycle_timings
from ..security.verifier import effective_threshold
from .common import TRH
from .registry import RunContext, register

#: The x-axis runs b = 0 .. MAX_BITS fractional counter bits.
MAX_BITS = 7


def _summarize(rows):
    by_bits = {row["fraction_bits"]: row for row in rows}
    return {
        "t_star_ratio_b0": by_bits[0]["relative_threshold_verified"],
        "t_star_ratio_b7": by_bits[7]["relative_threshold_verified"],
    }


@register(
    name="fig12",
    title="ImPress-P effective threshold vs fractional counter bits",
    paper_ref="Figure 12 (Section VI-B)",
    tags=("figure", "analytic", "paper"),
    cost=1.0,
    summarize=_summarize,
    paper_values={"t_star_ratio_b0": 0.5, "t_star_ratio_b7": 1.0},
)
def run(ctx: RunContext) -> List[Dict[str, float]]:
    """Rows of (bits, analytic T*, verifier-measured T*)."""
    timings = default_cycle_timings()
    rows = []
    for bits in range(MAX_BITS + 1):
        report = effective_threshold(
            "impress-p", TRH, alpha=1.0, timings=timings, fraction_bits=bits
        )
        rows.append(
            {
                "fraction_bits": bits,
                "relative_threshold_analytic": (
                    impress_p_relative_threshold(bits)
                ),
                "relative_threshold_verified": report.relative_threshold,
            }
        )
    return rows
