"""Figure 4: reduction in tolerated threshold (T*) vs tMRO.

Reports the measured characterization (re-derived from Luo et al.'s
Table 8) next to the Conservative Linear Model's prediction; the CLM
must always be at or below the measured T* (it never under-estimates
damage).
"""

from __future__ import annotations

from typing import Dict, List

from ..core.analysis import (
    express_relative_threshold_clm,
    express_relative_threshold_measured,
)
from ..core.charge import ALPHA_SHORT
from ..data.rowpress import FIG4_TMRO_THRESHOLD
from .registry import RunContext, register


def _summarize(rows):
    by_tmro = {row["tmro_ns"]: row for row in rows}
    return {
        "t_star_ratio_tmro36": by_tmro[36.0]["relative_threshold_measured"],
        "clm_t_star_ratio_tmro36": by_tmro[36.0]["relative_threshold_clm"],
    }


@register(
    name="fig4",
    title="Reduction in tolerated threshold (T*) vs tMRO",
    paper_ref="Figure 4",
    tags=("figure", "analytic", "paper"),
    cost=0.1,
    summarize=_summarize,
)
def run(ctx: RunContext) -> List[Dict[str, float]]:
    """Rows of (tMRO, measured T*, CLM T*) at the characterized tMROs."""
    rows = []
    for tmro, _measured in FIG4_TMRO_THRESHOLD:
        rows.append(
            {
                "tmro_ns": tmro,
                "relative_threshold_measured": (
                    express_relative_threshold_measured(tmro)
                ),
                "relative_threshold_clm": express_relative_threshold_clm(
                    tmro, ALPHA_SHORT
                ),
            }
        )
    return rows
