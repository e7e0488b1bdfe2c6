"""Figures 18 and 19 (Appendix B): slowdown under the K-pattern attack.

Analytic curves for ImPress-P with Graphene (flat 8/TRH regardless of
the Row-Press amount K, Eq 6-9) and PARA (Eq 10, whose overhead falls
once p*(K+1) saturates at 1), for TRH in {1000, 2000, 4000}.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.analysis import graphene_attack_slowdown, para_attack_slowdown
from .registry import RunContext, register

THRESHOLDS: Sequence[float] = (1000.0, 2000.0, 4000.0)
K_VALUES: Sequence[int] = tuple(range(0, 101, 5))


@register(
    name="fig18",
    title="Graphene slowdown under the K-pattern attack",
    paper_ref="Figure 18 (Appendix B, Eq 6-9)",
    tags=("figure", "analytic", "paper"),
    cost=0.1,
    summarize=lambda series: {
        "slowdown_pct_trh4000": series[4000.0][0]["slowdown_pct"],
    },
    paper_values={"slowdown_pct_trh4000": 0.2},
)
def fig18(ctx: RunContext) -> Dict[float, List[Dict[str, float]]]:
    """Graphene slowdown (percent) vs K for each threshold."""
    return {
        trh: [
            {"k": float(k),
             "slowdown_pct": 100.0 * graphene_attack_slowdown(trh, k)}
            for k in K_VALUES
        ]
        for trh in THRESHOLDS
    }


@register(
    name="fig19",
    title="PARA slowdown under the K-pattern attack",
    paper_ref="Figure 19 (Appendix B, Eq 10)",
    tags=("figure", "analytic", "paper"),
    cost=0.1,
    summarize=lambda series: {
        "peak_slowdown_pct_trh1000": max(
            row["slowdown_pct"] for row in series[1000.0]
        ),
    },
    paper_values={"peak_slowdown_pct_trh1000": 400.0 / 21.0},
)
def fig19(ctx: RunContext) -> Dict[float, List[Dict[str, float]]]:
    """PARA slowdown (percent) vs K for each threshold."""
    return {
        trh: [
            {"k": float(k),
             "slowdown_pct": 100.0 * para_attack_slowdown(trh, k)}
            for k in K_VALUES
        ]
        for trh in THRESHOLDS
    }
