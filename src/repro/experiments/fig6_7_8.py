"""Figures 6, 7 and 8: the charge-loss model curves.

* Fig 6 — Rowhammer is perfectly linear: K units of loss in K tRC.
* Fig 7 — long-duration Row-Press TCL of the 21 devices at 1 and 9
  tREFI, against the Rowhammer line and the alpha = 0.48 CLM cover.
* Fig 8 — short-duration Row-Press: measured points, least-squares
  power-law fit, and the conservative alpha = 0.35 CLM line.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.charge import (
    ALPHA_LONG,
    ALPHA_SHORT,
    ConservativeLinearModel,
    fit_clm,
    fit_power_law,
    rowhammer_tcl,
)
from ..data.rowpress import (
    NINE_TREFI_TRC,
    ONE_TREFI_TRC,
    SHORT_DURATION_POINTS,
    long_duration_points,
)
from .registry import RunContext, register

#: Fig 6's x-axis: the staircase runs K = 1 .. MAX_ACTS activations.
MAX_ACTS = 10
#: Fig 7's attack times: 1 and 9 tREFI, in tRC.
TIMES_TRC: Sequence[float] = (ONE_TREFI_TRC, NINE_TREFI_TRC)


@register(
    name="fig6",
    title="Rowhammer charge loss is perfectly linear",
    paper_ref="Figure 6 (Eq 1)",
    tags=("figure", "analytic", "paper"),
    cost=0.1,
    summarize=lambda series: {"tcl_after_5_acts": dict(series)[5]},
    paper_values={"tcl_after_5_acts": 5.0},
)
def fig6(ctx: RunContext) -> List[Tuple[int, float]]:
    """The Rowhammer charge-loss staircase: (K, TCL)."""
    return [(k, rowhammer_tcl(k)) for k in range(1, MAX_ACTS + 1)]


@register(
    name="fig7",
    title="Long-duration Row-Press TCL and the alpha=0.48 CLM cover",
    paper_ref="Figure 7 (Section IV-C)",
    tags=("figure", "analytic", "paper"),
    cost=0.1,
    summarize=lambda data: {
        "fitted_alpha": data["fitted_alpha"],
        "cover_alpha": data["clm_alpha"],
    },
    paper_values={"cover_alpha": 0.48},
)
def fig7(ctx: RunContext) -> Dict[str, object]:
    """Device scatter plus the RH and CLM(0.48) reference lines."""
    clm = ConservativeLinearModel(alpha=ALPHA_LONG)
    points = long_duration_points(TIMES_TRC)
    return {
        "device_points": points,
        "rowhammer_line": [(t, float(int(t))) for t in TIMES_TRC],
        "clm_line": [(t, clm.tcl_of_attack_time(t)) for t in TIMES_TRC],
        "clm_alpha": ALPHA_LONG,
        "fitted_alpha": fit_clm(points).alpha,
    }


@register(
    name="fig8",
    title="Short-duration Row-Press: power-law fit vs alpha=0.35 CLM",
    paper_ref="Figure 8 (Section IV-C)",
    tags=("figure", "analytic", "paper"),
    cost=0.1,
    summarize=lambda data: {"clm_alpha": data["clm_alpha"]},
    paper_values={"clm_alpha": 0.35},
)
def fig8(ctx: RunContext) -> Dict[str, object]:
    """Short-duration data, power-law fit and CLM(0.35)."""
    points = list(SHORT_DURATION_POINTS)
    clm = fit_clm(points)
    power = fit_power_law(points)
    times = [total for total, _tcl in points]
    return {
        "data_points": points,
        "clm_alpha": clm.alpha,
        "clm_line": [(t, clm.tcl_of_attack_time(t)) for t in times],
        "power_fit": (power.a, power.b),
        "power_line": [(t, power.tcl_of_attack_time(t)) for t in times],
        "rowhammer_line": [(t, t) for t in times],
        "paper_alpha": ALPHA_SHORT,
    }
