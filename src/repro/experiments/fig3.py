"""Figure 3: performance impact of limiting row-open time to tMRO.

Sweeps tMRO over the paper's values for every SPEC and STREAM workload
(no tracker — this isolates the page-policy effect) and reports
performance normalized to the unlimited baseline.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .common import SweepPoint, category_geomeans, workload_set
from .registry import RunContext, register

TMRO_VALUES_NS: Sequence[float] = (36.0, 66.0, 96.0, 186.0, 336.0, 636.0)


def points(ctx: RunContext) -> List[SweepPoint]:
    """Every (workload, tmro) point plus the unlimited baseline each
    speedup() divides by."""
    names = workload_set(ctx.quick)
    return [(name, None, None) for name in names] + [
        (name, None, tmro) for tmro in TMRO_VALUES_NS for name in names
    ]


@register(
    name="fig3",
    title="Performance impact of limiting row-open time to tMRO",
    paper_ref="Figure 3",
    tags=("figure", "simulation", "paper"),
    cost=40.0,
    summarize=lambda series: {
        "spec_gmean_tmro36": series[36.0]["SPEC (GMean)"],
        "stream_gmean_tmro36": series[36.0]["STREAM (GMean)"],
        "stream_gmean_tmro636": series[636.0]["STREAM (GMean)"],
    },
    points=points,
)
def run(ctx: RunContext) -> Dict[float, Dict[str, float]]:
    """Returns {tmro_ns: {workload or geomean row: normalized perf}}."""
    runner = ctx.sweep_runner()
    names = workload_set(ctx.quick)
    series: Dict[float, Dict[str, float]] = {}
    for tmro in TMRO_VALUES_NS:
        per_workload = {
            name: runner.speedup(name, None, tmro_ns=tmro) for name in names
        }
        series[tmro] = category_geomeans(per_workload, names)
    return series
