"""Figure 15: scalability to lower Rowhammer thresholds.

Graphene and PARA at TRH = 4K / 2K / 1K for No-RP, ExPress and
ImPress-P, normalized to the unprotected baseline (geomean over the
workload set).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..sim.config import DefenseConfig
from ..sim.metrics import geomean
from .common import SweepPoint, crossed, workload_set
from .registry import RunContext, register

TRACKERS = ("graphene", "para")
SCHEMES = ("no-rp", "express", "impress-p")
THRESHOLDS: Sequence[float] = (4000.0, 2000.0, 1000.0)


def _defenses() -> Dict[Tuple[str, str, float], DefenseConfig]:
    """The (tracker, scheme, TRH) grid; the one builder :func:`points`
    and :func:`run` share, so they never drift."""
    return {
        (tracker, scheme, trh): DefenseConfig(
            tracker=tracker, scheme=scheme, trh=trh
        )
        for tracker in TRACKERS
        for scheme in SCHEMES
        for trh in THRESHOLDS
    }


def points(ctx: RunContext) -> List[SweepPoint]:
    """The full threshold grid plus the unprotected baseline."""
    return crossed(workload_set(ctx.quick), [None, *_defenses().values()])


@register(
    name="fig15",
    title="Scalability to lower Rowhammer thresholds",
    paper_ref="Figure 15 (Section VI-D)",
    tags=("figure", "simulation", "paper"),
    cost=100.0,
    summarize=lambda data: {
        "graphene_impress_p_trh1000": data["graphene"]["impress-p"][1000.0],
        "graphene_no_rp_trh1000": data["graphene"]["no-rp"][1000.0],
    },
    points=points,
)
def run(ctx: RunContext) -> Dict[str, Dict[str, Dict[float, float]]]:
    """{tracker: {scheme: {trh: geomean perf vs unprotected}}}."""
    runner = ctx.sweep_runner()
    names = workload_set(ctx.quick)
    defenses = _defenses()
    output: Dict[str, Dict[str, Dict[float, float]]] = {}
    for tracker in TRACKERS:
        output[tracker] = {}
        for scheme in SCHEMES:
            series: Dict[float, float] = {}
            for trh in THRESHOLDS:
                defense = defenses[tracker, scheme, trh]
                series[trh] = geomean(
                    [runner.speedup(name, defense, None) for name in names]
                )
            output[tracker][scheme] = series
    return output
