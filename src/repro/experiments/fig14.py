"""Figure 14: relative activations, demand vs mitigative.

Averages over the workload set, normalized to the unprotected baseline's
total activations — the paper's breakdown showing ExPress's +56% demand
activations against ImPress-P's near-zero overhead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..sim.config import DefenseConfig
from ..sim.metrics import relative_acts
from .common import TRH, SweepPoint, crossed, workload_set
from .registry import RunContext, register

TRACKERS = ("graphene", "para")
SCHEMES = ("no-rp", "express", "impress-p")


def _defenses() -> Dict[Tuple[str, str], DefenseConfig]:
    """The (tracker, scheme) grid; the one builder :func:`points` and
    :func:`run` share, so they never drift."""
    return {
        (tracker, scheme): DefenseConfig(
            tracker=tracker, scheme=scheme, trh=TRH
        )
        for tracker in TRACKERS
        for scheme in SCHEMES
    }


def points(ctx: RunContext) -> List[SweepPoint]:
    """The (workload x defense) grid plus the unprotected baseline."""
    return crossed(workload_set(ctx.quick), [None, *_defenses().values()])


@register(
    name="fig14",
    title="Relative activations: demand vs mitigative",
    paper_ref="Figure 14 (Section VI-D)",
    tags=("figure", "simulation", "paper"),
    cost=40.0,
    summarize=lambda data: {
        "graphene_express_demand": data["graphene"]["express"]["demand"],
        "graphene_impress_p_demand": data["graphene"]["impress-p"]["demand"],
    },
    paper_values={
        "graphene_express_demand": 1.56,
        "graphene_impress_p_demand": 1.0,
    },
    points=points,
)
def run(ctx: RunContext) -> Dict[str, Dict[str, Dict[str, float]]]:
    """{tracker: {scheme: {"demand"|"mitigative": mean relative ACTs}}}."""
    runner = ctx.sweep_runner()
    names = workload_set(ctx.quick)
    defenses = _defenses()
    output: Dict[str, Dict[str, Dict[str, float]]] = {}
    for tracker in TRACKERS:
        output[tracker] = {}
        for scheme in SCHEMES:
            defense = defenses[tracker, scheme]
            demand_total = 0.0
            mitigative_total = 0.0
            for name in names:
                unprotected = runner.run(name, None)
                ratios = relative_acts(runner.run(name, defense), unprotected)
                demand_total += ratios["demand"]
                mitigative_total += ratios["mitigative"]
            output[tracker][scheme] = {
                "demand": demand_total / len(names),
                "mitigative": mitigative_total / len(names),
            }
    return output
