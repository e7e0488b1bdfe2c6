"""Section VI-E: activation and DRAM energy overheads.

Reports relative DRAM energy of ExPress and ImPress-P against No-RP for
Graphene and PARA, plus the baseline's activation share of total energy
(~11% in the paper's model).
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.config import DefenseConfig
from .common import TRH, SweepPoint, crossed, workload_set
from .registry import RunContext, register

TRACKERS = ("graphene", "para")
SCHEMES = ("no-rp", "express", "impress-p")


def _defense(tracker: str, scheme: str) -> DefenseConfig:
    """The one builder :func:`points` and :func:`run` share, so they
    never drift."""
    return DefenseConfig(tracker=tracker, scheme=scheme, trh=TRH)


def points(ctx: RunContext) -> List[SweepPoint]:
    """The (tracker x scheme) grid and the unprotected baseline."""
    return crossed(workload_set(ctx.quick), [None] + [
        _defense(tracker, scheme) for tracker in TRACKERS for scheme in SCHEMES
    ])


@register(
    name="energy",
    title="Activation and DRAM energy overheads",
    paper_ref="Section VI-E",
    tags=("simulation", "paper"),
    cost=40.0,
    summarize=lambda data: {
        "activation_share": data["baseline"]["activation_share"],
        "graphene_express_energy": data["graphene"]["express"],
        "graphene_impress_p_energy": data["graphene"]["impress-p"],
    },
    paper_values={"activation_share": 0.11},
    points=points,
)
def run(ctx: RunContext) -> Dict[str, Dict[str, float]]:
    """{tracker: {scheme: mean relative DRAM energy vs unprotected}}
    plus an ``activation_share`` entry for the unprotected baseline."""
    runner = ctx.sweep_runner()
    names = workload_set(ctx.quick)
    output: Dict[str, Dict[str, float]] = {}
    shares = []
    for name in names:
        baseline = runner.run(name, None)
        shares.append(baseline.energy().activation_share)
    output["baseline"] = {
        "activation_share": sum(shares) / len(shares)
    }
    for tracker in TRACKERS:
        output[tracker] = {}
        for scheme in SCHEMES:
            defense = _defense(tracker, scheme)
            ratios = []
            for name in names:
                unprotected = runner.run(name, None)
                protected = runner.run(name, defense)
                ratios.append(
                    protected.energy().total / unprotected.energy().total
                )
            output[tracker][scheme] = sum(ratios) / len(ratios)
    return output
