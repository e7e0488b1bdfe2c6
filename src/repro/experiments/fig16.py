"""Figure 16 (Appendix A): ExPress vs ImPress-N at alpha = 0.35 and 1.

(a) Graphene and (b) PARA with both schemes at both alphas, normalized
to the tracker's No-RP baseline; (c) MINT with ImPress-N at RFM-60
(alpha = 0.35) and RFM-40 (alpha = 1) against the RFM-80 reference.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..sim.config import DefenseConfig
from .common import (
    MINT_TRH, TRH, SweepPoint, category_geomeans, crossed, workload_set,
)
from .registry import RunContext, register

MC_TRACKERS = ("graphene", "para")
ALPHAS: Sequence[float] = (0.35, 1.0)


def _defenses() -> Tuple[
    Dict[str, DefenseConfig],
    Dict[Tuple[str, str, float], DefenseConfig],
    Dict[float, DefenseConfig],
]:
    """The baselines, the MC-tracker grid and MINT's configs; the one
    builder :func:`points` and :func:`run` share, so they never drift."""
    baselines = {
        tracker: DefenseConfig(tracker=tracker, scheme="no-rp", trh=TRH)
        for tracker in MC_TRACKERS
    }
    baselines["mint"] = DefenseConfig(
        tracker="mint", scheme="no-rp", trh=MINT_TRH
    )
    mc_defenses = {
        (tracker, scheme, alpha): DefenseConfig(
            tracker=tracker, scheme=scheme, trh=TRH, alpha=alpha
        )
        for tracker in MC_TRACKERS
        for scheme in ("express", "impress-n")
        for alpha in ALPHAS
    }
    mint_defenses = {
        alpha: DefenseConfig(
            tracker="mint", scheme="impress-n", trh=MINT_TRH, alpha=alpha
        )
        for alpha in ALPHAS
    }
    return baselines, mc_defenses, mint_defenses


def points(ctx: RunContext) -> List[SweepPoint]:
    """Every workload crossed with every baseline, MC-tracker and MINT
    defense configuration."""
    return crossed(workload_set(ctx.quick), [
        defense for configs in _defenses() for defense in configs.values()
    ])


@register(
    name="fig16",
    title="ExPress vs ImPress-N at alpha = 0.35 and 1",
    paper_ref="Figure 16 (Appendix A)",
    tags=("figure", "simulation", "paper"),
    cost=70.0,
    summarize=lambda data: {
        "graphene_impress_n_a1_stream": (
            data["graphene"]["impress-n a=1.0"]["STREAM (GMean)"]
        ),
        "graphene_express_a1_stream": (
            data["graphene"]["express a=1.0"]["STREAM (GMean)"]
        ),
    },
    points=points,
)
def run(ctx: RunContext) -> Dict[str, Dict[str, Dict[str, float]]]:
    """{tracker: {"scheme a=x": {workload/geomean: perf vs No-RP}}}."""
    runner = ctx.sweep_runner()
    names = workload_set(ctx.quick)
    baselines, mc_defenses, mint_defenses = _defenses()
    output: Dict[str, Dict[str, Dict[str, float]]] = {}
    for tracker in MC_TRACKERS:
        baseline = baselines[tracker]
        output[tracker] = {}
        for scheme in ("express", "impress-n"):
            for alpha in ALPHAS:
                defense = mc_defenses[tracker, scheme, alpha]
                per = {
                    name: runner.speedup(name, defense, baseline)
                    for name in names
                }
                label = f"{scheme} a={alpha}"
                output[tracker][label] = category_geomeans(per, names)
    baseline = baselines["mint"]
    output["mint"] = {}
    for alpha in ALPHAS:
        defense = mint_defenses[alpha]
        rfmth = defense.effective_rfmth()
        per = {
            name: runner.speedup(name, defense, baseline) for name in names
        }
        output["mint"][f"impress-n a={alpha} (RFM-{rfmth})"] = (
            category_geomeans(per, names)
        )
    return output
