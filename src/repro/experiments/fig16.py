"""Figure 16 (Appendix A): ExPress vs ImPress-N at alpha = 0.35 and 1.

(a) Graphene and (b) PARA with both schemes at both alphas, normalized
to the tracker's No-RP baseline; (c) MINT with ImPress-N at RFM-60
(alpha = 0.35) and RFM-40 (alpha = 1) against the RFM-80 reference.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..sim.config import DefenseConfig
from .common import MINT_TRH, TRH, category_geomeans, workload_set
from .registry import RunContext, register

MC_TRACKERS = ("graphene", "para")
ALPHAS: Sequence[float] = (0.35, 1.0)


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
)
def run(ctx: RunContext) -> Dict[str, Dict[str, Dict[str, float]]]:
    """{tracker: {"scheme a=x": {workload/geomean: perf vs No-RP}}}."""
    runner = ctx.sweep_runner()
    names = workload_set(ctx.quick)
    # Build each grid config once; the run_many batch and the assembly
    # loops below share the same objects, so the batch and the cache
    # lookups can never drift apart.
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
    # One batch covers the figure: every workload crossed with every
    # baseline, MC-tracker, and MINT defense configuration.
    defenses = (
        list(baselines.values())
        + list(mc_defenses.values())
        + list(mint_defenses.values())
    )
    runner.run_many(
        [(name, defense) for name in names for defense in defenses]
    )
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
