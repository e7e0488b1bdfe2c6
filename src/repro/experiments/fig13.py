"""Figure 13: scheme comparison per tracker at alpha = 1.

(a) Graphene and (b) PARA with ExPress / ImPress-N / ImPress-P, each
normalized to the tracker's own No-RP baseline; (c) the in-DRAM tracker
(MINT) with ImPress-N (RFM-40) and ImPress-P (RFM-80) against the
RFM-80 No-RP reference.  ExPress is omitted for MINT: it is
incompatible with in-DRAM trackers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..sim.config import DefenseConfig
from .common import (
    MINT_TRH, TRH, SweepPoint, category_geomeans, crossed, workload_set,
)
from .registry import RunContext, register

MC_TRACKERS = ("graphene", "para")
MC_SCHEMES = ("express", "impress-n", "impress-p")
IN_DRAM_SCHEMES = ("impress-n", "impress-p")


def _defenses() -> Tuple[
    Dict[str, DefenseConfig], Dict[str, Dict[str, DefenseConfig]]
]:
    """Each tracker's No-RP baseline and its scheme grid; the one
    builder :func:`points` and :func:`run` share, so they never drift."""
    grid: Dict[str, Dict[str, DefenseConfig]] = {}
    baselines: Dict[str, DefenseConfig] = {}
    for tracker in MC_TRACKERS:
        baselines[tracker] = DefenseConfig(
            tracker=tracker, scheme="no-rp", trh=TRH
        )
        grid[tracker] = {
            scheme: DefenseConfig(tracker=tracker, scheme=scheme, trh=TRH)
            for scheme in MC_SCHEMES
        }
    # In-DRAM (MINT): both schemes against the RFM-80 No-RP baseline.
    baselines["mint"] = DefenseConfig(
        tracker="mint", scheme="no-rp", trh=MINT_TRH
    )
    grid["mint"] = {
        scheme: DefenseConfig(tracker="mint", scheme=scheme, trh=MINT_TRH)
        for scheme in IN_DRAM_SCHEMES
    }
    return baselines, grid


def points(ctx: RunContext) -> List[SweepPoint]:
    """Every workload crossed with every baseline and scheme config."""
    baselines, grid = _defenses()
    return crossed(workload_set(ctx.quick), [*baselines.values()] + [
        defense for schemes in grid.values() for defense in schemes.values()
    ])


@register(
    name="fig13",
    title="Scheme comparison per tracker at alpha = 1",
    paper_ref="Figure 13 (Section VI-D)",
    tags=("figure", "simulation", "paper"),
    cost=65.0,
    summarize=lambda data: {
        "graphene_impress_p_spec": data["graphene"]["impress-p"]["SPEC (GMean)"],
        "graphene_impress_p_stream": (
            data["graphene"]["impress-p"]["STREAM (GMean)"]
        ),
        "graphene_express_stream": data["graphene"]["express"]["STREAM (GMean)"],
        "mint_impress_p_spec": data["mint"]["impress-p"]["SPEC (GMean)"],
    },
    paper_values={
        "graphene_impress_p_spec": 1.0,
        "graphene_impress_p_stream": 1.0,
        "mint_impress_p_spec": 1.0,
    },
    points=points,
)
def run(ctx: RunContext) -> Dict[str, Dict[str, Dict[str, float]]]:
    """{tracker: {scheme: {workload/geomean: perf normalized to No-RP}}}."""
    runner = ctx.sweep_runner()
    names = workload_set(ctx.quick)
    baselines, grid = _defenses()
    output: Dict[str, Dict[str, Dict[str, float]]] = {}
    for tracker, schemes in grid.items():
        baseline = baselines[tracker]
        output[tracker] = {}
        for scheme, defense in schemes.items():
            per = {
                name: runner.speedup(name, defense, baseline)
                for name in names
            }
            output[tracker][scheme] = category_geomeans(per, names)
    return output
