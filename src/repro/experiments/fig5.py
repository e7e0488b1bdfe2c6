"""Figure 5: Graphene and PARA under ExPress as tMRO varies.

Each tMRO point runs ExPress with the tracker provisioned for the
measured T*(tMRO) from Fig 4 (more entries / higher probability at lower
T*), normalized to the tracker's own no-tMRO baseline.  Reported as
SPEC/STREAM geometric means like the paper.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.analysis import express_relative_threshold_measured
from ..sim.config import DefenseConfig
from ..sim.metrics import geomean
from .common import TRH, SweepPoint, spec_of, stream_of, workload_set
from .registry import RunContext, register

TMRO_VALUES_NS: Sequence[float] = (36.0, 66.0, 96.0, 186.0, 336.0, 636.0)
TRACKERS = ("graphene", "para")


def _defenses(
) -> Tuple[Dict[str, DefenseConfig], Dict[Tuple[str, float], DefenseConfig]]:
    """Each tracker's baseline and its ExPress config per tMRO; the one
    builder :func:`points` and :func:`run` share, so they never drift."""
    baselines = {
        tracker: DefenseConfig(tracker=tracker, scheme="no-rp", trh=TRH)
        for tracker in TRACKERS
    }
    defenses = {
        (tracker, tmro): DefenseConfig(
            tracker=tracker,
            scheme="express",
            trh=TRH,
            tmro_ns=tmro,
            target_scale=express_relative_threshold_measured(tmro),
        )
        for tracker in TRACKERS
        for tmro in TMRO_VALUES_NS
    }
    return baselines, defenses


def points(ctx: RunContext) -> List[SweepPoint]:
    """Every workload crossed with the paired (defense, tMRO) points:
    the tracker provisioned for T*(tMRO) runs *at* that tMRO, which is
    why the points are explicit pairs rather than a cross product."""
    baselines, defenses = _defenses()
    pairs = [(baseline, None) for baseline in baselines.values()] + [
        (defense, tmro) for (_, tmro), defense in defenses.items()
    ]
    return [
        (name, defense, tmro)
        for name in workload_set(ctx.quick)
        for defense, tmro in pairs
    ]


@register(
    name="fig5",
    title="Graphene and PARA under ExPress as tMRO varies",
    paper_ref="Figure 5",
    tags=("figure", "simulation", "paper"),
    cost=90.0,
    summarize=lambda data: {
        "graphene_stream_tmro36": data["graphene"]["STREAM"][36.0],
        "para_stream_tmro36": data["para"]["STREAM"][36.0],
    },
    points=points,
)
def run(ctx: RunContext) -> Dict[str, Dict[str, Dict[float, float]]]:
    """{tracker: {"SPEC"|"STREAM": {tmro or inf(no-tMRO): geomean perf}}}."""
    runner = ctx.sweep_runner()
    names = workload_set(ctx.quick)
    baselines, defenses = _defenses()
    output: Dict[str, Dict[str, Dict[float, float]]] = {}
    for tracker in TRACKERS:
        baseline = baselines[tracker]
        spec_series: Dict[float, float] = {}
        stream_series: Dict[float, float] = {}
        for tmro in list(TMRO_VALUES_NS) + [float("inf")]:
            if tmro == float("inf"):
                defense = baseline
                tmro_arg = None
            else:
                defense = defenses[tracker, tmro]
                tmro_arg = tmro
            per = {
                name: runner.speedup(name, defense, baseline, tmro_ns=tmro_arg)
                for name in names
            }
            spec_series[tmro] = geomean(
                [per[n] for n in spec_of(names)]
            )
            stream_series[tmro] = geomean(
                [per[n] for n in stream_of(names)]
            )
        output[tracker] = {"SPEC": spec_series, "STREAM": stream_series}
    return output
