"""Figure 5: Graphene and PARA under ExPress as tMRO varies.

Each tMRO point runs ExPress with the tracker provisioned for the
measured T*(tMRO) from Fig 4 (more entries / higher probability at lower
T*), normalized to the tracker's own no-tMRO baseline.  Reported as
SPEC/STREAM geometric means like the paper.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.analysis import express_relative_threshold_measured
from ..scenarios.grid import ScenarioGrid
from ..sim.config import DefenseConfig
from ..sim.metrics import geomean
from .common import SweepRunner, spec_of, stream_of, workload_set

TMRO_VALUES_NS: Sequence[float] = (36.0, 66.0, 96.0, 186.0, 336.0, 636.0)
TRACKERS = ("graphene", "para")


def run(
    runner: Optional[SweepRunner] = None,
    tmros_ns: Sequence[float] = TMRO_VALUES_NS,
    trh: float = 4000.0,
    quick: bool = True,
) -> Dict[str, Dict[str, Dict[float, float]]]:
    """{tracker: {"SPEC"|"STREAM": {tmro or inf(no-tMRO): geomean perf}}}."""
    runner = runner or SweepRunner()
    names = workload_set(quick)
    # Build each grid config once; the scenario grid and the assembly
    # loop below share the same objects, so the batch and the cache
    # lookups can never drift apart.
    baselines = {
        tracker: DefenseConfig(tracker=tracker, scheme="no-rp", trh=trh)
        for tracker in TRACKERS
    }
    defenses = {
        (tracker, tmro): DefenseConfig(
            tracker=tracker,
            scheme="express",
            trh=trh,
            tmro_ns=tmro,
            target_scale=express_relative_threshold_measured(tmro),
        )
        for tracker in TRACKERS
        for tmro in tmros_ns
    }
    # The whole figure as one scenario grid: every workload crossed
    # with the paired (defense, tMRO) points — the tracker provisioned
    # for the measured T*(tMRO) runs *at* that tMRO, which is why the
    # defense axis is explicit pairs rather than a cross product.
    grid = ScenarioGrid(
        workloads=tuple(names),
        defense_points=tuple(
            (baselines[tracker], None) for tracker in TRACKERS
        ) + tuple(
            (defenses[tracker, tmro], tmro)
            for tracker in TRACKERS
            for tmro in tmros_ns
        ),
        system=runner.system,
        name="fig5",
    )
    runner.run_many(grid.expand())
    output: Dict[str, Dict[str, Dict[float, float]]] = {}
    for tracker in TRACKERS:
        baseline = baselines[tracker]
        spec_series: Dict[float, float] = {}
        stream_series: Dict[float, float] = {}
        points = list(tmros_ns) + [float("inf")]
        for tmro in points:
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


# -- registry ----------------------------------------------------------

from .registry import RunContext, register  # noqa: E402


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
)
def _experiment(ctx: RunContext):
    return run(ctx.sweep_runner(), quick=ctx.quick)
