"""Ablation studies for the design choices DESIGN.md calls out.

* CLM alpha: how the conservativeness knob trades threshold for entries.
* RFMTH: Mithril entry count and MINT tolerated threshold vs RFM rate.
* MOP burst length: STREAM's tMRO sensitivity vs lines-per-row-group.
* Page policy: the idle-precharge timer's effect on the tMRO sweep.
* DSAC weighting: underestimation factor vs row-open time (Section VII).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.analysis import impress_n_effective_threshold
from ..sim.config import SystemConfig
from ..sim.metrics import normalized_weighted_speedup
from ..sim.system import simulate_workload
from ..trackers.dsac import underestimation_factor
from ..trackers.mint import mint_tolerated_threshold
from ..trackers.sizing import graphene_storage, mithril_entries
from .common import TRH
from .registry import RunContext, register

ALPHAS: Sequence[float] = (0.35, 0.48, 0.7, 1.0)
RFMTHS: Sequence[int] = (40, 60, 80, 120)
MOP_BURSTS: Sequence[int] = (4, 8, 16)
#: DSAC row-open times, in tRC.
DSAC_TONS_TRC: Sequence[float] = (8.0, 32.0, 128.0, 256.0, 1024.0)


def alpha_ablation() -> List[Dict[str, float]]:
    """Threshold and storage cost of ExPress/ImPress-N as alpha varies."""
    rows = []
    for alpha in ALPHAS:
        storage = graphene_storage(TRH, 1.0 + alpha)
        rows.append(
            {
                "alpha": alpha,
                "relative_threshold": (
                    impress_n_effective_threshold(TRH, alpha) / TRH
                ),
                "graphene_entries": storage.entries_per_bank,
                "graphene_kib": storage.kib_per_channel,
            }
        )
    return rows


def rfmth_ablation() -> List[Dict[str, float]]:
    """In-DRAM tracker provisioning vs RFM rate."""
    rows = []
    for rfmth in RFMTHS:
        rows.append(
            {
                "rfmth": rfmth,
                "mithril_entries": mithril_entries(TRH, rfmth),
                "mint_tolerated_trh": mint_tolerated_threshold(rfmth),
            }
        )
    return rows


def mop_burst_ablation(n_requests: int = 800) -> List[Dict[str, float]]:
    """copy's tMRO sensitivity as MOP lines-per-row-group varies.

    Longer bursts mean more row-buffer hits to lose, so the slowdown at
    a fixed low tMRO grows with the burst length.
    """
    rows = []
    for burst in MOP_BURSTS:
        system = SystemConfig(
            lines_per_row_group=burst, mop_burst_lines=burst
        )
        base = simulate_workload(
            "copy", system=system, n_requests_per_core=n_requests
        )
        limited = simulate_workload(
            "copy", system=system, n_requests_per_core=n_requests,
            tmro_ns=66.0,
        )
        rows.append(
            {
                "lines_per_group": burst,
                "baseline_hit_rate": base.hit_rate,
                "perf_at_tmro": normalized_weighted_speedup(limited, base),
            }
        )
    return rows


def page_policy_ablation(n_requests: int = 800) -> List[Dict[str, float]]:
    """Idle-precharge timer vs mcf's conflict rate and tMRO benefit."""
    rows = []
    for idle_close in (None, 150, 400):
        system = SystemConfig(idle_close_cycles=idle_close)
        base = simulate_workload(
            "mcf", system=system, n_requests_per_core=n_requests
        )
        limited = simulate_workload(
            "mcf", system=system, n_requests_per_core=n_requests,
            tmro_ns=36.0,
        )
        total = base.row_hits + base.row_misses + base.row_conflicts
        rows.append(
            {
                "idle_close_cycles": -1 if idle_close is None else idle_close,
                "conflict_rate": base.row_conflicts / total,
                "perf_at_tmro36": normalized_weighted_speedup(limited, base),
            }
        )
    return rows


def dsac_ablation() -> List[Dict[str, float]]:
    """Section VII: DSAC's underestimation grows with row-open time."""
    return [
        {"ton_trc": ton, "underestimation": underestimation_factor(ton)}
        for ton in DSAC_TONS_TRC
    ]


@register(
    name="ablation",
    title="Design-choice ablations (alpha, RFMTH, MOP, page policy, DSAC)",
    paper_ref="Sections V-VII",
    tags=("simulation", "ablation"),
    cost=10.0,
    summarize=lambda data: {
        "dsac_underestimation_ton256": next(
            row["underestimation"]
            for row in data["dsac"] if row["ton_trc"] == 256.0
        ),
    },
)
def run(ctx: RunContext) -> Dict[str, List[Dict[str, float]]]:
    """Every study; the simulated ones build their own SystemConfigs,
    so they take only their size from the context."""
    n_requests = 600 if ctx.quick else 1500
    return {
        "alpha": alpha_ablation(),
        "rfmth": rfmth_ablation(),
        "mop_burst": mop_burst_ablation(n_requests=n_requests),
        "page_policy": page_policy_ablation(n_requests=n_requests),
        "dsac": dsac_ablation(),
    }
