"""Tables I, II and III, plus the Section VI-C storage comparison."""

from __future__ import annotations

from typing import Dict, List

from ..core.analysis import (
    impress_n_effective_threshold,
    impress_p_relative_threshold,
)
from ..dram.timing import ddr5_timings
from ..sim.config import SystemConfig
from ..trackers.sizing import (
    graphene_storage,
    impress_n_storage_bytes,
    impress_p_timer_bits,
    mint_storage_bytes,
    mithril_entries,
    mithril_storage,
)
from .common import TRH
from .registry import RunContext, register

#: The RFM rate (ACTs per RFM) the in-DRAM storage rows assume.
RFMTH = 80


@register(
    name="table1",
    title="DRAM timing parameters",
    paper_ref="Table I",
    tags=("table", "analytic", "paper"),
    cost=0.1,
    summarize=lambda data: {"tRC_ns": data["tRC"], "tRAS_ns": data["tRAS"]},
    paper_values={"tRC_ns": 48.0, "tRAS_ns": 36.0},
)
def table1(ctx: RunContext) -> Dict[str, float]:
    """DRAM timing parameters (nanoseconds)."""
    params = ddr5_timings()
    return {
        "tACT": params.tACT,
        "tPRE": params.tPRE,
        "tRAS": params.tRAS,
        "tRC": params.tRC,
        "tREFW": params.tREFW,
        "tREFI": params.tREFI,
        "tRFC": params.tRFC,
        "tONMax": params.tONMAX,
    }


@register(
    name="table2",
    title="Baseline system configuration",
    paper_ref="Table II",
    tags=("table", "analytic", "paper"),
    cost=0.1,
    summarize=lambda data: {"cores": data["cores"]},
    paper_values={"cores": 8},
)
def table2(ctx: RunContext) -> Dict[str, object]:
    """Baseline system configuration."""
    config = SystemConfig()
    return {
        "cores": config.n_cores,
        "mlp": config.mlp,
        "channels_simulated": config.channels,
        "banks_per_channel": config.banks_per_channel,
        "memory_mapping": (
            f"Minimalist Open Page ({config.lines_per_row_group} lines)"
        ),
    }


@register(
    name="table3",
    title="Qualitative + quantitative comparison of the three schemes",
    paper_ref="Table III",
    tags=("table", "analytic", "paper"),
    cost=0.1,
    summarize=lambda rows: {
        "impress_p_relative_t_star": next(
            row["relative_threshold"]
            for row in rows if row["scheme"] == "impress-p"
        ),
        "impress_p_storage_factor": next(
            row["graphene_storage_factor"]
            for row in rows if row["scheme"] == "impress-p"
        ),
    },
    paper_values={
        "impress_p_relative_t_star": 1.0,
        "impress_p_storage_factor": 1.25,
    },
)
def table3(ctx: RunContext) -> List[Dict[str, object]]:
    """Qualitative + quantitative comparison of the three schemes.

    The threshold and storage columns are computed from the library's
    own models rather than restated, so the table doubles as a
    consistency check of Eq 5, Fig 12 and the sizing rules.
    """
    rows = []
    for scheme, alpha in (("express", 1.0), ("impress-n", 1.0),
                          ("impress-p", None)):
        if scheme == "impress-p":
            relative_threshold = impress_p_relative_threshold(7)
            entries_factor = 1.0
            storage = graphene_storage(TRH, 1.0, fraction_bits=7)
            wider = True
            tmro_limit = False
            in_dram_ok = True
            device_dependent = False
        else:
            relative_threshold = (
                impress_n_effective_threshold(TRH, alpha) / TRH
            )
            entries_factor = 1.0 + alpha
            storage = graphene_storage(TRH, entries_factor, fraction_bits=0)
            wider = False
            tmro_limit = scheme == "express"
            in_dram_ok = scheme != "express"
            device_dependent = True
        baseline = graphene_storage(TRH, 1.0, fraction_bits=0)
        rows.append(
            {
                "scheme": scheme,
                "limits_ton": tmro_limit,
                "relative_threshold": relative_threshold,
                "entries_factor": entries_factor,
                "wider_entries": wider,
                "in_dram_compatible": in_dram_ok,
                "device_dependent": device_dependent,
                "graphene_storage_factor": (
                    storage.total_bits_per_channel
                    / baseline.total_bits_per_channel
                ),
            }
        )
    return rows


@register(
    name="storage",
    title="Tracker storage comparison",
    paper_ref="Section VI-C / Appendix A",
    tags=("table", "analytic", "paper"),
    cost=0.1,
    summarize=lambda data: {
        "graphene_entries_no_rp": data["graphene_entries"]["no-rp"],
        "mithril_entries_no_rp": data["mithril_entries"]["no-rp"],
    },
    paper_values={
        "graphene_entries_no_rp": 448,
        "mithril_entries_no_rp": 383,
    },
)
def storage(ctx: RunContext) -> Dict[str, object]:
    """Section VI-C / Appendix A storage numbers."""
    graphene_base = graphene_storage(TRH, 1.0)
    return {
        "graphene_entries": {
            "no-rp": graphene_storage(TRH, 1.0).entries_per_bank,
            "express_a1": graphene_storage(TRH, 2.0).entries_per_bank,
            "impress-n_a035": graphene_storage(TRH, 1.35).entries_per_bank,
            "impress-n_a1": graphene_storage(TRH, 2.0).entries_per_bank,
            "impress-p": graphene_storage(
                TRH, 1.0, fraction_bits=7
            ).entries_per_bank,
        },
        "graphene_kib_per_channel": {
            "no-rp": graphene_base.kib_per_channel,
            "impress-n_a1": graphene_storage(TRH, 2.0).kib_per_channel,
            "impress-p": graphene_storage(TRH, 1.0, 7).kib_per_channel,
        },
        "graphene_impress_p_storage_factor": (
            graphene_storage(TRH, 1.0, 7).total_bits_per_channel
            / graphene_base.total_bits_per_channel
        ),
        "mithril_entries": {
            "no-rp": mithril_entries(TRH, RFMTH),
            "impress-n_a035": mithril_entries(TRH / 1.35, RFMTH),
            "impress-n_a1": mithril_entries(TRH / 2.0, RFMTH),
            "impress-p": mithril_storage(TRH, RFMTH, 1.0, 7).entries_per_bank,
        },
        "mint_bytes": {
            "no-rp": mint_storage_bytes(0),
            "impress-p": mint_storage_bytes(7),
        },
        "impress_n_bytes_per_bank": impress_n_storage_bytes(),
        "impress_p_timer_bits": impress_p_timer_bits(),
    }
