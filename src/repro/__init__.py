"""repro: a reproduction of "ImPress: Securing DRAM Against
Data-Disturbance Errors via Implicit Row-Press Mitigation" (MICRO 2024).

Public API highlights:

* :mod:`repro.core` — unified charge-loss model and the No-RP / ExPress /
  ImPress-N / ImPress-P mitigation schemes (ImPress-P's EACT is
  quantized in its close kernel).
* :mod:`repro.trackers` — Graphene, PARA, Mithril, MINT plus sizing math.
* :mod:`repro.dram`, :mod:`repro.memctrl`, :mod:`repro.sim` — the DDR5
  memory-system simulator the evaluation runs on.
* :mod:`repro.security` — effective-threshold verification and attack
  replay.
* :mod:`repro.experiments` — one module per table/figure of the paper.
"""

from .core import (
    ALPHA_LONG,
    ALPHA_SAFE,
    ALPHA_SHORT,
    ConservativeLinearModel,
    ExpressScheme,
    ImpressNScheme,
    ImpressPScheme,
    NoRpScheme,
    impress_n_effective_threshold,
    impress_p_relative_threshold,
)
from .sim import DefenseConfig, SystemConfig, SystemSimulator, simulate_workload

__version__ = "1.0.0"

__all__ = [
    "ALPHA_LONG",
    "ALPHA_SAFE",
    "ALPHA_SHORT",
    "ConservativeLinearModel",
    "ExpressScheme",
    "ImpressNScheme",
    "ImpressPScheme",
    "NoRpScheme",
    "impress_n_effective_threshold",
    "impress_p_relative_threshold",
    "DefenseConfig",
    "SystemConfig",
    "SystemSimulator",
    "simulate_workload",
    "__version__",
]
