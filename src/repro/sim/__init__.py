"""System simulation: configs, cores, event loop, stats, metrics.

The batch tier's names (:mod:`repro.sim.batch`) resolve on first
access through the module ``__getattr__``, so importing the package,
or any single-point engine, leaves the tier unloaded.
"""

from .config import (
    DEFAULT_EXPRESS_TMRO_NS,
    SCHEME_NAMES,
    TRACKER_NAMES,
    DefenseConfig,
    SystemConfig,
)
from .core import CoreState
from .metrics import (
    geomean,
    geomean_over_workloads,
    normalized_weighted_speedup,
    relative_acts,
)
from .reference import ReferenceSimulator
from .stats import EnergyBreakdown, SimResult, energy_of
from .system import ENGINE_NAMES, SystemSimulator, simulate_workload

__all__ = [
    "ENGINE_NAMES",
    "BatchStats",
    "simulate_batch",
    "DEFAULT_EXPRESS_TMRO_NS",
    "SCHEME_NAMES",
    "TRACKER_NAMES",
    "DefenseConfig",
    "SystemConfig",
    "CoreState",
    "geomean",
    "geomean_over_workloads",
    "normalized_weighted_speedup",
    "relative_acts",
    "EnergyBreakdown",
    "SimResult",
    "energy_of",
    "ReferenceSimulator",
    "SystemSimulator",
    "simulate_workload",
]

_BATCH_NAMES = frozenset({"BatchStats", "simulate_batch"})


def __getattr__(name: str):
    if name in _BATCH_NAMES:
        from . import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
