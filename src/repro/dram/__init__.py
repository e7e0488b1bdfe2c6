"""DRAM substrate: timings, banks, address mapping, refresh, victim rows."""

from .address import LINE_BYTES, MappedAddress, MopAddressMapper
from .bank import Bank, TimingViolation
from .commands import CommandCounts
from .device import BLAST_RADIUS, victim_rows
from .refresh import (
    DDR4_MAX_POSTPONED,
    DDR5_MAX_POSTPONED,
    RefreshScheduler,
)
from .timing import (
    CycleTimings,
    DramClock,
    TimingParams,
    ddr4_timings,
    ddr5_timings,
    default_cycle_timings,
)

__all__ = [
    "LINE_BYTES",
    "MappedAddress",
    "MopAddressMapper",
    "Bank",
    "TimingViolation",
    "CommandCounts",
    "BLAST_RADIUS",
    "victim_rows",
    "DDR4_MAX_POSTPONED",
    "DDR5_MAX_POSTPONED",
    "RefreshScheduler",
    "CycleTimings",
    "DramClock",
    "TimingParams",
    "ddr4_timings",
    "ddr5_timings",
    "default_cycle_timings",
]
