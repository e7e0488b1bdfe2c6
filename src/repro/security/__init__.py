"""Security analysis: charge accounting, T* verification, attack replay.

The verifier and the attack replay drive a scheme's per-bank kernels,
the record path the memory controller runs.
"""

from .charge_account import VictimChargeState, access_tcl, pattern_tcl
from .verifier import (
    PatternResult,
    SecurityOutcome,
    ThresholdReport,
    effective_threshold,
    replay_pattern,
    run_security_simulation,
)

__all__ = [
    "VictimChargeState",
    "access_tcl",
    "pattern_tcl",
    "SecurityOutcome",
    "run_security_simulation",
    "PatternResult",
    "ThresholdReport",
    "effective_threshold",
    "replay_pattern",
]
