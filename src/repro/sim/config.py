"""System and defense configurations (Table II plus scheme wiring).

:class:`SystemConfig` is the hardware: cores, banks, mapping, timings.
:class:`DefenseConfig` names a (tracker, Row-Press scheme) pair and
builds correctly-sized tracker instances — entry counts, internal
thresholds, probabilities and RFM rates all follow the sizing rules of
Sections III-B, VI-C and Appendix A.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.mitigation import (
    SCHEME_NAMES,
    ExpressScheme,
    ImpressNScheme,
    ImpressPScheme,
    MitigationScheme,
    NoRpScheme,
)
from ..dram.address import MopAddressMapper
from ..dram.timing import CycleTimings, default_cycle_timings
from ..trackers.base import AccountingTracker, Tracker
from ..trackers.dsac import DsacLikeTracker
from ..trackers.graphene import GrapheneTracker
from ..trackers.mint import MintTracker
from ..trackers.mithril import MithrilTracker
from ..trackers.para import ParaTracker, para_probability
from ..trackers.prac import PracTracker
from ..trackers.sizing import (
    graphene_entries,
    graphene_internal_threshold,
    mithril_entries,
)

TRACKER_NAMES = (
    "none", "graphene", "para", "mithril", "mint", "prac", "dsac"
)

#: Row-address space for simulator-built PRAC trackers.  The synthetic
#: workloads map addresses over a much larger row space than one
#: physical bank, so the per-row counter array is sized to cover it; a
#: concrete DDR5 deployment would use
#: :data:`repro.trackers.prac.DEFAULT_ROWS_PER_BANK`.
PRAC_SIM_ROWS_PER_BANK = 1 << 26

#: ExPress's default tMRO in the paper's scheme comparisons: tRAS + tRC
#: (Section VI-C), which pins its T* to the same value as ImPress-N.
DEFAULT_EXPRESS_TMRO_NS = 36.0 + 48.0


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """The simulated machine (defaults follow Table II, one channel)."""

    n_cores: int = 8
    channels: int = 1
    banks_per_channel: int = 64   # 32 banks x 2 sub-channels (Table II)
    mlp: int = 8
    lines_per_row_group: int = 8
    timings: CycleTimings = field(default_factory=default_cycle_timings)
    #: Minimalist Open-Page: auto-precharge after this many column
    #: accesses to the open row (the 8-line MOP burst of Table II).
    #: None leaves rows open until a conflict/refresh/tMRO closes them.
    mop_burst_lines: int | None = 8
    #: Idle-precharge timer: close a row nobody is hitting after this
    #: many idle cycles (None disables).
    idle_close_cycles: int | None = 150
    #: Round-trip latency outside DRAM (core->LLC->controller->core),
    #: added to every completion; it does not occupy the bank.
    extra_latency_cycles: int = 100

    def __post_init__(self) -> None:
        if self.n_cores < 1 or self.channels < 1 or self.banks_per_channel < 1:
            raise ValueError("cores, channels and banks must be positive")
        if self.mlp < 1:
            raise ValueError("mlp must be positive")

    def mapper(self) -> MopAddressMapper:
        return MopAddressMapper(
            channels=self.channels,
            banks_per_channel=self.banks_per_channel,
            lines_per_row_group=self.lines_per_row_group,
        )

    @property
    def total_banks(self) -> int:
        """Banks across all channels (the flat-bank id space)."""
        return self.channels * self.banks_per_channel

    def validate_sources(self, sources) -> None:
        """Check a heterogeneous per-core assignment fits this machine.

        ``sources`` is one trace source per core
        (:data:`repro.workloads.sources.CoreSources`); the count must
        match ``n_cores`` and any source pinned to a (channel, bank) —
        attackers — must target hardware that exists.  Duck-typed via
        ``validate_for`` so this layer needs no workload imports.
        """
        if len(sources) != self.n_cores:
            raise ValueError(
                f"need one trace source per core: got {len(sources)} "
                f"sources for {self.n_cores} cores"
            )
        for source in sources:
            validate = getattr(source, "validate_for", None)
            if validate is not None:
                validate(self.channels, self.banks_per_channel)


@dataclass(frozen=True, slots=True)
class DefenseConfig:
    """One (tracker, scheme) configuration of the evaluation."""

    tracker: str = "none"
    scheme: str = "no-rp"
    trh: float = 4000.0
    alpha: float = 1.0
    tmro_ns: Optional[float] = None
    fraction_bits: int = 7
    rfmth: int = 80
    seed: int = 0
    #: Override for the tracker's provisioning threshold as a fraction
    #: of TRH, e.g. the measured T*(tMRO) of Fig 4 when sweeping ExPress
    #: configurations (Fig 5).  None uses the scheme's default rule.
    target_scale: Optional[float] = None

    def __post_init__(self) -> None:
        if self.tracker not in TRACKER_NAMES:
            raise ValueError(f"unknown tracker: {self.tracker!r}")
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme: {self.scheme!r}")
        if self.trh <= 0:
            raise ValueError("trh must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")

    @property
    def target_threshold(self) -> float:
        """Threshold the tracker must be provisioned for.

        ExPress (at tMRO = tRAS + tRC) and ImPress-N leave Row-Press
        worth up to (1 + alpha) unmitigated per recorded ACT (Eq 5), so
        their trackers target TRH / (1 + alpha).  No-RP and ImPress-P
        keep the full TRH.  ``target_scale`` overrides the rule.
        """
        if self.target_scale is not None:
            return self.trh * self.target_scale
        if self.scheme in ("express", "impress-n"):
            return self.trh / (1.0 + self.alpha)
        return self.trh

    @property
    def uses_rfm(self) -> bool:
        """Trackers the controller must drive with RFM commands.

        DSAC is in-DRAM storage-wise, but in this model it mitigates
        synchronously from its record path (like PRAC's ABO flow), so
        neither needs RFM scheduling.
        """
        return self.tracker in ("mithril", "mint")

    @property
    def tracker_fraction_bits(self) -> int:
        return self.fraction_bits if self.scheme == "impress-p" else 0

    def effective_rfmth(self) -> int:
        """RFM rate: MINT tightens RFMTH to keep its tolerated TRH."""
        if self.tracker != "mint":
            return self.rfmth
        if self.scheme in ("express", "impress-n"):
            # Keep the same tolerated threshold by issuing RFM more
            # often: RFM-40 at alpha = 1, RFM-60 at alpha = 0.35
            # (Appendix A).
            return max(1, math.ceil(self.rfmth / (1.0 + self.alpha)))
        return self.rfmth

    def express_tmro_cycles(self, timings: CycleTimings) -> Optional[int]:
        if self.scheme != "express" and self.tmro_ns is None:
            return None
        tmro_ns = (
            self.tmro_ns if self.tmro_ns is not None else DEFAULT_EXPRESS_TMRO_NS
        )
        cycles = timings.clock.cycles(tmro_ns)
        # Test-only plant for the invariant engine/fuzzer: enforce a far
        # weaker limit than configured.  Inactive in every normal run;
        # see repro.security.faults.
        from ..security import faults

        if faults.fault_active("lax-tmro"):
            cycles *= faults.LAX_TMRO_FACTOR
        return cycles

    # -- tracker construction -------------------------------------------

    def _build_tracker(self, bank_seed: int) -> Tracker:
        bits = self.tracker_fraction_bits
        if self.tracker == "none":
            return AccountingTracker()
        if self.tracker == "graphene":
            target = self.target_threshold
            return GrapheneTracker(
                entries=graphene_entries(target),
                internal_threshold=graphene_internal_threshold(target),
                fraction_bits=bits,
            )
        if self.tracker == "para":
            return ParaTracker(
                p=para_probability(self.target_threshold),
                rng=random.Random(bank_seed),
            )
        if self.tracker == "mithril":
            return MithrilTracker(
                entries=mithril_entries(self.target_threshold, self.rfmth),
                fraction_bits=bits,
            )
        if self.tracker == "mint":
            return MintTracker(
                rfmth=self.effective_rfmth(),
                fraction_bits=bits,
                rng=random.Random(bank_seed),
            )
        if self.tracker == "prac":
            # Alert at half the provisioning target: the ABO flow needs
            # headroom for back-off latency and the blast-radius victims
            # (Section VI-F), mirroring Graphene's internal-threshold
            # margin.
            return PracTracker(
                alert_threshold=self.target_threshold / 2.0,
                rows_per_bank=PRAC_SIM_ROWS_PER_BANK,
                fraction_bits=bits,
            )
        if self.tracker == "dsac":
            # DSAC keeps a Graphene-shaped counter table but re-weighs
            # activations logarithmically (Section VII); provisioned
            # like Graphene so the comparison isolates the weighting.
            target = self.target_threshold
            return DsacLikeTracker(
                entries=graphene_entries(target),
                mitigation_threshold=graphene_internal_threshold(target),
            )
        raise AssertionError("unreachable")

    def build_scheme(
        self, timings: CycleTimings, num_banks: int
    ) -> MitigationScheme:
        """Per-bank trackers wrapped in the configured RP scheme."""
        trackers = [
            self._build_tracker(self.seed * 7919 + bank)
            for bank in range(num_banks)
        ]
        if self.scheme == "no-rp":
            return NoRpScheme(trackers, timings)
        if self.scheme == "express":
            tmro = self.express_tmro_cycles(timings)
            assert tmro is not None
            return ExpressScheme(trackers, timings, tmro)
        if self.scheme == "impress-n":
            return ImpressNScheme(trackers, timings)
        if self.scheme == "impress-p":
            return ImpressPScheme(trackers, timings, self.fraction_bits)
        raise AssertionError("unreachable")


def _normalize_point(point) -> Tuple[object, Optional[DefenseConfig],
                                     Optional[float]]:
    """Canonicalize a point spec into the ``(workload, defense, tmro_ns)``
    triple that keys the sweep cache.  The one copy: it lives here, in
    a module every sweep already imports, so neither
    ``repro.experiments.common`` nor the batch tier has to load the
    other to key a point."""
    sweep_point = getattr(point, "sweep_point", None)
    if sweep_point is not None:
        return sweep_point()
    if isinstance(point, str):
        return (point, None, None)
    workload, *rest = point
    defense = rest[0] if rest else None
    tmro_ns = rest[1] if len(rest) > 1 else None
    return (workload, defense, tmro_ns)
