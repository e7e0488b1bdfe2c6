"""Per-core trace sources: the heterogeneous workload layer.

A *trace source* declares what one core's memory traffic is — a named
SPEC/STREAM profile copy, an attack-pattern generator, or nothing at
all — without generating anything.  Sources are small frozen
dataclasses, so a tuple of them is hashable and can key the compiled-
trace and sweep caches the same way a workload-name string does.

Three source kinds:

* :class:`ProfileSource` — one rate-mode copy of a named benign
  profile, placed with the exact per-core recipe of
  :func:`repro.workloads.synthetic.rate_mode_traces` (same seed
  derivation, same address offset), so an all-:class:`ProfileSource`
  scenario is bit-identical to the legacy single-workload path.
* :class:`AttackerSource` — a deterministic attack trace from
  :mod:`repro.workloads.attacks` (hammer, K-sided, Row-Press dwell,
  decoy, refresh-synchronized) aimed at an explicit (channel, bank).
  All shape parameters are stored in DRAM cycles so trace generation is
  a pure function of the source and the mapper geometry.
* :class:`IdleSource` — an empty trace.  Scenario baselines replace
  attackers with idle cores so victim cores keep their core ids (and
  their per-core metrics stay comparable).

:func:`build_core_traces` turns a source tuple into per-core
:class:`~repro.workloads.trace.Trace` objects;
:func:`repro.workloads.compiled.compiled_source_traces` adds the
process-local compiled cache in front of it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Tuple, Union

from ..dram.address import MopAddressMapper
from .attacks import (
    decoy_trace,
    hammer_trace,
    k_sided_hammer_trace,
    refresh_sync_hammer_trace,
    row_press_dwell_trace,
)
from .profiles import profile_for
from .synthetic import profile_core_trace
from .trace import Trace

#: Attack patterns :class:`AttackerSource` can name.
ATTACK_PATTERNS = (
    "hammer", "k_sided", "dwell", "decoy", "refresh_sync"
)


@dataclass(frozen=True)
class ProfileSource:
    """One rate-mode copy of a named benign profile on one core."""

    profile: str

    def __post_init__(self) -> None:
        profile_for(self.profile)  # validate the name early

    def recipe(self) -> Dict[str, Any]:
        """Explicit field dict for content-addressed artifact keys."""
        return {"kind": "profile", "profile": self.profile}

    def build(
        self, core_id: int, n_requests: int, seed: int,
        mapper: MopAddressMapper,
    ) -> Trace:
        """This core's trace — the exact legacy rate-mode recipe."""
        return profile_core_trace(self.profile, core_id, n_requests, seed)


@dataclass(frozen=True)
class IdleSource:
    """A core that issues no memory traffic (scenario baselines)."""

    def recipe(self) -> Dict[str, Any]:
        """Explicit field dict for content-addressed artifact keys."""
        return {"kind": "idle"}

    def build(
        self, core_id: int, n_requests: int, seed: int,
        mapper: MopAddressMapper,
    ) -> Trace:
        """An empty trace: the core finishes immediately."""
        return Trace([])


@dataclass(frozen=True)
class AttackerSource:
    """A deterministic attack-trace generator pinned to one bank.

    ``pattern`` selects the generator; the remaining fields parameterize
    it (unused fields are ignored by the other patterns):

    * ``"hammer"`` — round-robin conflicts over ``rows``
      (:func:`~repro.workloads.attacks.hammer_trace`), ``gap_cycles``
      of think time between accesses.
    * ``"k_sided"`` — K aggressors around ``victim_row``
      (:func:`~repro.workloads.attacks.k_sided_hammer_trace`).
    * ``"dwell"`` — Row-Press dwell over ``rows``: ``hits_per_dwell``
      column hits spaced ``hold_gap_cycles`` apart per aggressor
      (:func:`~repro.workloads.attacks.row_press_dwell_trace`).
    * ``"decoy"`` — hold ``rows[0]`` open, force-close it with
      ``rows[1]`` (:func:`~repro.workloads.attacks.decoy_trace`).
    * ``"refresh_sync"`` — ``burst_acts`` back-to-back conflicts over
      ``rows``, then ``idle_gap_cycles`` of silence
      (:func:`~repro.workloads.attacks.refresh_sync_hammer_trace`).

    Every duration is in DRAM cycles, so the generated trace depends
    only on this source and the mapper geometry — presets derive cycle
    values from the timings once, at definition time.
    """

    pattern: str
    bank: int = 0
    channel: int = 0
    rows: Tuple[int, ...] = (64, 66)
    victim_row: int = 65
    k: int = 2
    gap_cycles: int = 0
    hold_gap_cycles: int = 120
    hits_per_dwell: int = 4
    hold_hits: int = 2
    burst_acts: int = 64
    idle_gap_cycles: int = 8192

    def __post_init__(self) -> None:
        if self.pattern not in ATTACK_PATTERNS:
            raise ValueError(
                f"unknown attack pattern {self.pattern!r}; "
                f"choose from: {', '.join(ATTACK_PATTERNS)}"
            )
        if self.bank < 0 or self.channel < 0:
            raise ValueError("bank and channel must be non-negative")

    def recipe(self) -> Dict[str, Any]:
        """Explicit field dict for content-addressed artifact keys.

        Every parameter field is included (even ones the selected
        pattern ignores), so the dict — unlike ``repr`` — is a stable
        function of the declared fields alone.
        """
        fields = asdict(self)
        fields["rows"] = list(fields["rows"])
        return {"kind": "attacker", **fields}

    def validate_for(self, channels: int, banks_per_channel: int) -> None:
        """Reject targets outside the simulated topology."""
        if self.channel >= channels:
            raise ValueError(
                f"attacker channel {self.channel} outside the "
                f"{channels}-channel topology"
            )
        if self.bank >= banks_per_channel:
            raise ValueError(
                f"attacker bank {self.bank} outside the "
                f"{banks_per_channel}-bank channel"
            )

    def build(
        self, core_id: int, n_requests: int, seed: int,
        mapper: MopAddressMapper,
    ) -> Trace:
        """Generate the attack trace against ``mapper``'s geometry."""
        self.validate_for(mapper.channels, mapper.banks_per_channel)
        if self.pattern == "hammer":
            return hammer_trace(
                mapper, self.bank, list(self.rows), n_requests,
                channel=self.channel, gap_cycles=self.gap_cycles,
            )
        if self.pattern == "k_sided":
            return k_sided_hammer_trace(
                mapper, self.bank, self.victim_row, self.k, n_requests,
                channel=self.channel, gap_cycles=self.gap_cycles,
            )
        if self.pattern == "dwell":
            return row_press_dwell_trace(
                mapper, self.bank, list(self.rows), n_requests,
                hold_gap_cycles=self.hold_gap_cycles,
                hits_per_dwell=self.hits_per_dwell,
                channel=self.channel,
            )
        if self.pattern == "decoy":
            if len(self.rows) < 2:
                raise ValueError("decoy pattern needs (target, decoy) rows")
            return decoy_trace(
                mapper, self.bank, self.rows[0], self.rows[1], n_requests,
                hold_gap_cycles=self.hold_gap_cycles,
                hold_hits=self.hold_hits,
                channel=self.channel,
            )
        if self.pattern == "refresh_sync":
            return refresh_sync_hammer_trace(
                mapper, self.bank, list(self.rows), n_requests,
                burst_acts=self.burst_acts,
                idle_gap_cycles=self.idle_gap_cycles,
                channel=self.channel,
            )
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class PhasedAttackerSource:
    """An attacker that switches behavior every ``phase_len`` requests.

    The trace concatenates each phase's generated requests in order,
    cycling through ``phases`` until ``n_requests`` are emitted — a
    phase-changing adversary (hammer, then dwell, then decoy, ...)
    that no single-pattern generator can express.  Phases may target
    different banks/channels, so one core can also spread pressure.
    """

    phases: Tuple[AttackerSource, ...]
    phase_len: int = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise ValueError("a phased attacker needs at least one phase")
        for phase in self.phases:
            if not isinstance(phase, AttackerSource):
                raise ValueError("phases must be AttackerSource values")
        if self.phase_len < 1:
            raise ValueError("phase_len must be positive")

    def recipe(self) -> Dict[str, Any]:
        """Explicit field dict for content-addressed artifact keys."""
        return {
            "kind": "phased",
            "phase_len": self.phase_len,
            "phases": [phase.recipe() for phase in self.phases],
        }

    def validate_for(self, channels: int, banks_per_channel: int) -> None:
        """Every phase's target must fit the simulated topology."""
        for phase in self.phases:
            phase.validate_for(channels, banks_per_channel)

    def build(
        self, core_id: int, n_requests: int, seed: int,
        mapper: MopAddressMapper,
    ) -> Trace:
        """Concatenate phase traces, cycling until ``n_requests``."""
        addresses: List[int] = []
        writes: List[bool] = []
        gaps: List[int] = []
        phase_idx = 0
        while len(addresses) < n_requests:
            phase = self.phases[phase_idx % len(self.phases)]
            chunk = phase.build(core_id, self.phase_len, seed, mapper)
            if len(chunk) == 0:
                break
            addresses.extend(chunk.addresses)
            writes.extend(chunk.writes)
            gaps.extend(chunk.gaps)
            phase_idx += 1
        return Trace.from_columns(
            addresses[:n_requests], writes[:n_requests], gaps[:n_requests]
        )


#: Anything that can sit in a scenario's per-core assignment tuple.
TraceSource = Union[
    ProfileSource, AttackerSource, PhasedAttackerSource, IdleSource
]

#: A full per-core assignment: one source per simulated core.
CoreSources = Tuple[TraceSource, ...]


def is_attacker(source: TraceSource) -> bool:
    """Whether ``source`` is an attack-pattern generator."""
    return isinstance(source, (AttackerSource, PhasedAttackerSource))


def source_from_recipe(recipe: Dict[str, Any]) -> TraceSource:
    """Reconstruct a trace source from its :meth:`recipe` dict.

    The exact inverse of each source's ``recipe()`` — round-tripping
    yields an equal (frozen, hashable) source, which is what lets a
    stored fuzz reproducer be replayed from its content-addressed blob
    alone.
    """
    kind = recipe.get("kind")
    if kind == "profile":
        return ProfileSource(recipe["profile"])
    if kind == "idle":
        return IdleSource()
    if kind == "attacker":
        fields = {k: v for k, v in recipe.items() if k != "kind"}
        fields["rows"] = tuple(fields["rows"])
        return AttackerSource(**fields)
    if kind == "phased":
        phases = tuple(
            source_from_recipe(phase) for phase in recipe["phases"]
        )
        return PhasedAttackerSource(
            phases=phases, phase_len=recipe["phase_len"]  # type: ignore[arg-type]
        )
    raise ValueError(f"unknown source recipe kind: {kind!r}")


def build_core_traces(
    sources: CoreSources,
    n_requests_per_core: int,
    seed: int,
    mapper: MopAddressMapper,
) -> List[Trace]:
    """One trace per source, in core order.

    Deterministic: every source builds from ``(source, core_id,
    n_requests, seed, mapper geometry)`` alone, so cached compilations
    are bit-identical to regeneration.
    """
    return [
        source.build(core_id, n_requests_per_core, seed, mapper)
        for core_id, source in enumerate(sources)
    ]
