"""Seeded scenario fuzzer with shrinking reproducers.

``repro fuzz --seed S --budget N`` random-walks the
:class:`~repro.scenarios.spec.ScenarioSpec` space — phase-changing
attackers, attacker-vs-attacker bank sharing, decoy/dwell/refresh-sync
parameter mutations, K and topology perturbations — through a seeded
mutation grammar, and runs every candidate under the online
:class:`~repro.security.invariants.InvariantMonitor` in **both**
engines.  A candidate fails when any invariant trips in either engine
*or* when the engines disagree on any SimResult field
(``engine-divergence`` — the bit-identical contract is itself an
invariant here).

Failures are greedily shrunk to minimal reproducers: halve the request
count, idle cores one by one, drop trailing idle cores (shrinking the
topology), simplify attacker sources (phased → first phase, extra rows
and tuned parameters → defaults), and clamp banks/channels — keeping
each reduction only if the exact failure signature (the sorted set of
violated invariant names) still reproduces.  A shrunk divergence
failure is then located by :func:`first_divergence`: the earliest
demand ACT that differs between the engines' per-bank ACT logs.

The shrunk reproducer lands in the content-addressed
:class:`~repro.results.store.ResultStore` keyed by its explicit recipe
(spec recipe + run shape + active faults), so a fixed seed produces the
same store keys on every invocation, and
:func:`replay_reproducer`/:func:`reproducer_spec` rebuild the exact run
— or a ready-to-register named preset — from the blob alone.

Everything is deterministic in ``seed``: candidate generation draws
from one ``random.Random(seed)`` stream, and checking/shrinking draw
nothing.
"""

from __future__ import annotations

import random
from collections import namedtuple
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from itertools import zip_longest
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..memctrl.request import CORE_ID_MASK, ROW_SHIFT
from ..results.store import ResultStore
from ..security import faults
from ..security.invariants import monitored_run
from ..sim.config import DefenseConfig, SystemConfig
from ..sim.system import build_simulator
from ..workloads.sources import (
    ATTACK_PATTERNS,
    AttackerSource,
    IdleSource,
    PhasedAttackerSource,
    ProfileSource,
)
from .spec import ScenarioSpec, spec_from_recipe

#: Default requests per core for fuzz candidates: enough simulated time
#: to cross refresh windows and force mitigations, small enough that a
#: candidate runs in both engines in well under a second.
DEFAULT_FUZZ_REQUESTS = 160

#: The shrinker never halves the request count below this floor — a
#: reproducer that short would not exercise the invariants it violates.
MIN_SHRINK_REQUESTS = 40

#: Benign profiles the generator places on victim cores.
FUZZ_PROFILES = ("mcf", "gcc", "omnetpp", "bwaves")

#: Defense points the generator draws from — one per tracker kind plus
#: the undefended machine, mirroring the invariant-engine test matrix.
FUZZ_DEFENSES: Tuple[Optional[DefenseConfig], ...] = (
    None,
    DefenseConfig(tracker="graphene", scheme="impress-p"),
    DefenseConfig(tracker="graphene", scheme="impress-n"),
    DefenseConfig(tracker="graphene", scheme="express", alpha=1.0),
    DefenseConfig(tracker="para", scheme="impress-p", trh=100),
    DefenseConfig(tracker="mithril", scheme="impress-p", rfmth=20),
    DefenseConfig(tracker="mint", scheme="impress-n", trh=1600, rfmth=20),
    DefenseConfig(tracker="prac", scheme="impress-p", trh=150),
    DefenseConfig(tracker="dsac", scheme="impress-p", trh=300),
)


# -- candidate generation -------------------------------------------------


def _random_attacker(
    rng: random.Random, channels: int, banks: int
) -> AttackerSource:
    """One random attack source aimed inside the given topology."""
    pattern = rng.choice(ATTACK_PATTERNS)
    bank = rng.randrange(banks)
    channel = rng.randrange(channels)
    base_row = rng.randrange(16, 480, 2)
    n_rows = rng.choice((2, 2, 3, 4))
    kwargs: Dict[str, Any] = {
        "pattern": pattern,
        "bank": bank,
        "channel": channel,
        "rows": tuple(base_row + 2 * i for i in range(n_rows)),
    }
    if pattern == "hammer":
        kwargs["gap_cycles"] = rng.choice((0, 8, 32))
    elif pattern == "k_sided":
        kwargs["victim_row"] = base_row + 1
        kwargs["k"] = rng.choice((2, 3, 4))
    elif pattern in ("dwell", "decoy"):
        kwargs["hold_gap_cycles"] = rng.choice((40, 80, 120))
        kwargs["hits_per_dwell"] = rng.choice((2, 4, 8))
        kwargs["hold_hits"] = rng.choice((1, 2, 4))
    elif pattern == "refresh_sync":
        kwargs["burst_acts"] = rng.choice((16, 40, 64))
        kwargs["idle_gap_cycles"] = rng.choice((2048, 8192))
    return AttackerSource(**kwargs)


def random_spec(rng: random.Random, index: int) -> ScenarioSpec:
    """One random scenario: small topology, mixed victim/attacker cores."""
    n_cores = rng.randint(2, 4)
    channels = rng.choice((1, 1, 2))
    banks = rng.choice((8, 16))
    # A third of candidates disable MOP auto-precharge: Row-Press
    # pressure (and tMRO enforcement) only matters when rows can
    # actually be held open.
    mop = rng.choice((8, 8, None))
    system = SystemConfig(
        n_cores=n_cores, channels=channels, banks_per_channel=banks,
        mop_burst_lines=mop,
    )
    cores: List[Any] = [ProfileSource(rng.choice(FUZZ_PROFILES))]
    for _ in range(n_cores - 1):
        roll = rng.random()
        if roll < 0.55:
            cores.append(_random_attacker(rng, channels, banks))
        elif roll < 0.70:
            phases = tuple(
                _random_attacker(rng, channels, banks)
                for _ in range(rng.randint(2, 3))
            )
            cores.append(
                PhasedAttackerSource(
                    phases=phases, phase_len=rng.choice((24, 48))
                )
            )
        elif roll < 0.85:
            cores.append(ProfileSource(rng.choice(FUZZ_PROFILES)))
        else:
            cores.append(IdleSource())
    defense = rng.choice(FUZZ_DEFENSES)
    tmro_ns = (
        rng.choice((84.0, 120.0, 180.0)) if rng.random() < 0.2 else None
    )
    return ScenarioSpec(
        name=f"fuzz_{index}",
        cores=tuple(cores),
        system=system,
        defense=defense,
        tmro_ns=tmro_ns,
        description="fuzzer-generated candidate",
    )


# -- the mutation grammar -------------------------------------------------


def _plain_attackers(spec: ScenarioSpec) -> List[int]:
    """Cores running a single-phase attacker."""
    return [i for i in spec.attacker_cores()
            if isinstance(spec.cores[i], AttackerSource)]


def _with_cores(
    spec: ScenarioSpec, cores: Sequence[Any],
    system: Optional[SystemConfig] = None,
) -> Optional[ScenarioSpec]:
    """A copy with replaced cores/topology, or None if invalid."""
    try:
        return replace(
            spec, cores=tuple(cores), system=system or spec.system
        )
    except ValueError:
        return None


def _mut_share_bank(rng, spec):
    """Attacker-vs-attacker bank sharing: retarget one onto another."""
    attackers = _plain_attackers(spec)
    if len(attackers) < 2:
        return None
    dst, src = rng.sample(attackers, 2)
    target = spec.cores[src]
    cores = list(spec.cores)
    cores[dst] = replace(
        cores[dst], bank=target.bank, channel=target.channel
    )
    return _with_cores(spec, cores)


def _mut_change_pattern(rng, spec):
    """Swap one attacker's pattern, keeping its target bank."""
    attackers = _plain_attackers(spec)
    if not attackers:
        return None
    idx = rng.choice(attackers)
    old = spec.cores[idx]
    fresh = _random_attacker(
        rng, spec.system.channels, spec.system.banks_per_channel
    )
    cores = list(spec.cores)
    cores[idx] = replace(fresh, bank=old.bank, channel=old.channel)
    return _with_cores(spec, cores)


def _mut_perturb_params(rng, spec):
    """Nudge one attacker's K/dwell/decoy/refresh-sync parameters."""
    attackers = _plain_attackers(spec)
    if not attackers:
        return None
    idx = rng.choice(attackers)
    source = spec.cores[idx]
    cores = list(spec.cores)
    if source.pattern == "k_sided":
        cores[idx] = replace(
            source, k=max(2, min(6, source.k + rng.choice((-1, 1))))
        )
    elif source.pattern in ("dwell", "decoy"):
        cores[idx] = replace(
            source,
            hold_gap_cycles=rng.choice((40, 80, 120, 140)),
            hold_hits=rng.choice((1, 2, 4)),
            hits_per_dwell=rng.choice((2, 4, 8)),
        )
    elif source.pattern == "refresh_sync":
        cores[idx] = replace(
            source,
            burst_acts=rng.choice((16, 32, 64)),
            idle_gap_cycles=rng.choice((2048, 4096, 8192)),
        )
    else:
        cores[idx] = replace(source, gap_cycles=rng.choice((0, 8, 32)))
    return _with_cores(spec, cores)


def _mut_phase_change(rng, spec):
    """Make an attacker phase-changing (or grow/rotate its phases)."""
    attackers = spec.attacker_cores()
    if not attackers:
        return None
    idx = rng.choice(attackers)
    source = spec.cores[idx]
    extra = _random_attacker(
        rng, spec.system.channels, spec.system.banks_per_channel
    )
    cores = list(spec.cores)
    if isinstance(source, PhasedAttackerSource):
        phases = source.phases[1:] + source.phases[:1] + (extra,)
        cores[idx] = replace(source, phases=phases[:4])
    else:
        cores[idx] = PhasedAttackerSource(
            phases=(source, extra), phase_len=rng.choice((24, 48))
        )
    return _with_cores(spec, cores)


def _mut_topology(rng, spec):
    """Perturb the machine: bank count, channel count, or core count."""
    system = spec.system
    roll = rng.random()
    if roll < 0.4:
        banks = rng.choice((4, 8, 16, 32))
        if banks == system.banks_per_channel:
            return None
        cores = [
            replace(source, bank=source.bank % banks)
            if isinstance(source, AttackerSource) else source
            for source in spec.cores
        ]
        return _with_cores(
            spec, cores, replace(system, banks_per_channel=banks)
        )
    if roll < 0.6:
        channels = 2 if system.channels == 1 else 1
        cores = [
            replace(source, channel=source.channel % channels)
            if isinstance(source, AttackerSource) else source
            for source in spec.cores
        ]
        return _with_cores(
            spec, cores, replace(system, channels=channels)
        )
    cores = list(spec.cores) + [
        _random_attacker(rng, system.channels, system.banks_per_channel)
    ]
    return _with_cores(
        spec, cores, replace(system, n_cores=system.n_cores + 1)
    )


def _mut_defense(rng, spec):
    """Move to another defense point (or toggle an explicit tMRO)."""
    defense = rng.choice(FUZZ_DEFENSES)
    tmro_ns = (
        rng.choice((84.0, 120.0, 180.0)) if rng.random() < 0.25 else None
    )
    return replace(spec, defense=defense, tmro_ns=tmro_ns)


#: The grammar: every operator takes (rng, spec) and returns a mutated
#: spec or None when it does not apply.
MUTATIONS: Tuple[Callable, ...] = (
    _mut_share_bank,
    _mut_change_pattern,
    _mut_perturb_params,
    _mut_phase_change,
    _mut_topology,
    _mut_defense,
)


def mutate_spec(
    rng: random.Random, spec: ScenarioSpec, tries: int = 8
) -> ScenarioSpec:
    """Apply one applicable mutation (the spec itself if none applies)."""
    for _ in range(tries):
        mutated = rng.choice(MUTATIONS)(rng, spec)
        if mutated is not None:
            return mutated
    return spec


# -- candidate checking ---------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    """One candidate's verdict across both engines."""

    signature: Tuple[str, ...]   # sorted violated-invariant names
    violations: Tuple[str, ...]  # engine-tagged Violation.describe lines
    divergence: Optional[str]    # field summary when engines disagree

    @property
    def ok(self) -> bool:
        return not self.signature


def check_scenario(
    spec: ScenarioSpec,
    n_requests: int = DEFAULT_FUZZ_REQUESTS,
    seed: int = 0,
    checkpoint_cycles: int = 50_000,
) -> CheckOutcome:
    """Run one candidate under the monitor in both engines.

    The signature unions the violated-invariant names from both engines
    and adds ``engine-divergence`` when any SimResult field differs —
    the reference engine is the oracle for the fast one, so divergence
    is a first-class violation even with every invariant clean.
    """
    results = {}
    names = set()
    describes: List[str] = []
    for engine in ("fast", "reference"):
        sim = build_simulator(
            spec.system, spec.cores, spec.defense, spec.tmro_ns,
            n_requests, seed, engine,
        )
        result, monitor = monitored_run(
            sim, tmro_ns=spec.tmro_ns, checkpoint_cycles=checkpoint_cycles
        )
        results[engine] = result
        names.update(monitor.violation_names())
        describes.extend(
            f"{engine}: {violation.describe()}"
            for violation in monitor.violations
        )
    fast, reference = (results[e].to_json() for e in ("fast", "reference"))
    differing = sorted(field for field in fast
                       if fast[field] != reference[field])
    divergence = None
    if differing:
        divergence = "engines disagree on: " + ", ".join(differing)
        names.add("engine-divergence")
        describes.append(f"both: {divergence}")
    return CheckOutcome(
        signature=tuple(sorted(names)),
        violations=tuple(describes),
        divergence=divergence,
    )


# -- divergence location -------------------------------------------------

#: One demand ACT and the ``(row, core)`` requests left in its queue.
Act = namedtuple("Act", "cycle row core queue")


class ActLog:
    """Every demand ACT one simulator issues, per ``(channel, bank)``.

    Wraps each bank's act slot (a None slot gets a shim returning 0).
    The controller credits an ACT's core in ``core_demand_acts`` before
    it calls the slot, so the ACT's core is the one whose count moved.
    """

    def __init__(self, sim) -> None:
        self._logs: Dict[Tuple[int, int], List[Act]] = {}
        for channel, controller in enumerate(sim.controllers):
            seen: Dict[int, int] = {}
            slots = controller._act_kernels
            for bank, book in enumerate(controller.state):
                log = self._logs[channel, bank] = []
                slots[bank] = partial(
                    self._record, controller.core_demand_acts, seen, log,
                    book, slots[bank],
                )

    @staticmethod
    def _record(counts, seen, log, book, kernel, row) -> int:
        core = next(core for core in counts if counts[core] != seen.get(core))
        seen[core] = counts[core]
        log.append(Act(book.act_cycle, row, core, tuple(
            (request >> ROW_SHIFT, (request >> 1) & CORE_ID_MASK)
            for request in book.queue
        )))
        return 0 if kernel is None else kernel(row)

    def banks(self) -> Dict[Tuple[int, int], List[Act]]:
        return {key: list(log) for key, log in self._logs.items()}


class Divergence(namedtuple(
        "Divergence", "channel bank cycle kind fast reference")):
    """The earliest differing demand ACT.  ``kind`` is ``queue-order``
    (same queued requests, opened in a different order), ``row``,
    ``cycle`` or ``extra-act`` (one bank log is a prefix of the other)."""

    def describe(self) -> str:
        fast, reference = (
            f"core {act.core}'s row {act.row} @ {act.cycle}" if act
            else "nothing" for act in (self.fast, self.reference)
        )
        return (f"first differing ACT: channel {self.channel}, bank "
                f"{self.bank}, cycle {self.cycle} ({self.kind}): fast "
                f"opens {fast}; reference opens {reference}")


def _kind(fast: Optional[Act], reference: Optional[Act]) -> str:
    if fast is None or reference is None:
        return "extra-act"
    if fast.cycle != reference.cycle:
        return "cycle"
    queued = [sorted(act.queue + (act[1:3],)) for act in (fast, reference)]
    return "queue-order" if queued[0] == queued[1] else "row"


def first_divergence(
    system: SystemConfig, workload, defense: Optional[DefenseConfig] = None,
    tmro_ns: Optional[float] = None, n_requests: int = 2000, seed: int = 0,
) -> Optional[Divergence]:
    """Run both engines on one :func:`build_simulator` point and return
    the earliest demand ACT whose cycle, row or core differs between
    their per-bank :class:`ActLog`\\ s, or None when none does."""
    logs = []
    for engine in ("fast", "reference"):
        sim = build_simulator(
            system, workload, defense, tmro_ns, n_requests, seed, engine
        )
        log = ActLog(sim)
        sim.run()
        logs.append(log.banks())
    found = []
    for (channel, bank), fast in logs[0].items():
        for a, b in zip_longest(fast, logs[1][channel, bank]):
            if (a and a[:3]) != (b and b[:3]):
                found.append(Divergence(
                    channel, bank, min(act.cycle for act in (a, b) if act),
                    _kind(a, b), a, b,
                ))
                break
    return min(found, key=lambda d: (d.cycle, d.channel, d.bank),
               default=None)


def _locate(
    spec: ScenarioSpec, n_requests: int, seed: int, outcome: CheckOutcome
) -> Optional[str]:
    """The first differing ACT's text when ``outcome`` diverges."""
    if "engine-divergence" not in outcome.signature:
        return None
    located = first_divergence(
        spec.system, spec.cores, spec.defense, spec.tmro_ns, n_requests, seed
    )
    return located and located.describe()


# -- shrinking ------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkResult:
    """A minimized failing candidate plus the trail that got there."""

    spec: ScenarioSpec
    n_requests: int
    steps: Tuple[str, ...]
    evaluations: int
    outcome: CheckOutcome   # the check of ``spec`` at ``n_requests``


def _simplified_attacker(source: AttackerSource) -> AttackerSource:
    """The canonical simpler form of an attacker (same pattern/target)."""
    return AttackerSource(
        pattern=source.pattern,
        bank=source.bank,
        channel=source.channel,
        rows=source.rows[:2],
        victim_row=source.victim_row,
    )


def shrink(
    spec: ScenarioSpec,
    outcome: CheckOutcome,
    n_requests: int = DEFAULT_FUZZ_REQUESTS,
    seed: int = 0,
    checkpoint_cycles: int = 50_000,
    max_evaluations: int = 48,
) -> ShrinkResult:
    """Greedily minimize a failing candidate, preserving its signature.

    ``outcome`` is the failing check of ``spec``.  Each pass proposes a
    strictly smaller candidate and keeps it only if re-checking still
    yields exactly ``outcome.signature``; passes repeat until a fixpoint
    (or the evaluation budget runs out).  The result carries the check
    of the candidate kept last, so the caller never re-runs it.  Passes, in
    order: halve ``n_requests``, idle cores one by one, drop trailing
    idle cores (shrinking ``n_cores``), simplify attacker sources
    (phased → first phase, tuned parameters → defaults), and clamp the
    channel count.
    """
    evaluations = 0
    steps: List[str] = []
    signature = outcome.signature

    def still_fails(candidate: ScenarioSpec, candidate_requests: int) -> bool:
        nonlocal evaluations, outcome
        if evaluations >= max_evaluations:
            return False
        evaluations += 1
        checked = check_scenario(
            candidate, candidate_requests, seed, checkpoint_cycles
        )
        if checked.signature != signature:
            return False
        outcome = checked
        return True

    changed = True
    while changed and evaluations < max_evaluations:
        changed = False

        # Halve the run length.
        while (
            n_requests // 2 >= MIN_SHRINK_REQUESTS
            and still_fails(spec, n_requests // 2)
        ):
            n_requests //= 2
            steps.append(f"halved requests to {n_requests}")
            changed = True

        # Idle cores one by one (victim first: it is least load-bearing).
        if not isinstance(spec.cores, str):
            for idx, source in enumerate(spec.cores):
                if isinstance(source, IdleSource):
                    continue
                cores = list(spec.cores)
                cores[idx] = IdleSource()
                candidate = _with_cores(spec, cores)
                if candidate is not None and still_fails(candidate, n_requests):
                    spec = candidate
                    steps.append(f"idled core {idx}")
                    changed = True

            # Drop trailing idle cores, shrinking the topology with them.
            while (
                not isinstance(spec.cores, str)
                and len(spec.cores) > 1
                and isinstance(spec.cores[-1], IdleSource)
            ):
                candidate = _with_cores(
                    spec, spec.cores[:-1],
                    replace(spec.system, n_cores=spec.system.n_cores - 1),
                )
                if candidate is not None and still_fails(candidate, n_requests):
                    spec = candidate
                    steps.append(f"dropped idle core (now {len(spec.cores)})")
                    changed = True
                else:
                    break

            # Simplify attacker sources.
            for idx, source in enumerate(spec.cores):
                if isinstance(source, PhasedAttackerSource):
                    simpler: Any = source.phases[0]
                elif isinstance(source, AttackerSource):
                    simpler = _simplified_attacker(source)
                    if simpler == source:
                        continue
                else:
                    continue
                cores = list(spec.cores)
                cores[idx] = simpler
                candidate = _with_cores(spec, cores)
                if candidate is not None and still_fails(candidate, n_requests):
                    spec = candidate
                    steps.append(f"simplified attacker on core {idx}")
                    changed = True

            # Clamp to one channel when nothing targets the second.
            if spec.system.channels > 1 and all(
                getattr(source, "channel", 0) == 0
                or isinstance(source, PhasedAttackerSource)
                and all(phase.channel == 0 for phase in source.phases)
                for source in spec.cores
            ):
                candidate = _with_cores(
                    spec, spec.cores, replace(spec.system, channels=1)
                )
                if candidate is not None and still_fails(candidate, n_requests):
                    spec = candidate
                    steps.append("clamped to one channel")
                    changed = True

    return ShrinkResult(
        spec=spec,
        n_requests=n_requests,
        steps=tuple(steps),
        evaluations=evaluations,
        outcome=outcome,
    )


# -- reproducers ----------------------------------------------------------


@dataclass(frozen=True)
class FuzzFailure:
    """One fuzz failure, shrunk, with its stored reproducer key."""

    candidate: int
    spec: ScenarioSpec
    n_requests: int
    seed: int
    signature: Tuple[str, ...]
    violations: Tuple[str, ...]
    first_divergence: Optional[str]  # Divergence.describe() text
    shrink_steps: Tuple[str, ...]
    shrink_evaluations: int
    store_key: Optional[str]


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one ``fuzz()`` invocation."""

    seed: int
    budget: int
    n_requests: int
    candidates: int
    failures: Tuple[FuzzFailure, ...]
    faults: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_repro_recipe(
    spec: ScenarioSpec, n_requests: int, seed: int
) -> Dict[str, Any]:
    """The content-store recipe of one fuzz reproducer.

    Active faults are part of the identity: a failure that only exists
    under an injected fault must never collide with (or replay as) a
    clean run of the same spec.
    """
    return {
        "kind": "fuzz-repro",
        "scenario": spec.recipe(),
        "n_requests": n_requests,
        "seed": seed,
        "faults": list(faults.active_faults()),
    }


def store_reproducer(store: ResultStore, failure: FuzzFailure) -> str:
    """Persist a shrunk reproducer; returns its content key."""
    recipe = fuzz_repro_recipe(
        failure.spec, failure.n_requests, failure.seed
    )
    payload = {
        "signature": list(failure.signature),
        "violations": list(failure.violations),
        "first_divergence": failure.first_divergence,
        "shrink_steps": list(failure.shrink_steps),
        "shrink_evaluations": failure.shrink_evaluations,
        "cores": failure.spec.core_summary(),
        "defense": failure.spec.defense_summary(),
    }
    name = "fuzz/" + "+".join(failure.signature)
    key, _, _ = store.put(
        recipe, payload, name=name, kind="fuzz-repro",
        meta={"candidate": failure.candidate, "seed": failure.seed},
    )
    return key


def reproducer_spec(
    store: ResultStore, key: str, name: Optional[str] = None
) -> Tuple[ScenarioSpec, Dict[str, Any]]:
    """A stored reproducer as a ready-to-run named scenario preset.

    Returns ``(spec, recipe)``; the spec can be registered or passed
    straight to ``run_scenario``.  Raises ``KeyError`` when ``key``
    holds no fuzz reproducer.
    """
    recipe = store.recipe(key)
    if recipe is None or recipe.get("kind") != "fuzz-repro":
        raise KeyError(f"no fuzz reproducer stored under key {key!r}")
    spec = spec_from_recipe(
        recipe["scenario"],
        name=name or f"fuzz_repro_{key}",
        description=f"shrunk fuzz reproducer {key}",
    )
    return spec, recipe


def replay_reproducer(
    store: ResultStore, key: str, checkpoint_cycles: int = 50_000
) -> Tuple[ScenarioSpec, CheckOutcome, Optional[str]]:
    """Re-run a stored reproducer exactly as the fuzzer saw it.

    The blob's recipe pins the spec, run shape *and* the injected
    faults, so replaying the planted-fault reproducer re-trips the same
    invariants, and replaying it without its recorded faults would not
    — which is why the faults ride in the recipe.  The third item is
    the first differing ACT, located as :func:`fuzz` does, when the
    replay diverges.
    """
    spec, recipe = reproducer_spec(store, key)
    with ExitStack() as stack:
        for fault in recipe.get("faults", ()):
            stack.enter_context(faults.injected(fault))
        outcome = check_scenario(
            spec, recipe["n_requests"], recipe["seed"],
            checkpoint_cycles=checkpoint_cycles,
        )
        located = _locate(spec, recipe["n_requests"], recipe["seed"], outcome)
    return spec, outcome, located


# -- the main loop --------------------------------------------------------


def fuzz(
    seed: int,
    budget: int,
    n_requests: int = DEFAULT_FUZZ_REQUESTS,
    store: Optional[ResultStore] = None,
    checkpoint_cycles: int = 50_000,
    max_shrink_evaluations: int = 48,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run ``budget`` seeded candidates; shrink and store every failure.

    Fully deterministic in ``(seed, budget, n_requests)``: two
    invocations yield the same candidates, the same failure signatures,
    the same shrunk reproducers and the same store keys.
    """
    rng = random.Random(seed)
    failures: List[FuzzFailure] = []
    for candidate in range(budget):
        spec = random_spec(rng, candidate)
        for _ in range(rng.randint(0, 2)):
            spec = mutate_spec(rng, spec)
        outcome = check_scenario(
            spec, n_requests, seed, checkpoint_cycles
        )
        if progress is not None:
            verdict = (
                "ok" if outcome.ok else "+".join(outcome.signature)
            )
            progress(
                f"candidate {candidate}: {spec.core_summary()} under "
                f"{spec.defense_summary()} -> {verdict}"
            )
        if outcome.ok:
            continue
        shrunk = shrink(
            spec, outcome, n_requests, seed,
            checkpoint_cycles=checkpoint_cycles,
            max_evaluations=max_shrink_evaluations,
        )
        failure = FuzzFailure(
            candidate=candidate,
            spec=shrunk.spec,
            n_requests=shrunk.n_requests,
            seed=seed,
            signature=shrunk.outcome.signature,
            violations=shrunk.outcome.violations,
            first_divergence=_locate(
                shrunk.spec, shrunk.n_requests, seed, shrunk.outcome
            ),
            shrink_steps=shrunk.steps,
            shrink_evaluations=shrunk.evaluations,
            store_key=None,
        )
        if store is not None:
            failure = replace(
                failure, store_key=store_reproducer(store, failure)
            )
        failures.append(failure)
        if progress is not None:
            progress(
                f"  shrunk to {failure.spec.core_summary()} @ "
                f"{failure.n_requests} requests "
                f"({failure.shrink_evaluations} evaluations)"
                + (f", stored {failure.store_key}" if failure.store_key
                   else "")
            )
    return FuzzReport(
        seed=seed,
        budget=budget,
        n_requests=n_requests,
        candidates=budget,
        failures=tuple(failures),
        faults=faults.active_faults(),
    )
