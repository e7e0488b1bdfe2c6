"""Shared helpers for the per-figure experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..cache import CacheStats
from ..sim.config import DefenseConfig, SystemConfig, _normalize_point
from ..sim.metrics import geomean, normalized_weighted_speedup
from ..sim.stats import SimResult
from ..sim.system import simulate_workload
from ..workloads.profiles import SPEC_NAMES, STREAM_NAMES

if TYPE_CHECKING:
    from ..sim.batch import TimelineStore

#: One sweep point: ``(workload, defense, tmro_ns)`` — the same triple
#: that keys the :class:`SweepRunner` cache.  The workload slot is a
#: rate-mode name *or* a heterogeneous per-core source tuple
#: (:data:`repro.workloads.sources.CoreSources`); both are hashable and
#: :func:`~repro.sim.system.simulate_workload` dispatches on the type.
SweepPoint = Tuple[object, Optional[DefenseConfig], Optional[float]]

#: What callers may pass to :meth:`SweepRunner.run_many`: a bare
#: workload name, a ``(workload, defense)`` pair, a full triple, or any
#: object with a ``sweep_point()`` method — notably
#: :class:`repro.scenarios.spec.ScenarioSpec`, so scenario specs feed
#: ``run_many`` directly.  A bare source tuple is *not* accepted (it is
#: indistinguishable from a point tuple); wrap it in a triple or a
#: ScenarioSpec.
SweepPointLike = Union[
    str,
    Tuple[str],
    Tuple[str, Optional[DefenseConfig]],
    SweepPoint,
]


#: Default request budget per core for experiment-scale runs.  Small
#: enough for minutes-long sweeps, large enough for stable geomeans.
#: The synthetic streams contend hardest in their first few hundred
#: requests (cores start aligned and drift apart), which is the regime
#: closest to the paper's saturated STREAM workloads, so the default
#: stays in that window rather than diluting it with a long drifted
#: tail.
DEFAULT_REQUESTS = 800

#: The Rowhammer threshold every figure provisions its trackers for
#: unless it sweeps TRH, and the lower threshold the in-DRAM tracker
#: (MINT at RFM-80) tolerates as its reference point.
TRH = 4000.0
MINT_TRH = 1600.0

#: A reduced workload set for the heavier sweeps (one per class plus the
#: extremes), used when ``quick=True``.
QUICK_SPEC = ("mcf", "gcc", "bwaves")
QUICK_STREAM = ("add", "copy", "triad")


def workload_set(quick: bool) -> List[str]:
    if quick:
        return list(QUICK_SPEC + QUICK_STREAM)
    return list(SPEC_NAMES + STREAM_NAMES)


def crossed(
    names: Iterable[str], defenses: Iterable[Optional[DefenseConfig]]
) -> List[SweepPoint]:
    """Every workload under every defense, with no tMRO override."""
    defenses = list(defenses)
    return [(name, defense, None) for name in names for defense in defenses]


def spec_of(names: Iterable[str]) -> List[str]:
    return [name for name in names if name in SPEC_NAMES]


def stream_of(names: Iterable[str]) -> List[str]:
    return [name for name in names if name in STREAM_NAMES]


@dataclass
class SweepRunner:
    """Caches simulation runs so each config sweep shares its references.

    **Cache key contract.**  A run is identified by
    ``(workload, defense, tmro_ns)``; the runner's own ``system``,
    ``n_requests`` and ``seed`` are fixed per instance and therefore not
    part of the key — never mutate them after the first ``run()``.
    ``workload`` is a rate-mode name or a frozen per-core source tuple
    (the scenario path), and ``defense`` a frozen dataclass (or None),
    so value-equal configs share an entry.  Scenario specs built on
    this runner's topology canonicalize named workloads to their plain
    strings, so scenario specs and figure sweeps share entries.  :meth:`speedup` looks its baseline up through the
    same cache under ``(workload, baseline, None)``: the baseline leg
    always runs *without* a tMRO override, so a ``tmro_ns`` sweep shares
    one baseline entry per workload rather than one per point.

    The cache is unbounded by design — a full experiment sweep touches a
    few hundred configurations at most, and entries must stay alive for
    the whole sweep because later figures re-request earlier baselines.
    Long-lived callers can inspect growth via :meth:`cache_stats` and
    drop everything with :meth:`clear_cache`.
    """

    system: SystemConfig = field(default_factory=SystemConfig)
    n_requests: int = DEFAULT_REQUESTS
    seed: int = 0
    #: Route :meth:`run_many` batches through the batch engine
    #: tier (:func:`repro.sim.batch.simulate_batch`).  Results are
    #: bit-identical to per-point runs; set False to force the
    #: per-point fast engine.  The tier is imported by the first such
    #: batch, not by the runner.
    use_batch: bool = True
    _cache: Dict[tuple, SimResult] = field(default_factory=dict)
    _hits: int = 0
    _misses: int = 0
    #: Plain recorded timelines the batch tier lends across
    #: :meth:`run_many` calls (see :class:`~repro.sim.batch.TimelineStore`);
    #: created by the first batched call.
    _timelines: Optional[TimelineStore] = field(
        default=None, repr=False, compare=False
    )

    def run(
        self,
        workload,
        defense: Optional[DefenseConfig] = None,
        tmro_ns: Optional[float] = None,
    ) -> SimResult:
        """One (possibly cached) simulation of a workload-key point."""
        key = (workload, defense, tmro_ns)
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        result = simulate_workload(
            workload,
            defense=defense,
            system=self.system,
            n_requests_per_core=self.n_requests,
            tmro_ns=tmro_ns,
            seed=self.seed,
        )
        self._cache[key] = result
        return result

    def speedup(
        self,
        workload,
        defense: Optional[DefenseConfig],
        baseline: Optional[DefenseConfig] = None,
        tmro_ns: Optional[float] = None,
    ) -> float:
        result = self.run(workload, defense, tmro_ns)
        reference = self.run(workload, baseline)
        return normalized_weighted_speedup(result, reference)

    def run_many(self, points: Iterable[SweepPointLike]) -> List[SimResult]:
        """Batch-evaluate sweep points; returns results in input order.

        Points already in the cache are served from it (counted as
        hits); duplicates among the remaining points are computed once.
        More than one uncached point goes through the batch engine tier
        (see ``use_batch``), bit-identical to per-point runs; the
        results merge into the cache, so a figure can evaluate its whole
        grid before its assembly loops read every point back through
        ``run()`` / ``speedup()`` as hits.
        """
        normalized = [_normalize_point(point) for point in points]
        needed: List[SweepPoint] = []
        seen = set()
        cache = self._cache
        for key in normalized:
            if key in cache:
                self._hits += 1
            elif key not in seen:
                seen.add(key)
                needed.append(key)
        if self.use_batch and len(needed) > 1:
            # The batch tier replays compatible lanes against one
            # recorded leader run (lanes it cannot prove safe are
            # simulated for real inside simulate_batch).  Imported
            # here, so a process that never batches (the daemon, a
            # worker, the fuzzer) never loads it.  The function is
            # looked up on the module at call time, so a rebinding of
            # ``repro.sim.batch.simulate_batch`` (a tracer, a test
            # double) sees every call.
            from ..sim import batch

            if self._timelines is None:
                self._timelines = batch.TimelineStore()
            for key, result in zip(
                needed,
                batch.simulate_batch(
                    needed,
                    system=self.system,
                    n_requests_per_core=self.n_requests,
                    seed=self.seed,
                    timelines=self._timelines,
                ),
            ):
                cache[key] = result
                self._misses += 1
        else:
            for key in needed:
                self.run(*key)
        return [cache[key] for key in normalized]

    def cache_stats(self) -> CacheStats:
        """Current hit/miss counters and entry count of the run cache."""
        return CacheStats(
            hits=self._hits, misses=self._misses, size=len(self._cache)
        )

    def clear_cache(self) -> None:
        """Drop every cached run and recorded timeline; reset the counters."""
        self._cache.clear()
        if self._timelines is not None:
            self._timelines.clear()
        self._hits = 0
        self._misses = 0


def category_geomeans(
    per_workload: Dict[str, float], names: Sequence[str]
) -> Dict[str, float]:
    """Append SPEC/STREAM geometric means the way the figures report."""
    spec = [per_workload[n] for n in spec_of(names) if n in per_workload]
    stream = [per_workload[n] for n in stream_of(names) if n in per_workload]
    out = dict(per_workload)
    if spec:
        out["SPEC (GMean)"] = geomean(spec)
    if stream:
        out["STREAM (GMean)"] = geomean(stream)
    return out
