"""Shared helpers for the per-figure experiment modules."""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..cache import CacheStats
from ..sim.batch import _normalize_point, batch_available, simulate_batch
from ..sim.config import DefenseConfig, SystemConfig
from ..sim.metrics import geomean, normalized_weighted_speedup
from ..sim.stats import SimResult
from ..sim.system import simulate_workload
from ..workloads.profiles import SPEC_NAMES, STREAM_NAMES

#: One sweep point: ``(workload, defense, tmro_ns)`` — the same triple
#: that keys the :class:`SweepRunner` cache.  The workload slot is a
#: rate-mode name *or* a heterogeneous per-core source tuple
#: (:data:`repro.workloads.sources.CoreSources`); both are hashable and
#: :func:`~repro.sim.system.simulate_workload` dispatches on the type.
SweepPoint = Tuple[object, Optional[DefenseConfig], Optional[float]]

#: What callers may pass to :meth:`SweepRunner.run_many`: a bare
#: workload name, a ``(workload, defense)`` pair, a full triple, or any
#: object with a ``sweep_point()`` method — notably
#: :class:`repro.scenarios.spec.ScenarioSpec`, so scenario grids feed
#: ``run_many`` directly.  A bare source tuple is *not* accepted (it is
#: indistinguishable from a point tuple); wrap it in a triple or a
#: ScenarioSpec.
SweepPointLike = Union[
    str,
    Tuple[str],
    Tuple[str, Optional[DefenseConfig]],
    SweepPoint,
]


def _evaluate_point(
    payload: Tuple[SystemConfig, int, int, SweepPoint]
) -> Tuple[SweepPoint, SimResult]:
    """Pool-worker entry: simulate one sweep point.

    Runs in a persistent worker process; the process-local compiled-
    trace cache (:mod:`repro.workloads.compiled`) persists across the
    points a worker evaluates, so a sweep's defenses share one compiled
    trace set per workload exactly as they do in-process.
    """
    system, n_requests, seed, point = payload
    workload, defense, tmro_ns = point
    result = simulate_workload(
        workload,
        defense=defense,
        system=system,
        n_requests_per_core=n_requests,
        tmro_ns=tmro_ns,
        seed=seed,
    )
    return point, result

#: Default request budget per core for experiment-scale runs.  Small
#: enough for minutes-long sweeps, large enough for stable geomeans.
#: The synthetic streams contend hardest in their first few hundred
#: requests (cores start aligned and drift apart), which is the regime
#: closest to the paper's saturated STREAM workloads, so the default
#: stays in that window rather than diluting it with a long drifted
#: tail.
DEFAULT_REQUESTS = 800

#: A reduced workload set for the heavier sweeps (one per class plus the
#: extremes), used when ``quick=True``.
QUICK_SPEC = ("mcf", "gcc", "bwaves")
QUICK_STREAM = ("add", "copy", "triad")


def workload_set(quick: bool) -> List[str]:
    if quick:
        return list(QUICK_SPEC + QUICK_STREAM)
    return list(SPEC_NAMES + STREAM_NAMES)


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
    strings, so scenario grids and legacy figure sweeps share entries.  :meth:`speedup` looks its baseline up through the
    same cache under ``(workload, baseline, None)``: the baseline leg
    always runs *without* a tMRO override, so a ``tmro_ns`` sweep shares
    one baseline entry per workload rather than one per point.

    The cache is unbounded by design — a full experiment sweep touches a
    few hundred configurations at most, and entries must stay alive for
    the whole sweep because later figures re-request earlier baselines.
    Long-lived callers (e.g. ``repro bench``) can inspect growth via
    :meth:`cache_stats` and drop everything with :meth:`clear_cache`.

    **Intra-experiment parallelism.**  :meth:`run_many` evaluates a
    batch of points through a persistent process pool (``jobs`` > 1)
    and merges the results into the same cache, so a figure can fan its
    whole grid out before its (unchanged) assembly loops read every
    point back as cache hits.  Results are bit-identical to serial runs:
    every simulation is a deterministic function of its point and the
    runner's fixed (system, n_requests, seed).
    """

    system: SystemConfig = field(default_factory=SystemConfig)
    n_requests: int = DEFAULT_REQUESTS
    seed: int = 0
    #: Worker processes for :meth:`run_many` (1 = serial in-process).
    jobs: int = 1
    #: Route serial :meth:`run_many` batches through the NumPy batch
    #: engine tier (:func:`repro.sim.batch.simulate_batch`) when it is
    #: available.  Results are bit-identical to per-point runs; set
    #: False to force the per-point fast engine.
    use_batch: bool = True
    _cache: Dict[tuple, SimResult] = field(default_factory=dict)
    _hits: int = 0
    _misses: int = 0
    _pool: Optional[multiprocessing.pool.Pool] = field(
        default=None, repr=False, compare=False
    )
    _pool_size: int = field(default=0, repr=False, compare=False)

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

    def run_many(
        self,
        points: Iterable[SweepPointLike],
        jobs: Optional[int] = None,
    ) -> List[SimResult]:
        """Batch-evaluate sweep points; returns results in input order.

        Points already in the cache are served from it (counted as
        hits); duplicates among the remaining points are computed once.
        With ``jobs`` > 1 (defaulting to the runner's ``jobs`` field)
        the uncached points are evaluated across a persistent process
        pool and merged into the cache, making every later ``run()`` /
        ``speedup()`` on the same point a hit.  Falls back to serial
        execution inside daemonic workers (e.g. when an orchestrator
        pool already owns the process), which cannot fork children.
        Serial in-process batches route through the batch engine tier
        when NumPy is available (see ``use_batch``), again with
        bit-identical results.
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
        if jobs is None:
            jobs = self.jobs
        if (
            len(needed) > 1
            and jobs > 1
            and not multiprocessing.current_process().daemon
        ):
            pool = self._ensure_pool(jobs)
            payloads = [
                (self.system, self.n_requests, self.seed, key)
                for key in needed
            ]
            for key, result in pool.imap_unordered(
                _evaluate_point, payloads
            ):
                cache[key] = result
                self._misses += 1
        elif self.use_batch and len(needed) > 1 and batch_available():
            # Serial in-process path: route the whole point group
            # through the batch engine tier, which replays compatible
            # lanes against one recorded leader run (bit-identical to
            # per-point runs; lanes it cannot prove safe are simulated
            # for real inside simulate_batch).
            for key, result in zip(
                needed,
                simulate_batch(
                    needed,
                    system=self.system,
                    n_requests_per_core=self.n_requests,
                    seed=self.seed,
                ),
            ):
                cache[key] = result
                self._misses += 1
        else:
            for key in needed:
                self.run(*key)
        return [cache[key] for key in normalized]

    def _ensure_pool(self, jobs: int) -> multiprocessing.pool.Pool:
        """The persistent worker pool, (re)built when ``jobs`` changes."""
        if self._pool is not None and self._pool_size != jobs:
            self.close_pool()
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=jobs)
            self._pool_size = jobs
        return self._pool

    def close_pool(self) -> None:
        """Shut the persistent pool down (idempotent; pool is rebuilt
        lazily by the next parallel :meth:`run_many`)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._pool_size = 0

    def cache_stats(self) -> CacheStats:
        """Current hit/miss counters and entry count of the run cache."""
        return CacheStats(
            hits=self._hits, misses=self._misses, size=len(self._cache)
        )

    def clear_cache(self) -> None:
        """Drop every cached run and reset the counters."""
        self._cache.clear()
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
