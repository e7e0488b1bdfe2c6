"""Compiled traces: addresses pre-mapped to (channel, bank, row) arrays.

The simulator's issue path used to call ``MopAddressMapper.map_address``
once per request *per run* — but the mapping depends only on the trace
and the mapper geometry, not on the defense configuration, so a sweep of
N defense configs repeated the identical work N times.  Compiling a
trace once per ``(trace, mapper)`` pair turns the issue path into plain
list indexing and lets every config in a sweep share the result.

Layers:

* :func:`compile_trace` / :func:`compile_traces` — pure compilation of
  one trace (or one per-core set) against a mapper.  It maps the
  trace's ``addresses`` column and shares its ``writes`` and ``gaps``
  columns; no per-request object is built or read.
* :func:`compiled_rate_mode_traces` — a bounded, process-local cache in
  front of trace *generation + compilation*, keyed by the full recipe
  ``(workload, n_cores, n_requests, seed, mapper geometry)``.  Trace
  generation is seeded and deterministic, so cache hits are bit-identical
  to regeneration.
* :func:`compiled_source_traces` — the same cache for heterogeneous
  per-core source tuples (:mod:`repro.workloads.sources`): benign
  profile copies, attacker generators and idle cores in any mix.
* :class:`CompiledTraceSet` — what the cache holds: one per-core set,
  plus a content :attr:`~CompiledTraceSet.digest` over its columns.
  Recipes that generate byte-identical traces (``add``/``triad``,
  ``copy``/``scale``) get equal digests, which is how the batch tier
  (:mod:`repro.sim.batch`) simulates them once.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from ..cache import CacheStats
from ..dram.address import LINE_SHIFT, MopAddressMapper
from .trace import Trace

#: Bound on the process-local compiled-trace cache (entries, one per
#: distinct (workload, cores, requests, seed, mapper) recipe).  Evicts
#: least-recently-used; a full 20-workload sweep fits comfortably.
CACHE_MAX_ENTRIES = 128

MapperKey = Tuple[int, int, int]


def mapper_key(mapper: MopAddressMapper) -> MapperKey:
    """The geometry that determines the address mapping."""
    return (
        mapper.channels,
        mapper.banks_per_channel,
        mapper.lines_per_row_group,
    )


class CompiledTrace:
    """One trace's requests pre-mapped against one mapper geometry.

    Parallel lists, indexed by request position: ``channels[i]``,
    ``banks[i]``, ``rows[i]``, ``columns[i]`` are the decomposed address
    of request ``i``; ``flat_banks[i]`` is the simulator's flattened
    ``channel * banks_per_channel + bank`` id; ``is_write[i]`` and
    ``gaps[i]`` carry the request's direction and think time.  The
    mapped columns are derived from ``trace.addresses``; ``is_write``
    and ``gaps`` *are* the trace's ``writes`` and ``gaps`` lists,
    shared rather than copied (neither side mutates them).  The source
    :class:`Trace` stays reachable via ``trace``.
    """

    __slots__ = (
        "trace",
        "key",
        "length",
        "channels",
        "banks",
        "rows",
        "columns",
        "flat_banks",
        "is_write",
        "gaps",
    )

    def __init__(self, trace: Trace, mapper: MopAddressMapper) -> None:
        lines_per_group = mapper.lines_per_row_group
        total_banks = mapper.total_banks
        n_channels = mapper.channels
        banks_per_channel = mapper.banks_per_channel
        lines = [address >> LINE_SHIFT for address in trace.addresses]
        groups = [line // lines_per_group for line in lines]
        flat = [group % total_banks for group in groups]
        self.trace = trace
        self.key = mapper_key(mapper)
        self.length = len(lines)
        self.columns = [line % lines_per_group for line in lines]
        self.rows = [group // total_banks for group in groups]
        self.channels = [f % n_channels for f in flat]
        self.banks = [f // n_channels for f in flat]
        self.flat_banks = [
            channel * banks_per_channel + bank
            for channel, bank in zip(self.channels, self.banks)
        ]
        self.is_write = trace.writes
        self.gaps = trace.gaps

    def __len__(self) -> int:
        return self.length


def compile_trace(trace: Trace, mapper: MopAddressMapper) -> CompiledTrace:
    """Pre-map every request of ``trace`` against ``mapper``."""
    return CompiledTrace(trace, mapper)


class CompiledTraceSet(list):
    """One per-core list of :class:`CompiledTrace`, plus its content digest.

    A plain list to every reader; :attr:`digest` is computed on first
    use and kept for the set's lifetime (the cache's entries live as
    long as they are cached), so serve and the fuzzer, which never ask,
    never pay for it.
    """

    _digest: Optional[str] = None

    @property
    def digest(self) -> str:
        """sha256 over the mapper geometry and every core's columns.

        Two sets with equal digests drive any simulator identically:
        the engines read only the ``addresses``/``writes``/``gaps``
        columns and the mapping, and a system's other inputs (timings,
        defense, seed) are the caller's to hold fixed.
        """
        if self._digest is None:
            h = hashlib.sha256(repr(
                (len(self), self[0].key if self else None)
            ).encode())
            for entry in self:
                trace = entry.trace
                h.update(len(trace).to_bytes(8, "little"))
                for column in (trace.addresses, trace.writes, trace.gaps):
                    try:
                        h.update(array("q", column).tobytes())
                    except OverflowError:   # an address beyond 2**63
                        h.update(repr(column).encode())
            self._digest = h.hexdigest()
        return self._digest


def compile_traces(
    traces: Sequence[Trace], mapper: MopAddressMapper
) -> CompiledTraceSet:
    """Compile one per-core trace set against a single mapper."""
    return CompiledTraceSet(CompiledTrace(trace, mapper) for trace in traces)


_cache: "OrderedDict[tuple, CompiledTraceSet]" = OrderedDict()
_stats = CacheStats()


def _cached(key: tuple, mapper: MopAddressMapper,
            generate) -> CompiledTraceSet:
    """The cached set under ``key``, generating and compiling on a miss."""
    cached = _cache.get(key)
    if cached is not None:
        _cache.move_to_end(key)
        _stats.hits += 1
        _stats.size = len(_cache)
        return cached
    _stats.misses += 1
    compiled = compile_traces(generate(), mapper)
    _cache[key] = compiled
    while len(_cache) > CACHE_MAX_ENTRIES:
        _cache.popitem(last=False)
    _stats.size = len(_cache)
    return compiled


def compiled_rate_mode_traces(
    name: str,
    n_cores: int,
    n_requests_per_core: int,
    seed: int,
    mapper: MopAddressMapper,
) -> CompiledTraceSet:
    """Generate + compile a rate-mode trace set, with process-local reuse.

    The cache key is the complete generation recipe plus the mapper
    geometry, so a hit is exactly the set a fresh
    :func:`repro.workloads.synthetic.rate_mode_traces` call followed by
    :func:`compile_traces` would produce.  Entries are evicted LRU once
    :data:`CACHE_MAX_ENTRIES` distinct recipes have been seen.
    """
    from .synthetic import rate_mode_traces

    key = (name, n_cores, n_requests_per_core, seed, mapper_key(mapper))
    return _cached(
        key, mapper,
        lambda: rate_mode_traces(name, n_cores, n_requests_per_core, seed),
    )


def compiled_source_traces(
    sources,
    n_requests_per_core: int,
    seed: int,
    mapper: MopAddressMapper,
) -> CompiledTraceSet:
    """Generate + compile a heterogeneous per-core source set, cached.

    The scenario-layer sibling of :func:`compiled_rate_mode_traces`:
    ``sources`` is a tuple of frozen
    :mod:`repro.workloads.sources` objects (one per core), which is
    hashable and fully determines trace generation, so it keys the same
    process-local LRU cache.  A hit is bit-identical to regeneration.
    """
    from .sources import build_core_traces

    key = ("sources", sources, n_requests_per_core, seed,
           mapper_key(mapper))
    return _cached(
        key, mapper,
        lambda: build_core_traces(sources, n_requests_per_core, seed, mapper),
    )


def compiled_point_traces(
    workload,
    n_cores: int,
    n_requests_per_core: int,
    seed: int,
    mapper: MopAddressMapper,
) -> CompiledTraceSet:
    """Dispatch a sweep-point workload key to the matching cache.

    ``workload`` is either a rate-mode name (string) or a heterogeneous
    per-core source tuple — the two forms a sweep-point triple may
    carry.  Every engine tier (reference, fast, batch) resolves its
    traces through this one entry point, so a defense sweep shares a
    single compiled set per workload no matter which tier runs it.
    Callers validate source tuples against their topology first
    (``SystemConfig.validate_sources``); this function only compiles.
    """
    if isinstance(workload, str):
        return compiled_rate_mode_traces(
            workload, n_cores, n_requests_per_core, seed, mapper
        )
    return compiled_source_traces(
        tuple(workload), n_requests_per_core, seed, mapper
    )


def compiled_cache_stats() -> CacheStats:
    """Current hit/miss/size counters of the compiled-trace cache."""
    return CacheStats(
        hits=_stats.hits, misses=_stats.misses, size=len(_cache)
    )


def clear_compiled_cache() -> None:
    """Drop all cached trace sets and reset the counters (tests/bench)."""
    _cache.clear()
    _stats.hits = 0
    _stats.misses = 0
    _stats.size = 0
