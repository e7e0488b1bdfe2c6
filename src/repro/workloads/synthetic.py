"""Synthetic trace generation from workload profiles.

Generates the per-core LLC-miss streams described by
:mod:`repro.workloads.profiles`.  SPEC-like traces are runs of
consecutive cache lines (geometric run length) at random locations;
STREAM-like traces interleave fully-sequential read/write streams.
Addresses are line-aligned byte addresses; the MOP mapper decides how
they land on banks and rows.
"""

from __future__ import annotations

import random
from typing import List

from ..dram.address import LINE_BYTES
from .profiles import (
    WorkloadProfile,
    is_mix,
    mix_components,
    profile_for,
)
from .trace import Trace

#: Footprint of one synthetic core's address space, in lines.  Large
#: enough that rate-mode copies never collide.
CORE_FOOTPRINT_LINES = 1 << 24

#: Base-address separation between STREAM arrays, in lines.
STREAM_ARRAY_STRIDE_LINES = 1 << 20

#: Byte offset between consecutive rate-mode core copies: disjoint
#: footprints plus a small row-group skew so the copies start in
#: different banks (the footprint itself is a multiple of every bank
#: count we use).  Shared with :mod:`repro.workloads.sources` so a
#: per-core :class:`~repro.workloads.sources.ProfileSource` reproduces
#: the rate-mode placement bit-identically.
CORE_OFFSET_BYTES = (CORE_FOOTPRINT_LINES * 4 + 5 * 8) * LINE_BYTES


def _geometric(rng: random.Random, mean: float) -> int:
    """Geometric run length with the given mean (at least 1)."""
    if mean <= 1.0:
        return 1
    # P(stop) per step = 1/mean gives mean run length `mean`.
    p_stop = 1.0 / mean
    length = 1
    while rng.random() > p_stop and length < 1024:
        length += 1
    return length


def _gap_column(rng: random.Random, mean: int, n: int) -> List[int]:
    """``n`` bounded, jittered think times around the profile mean."""
    if mean <= 0:
        return [0] * n
    gauss = rng.gauss
    sigma = mean * 0.3
    gaps = [int(gauss(mean, sigma)) for _ in range(n)]
    return [gap if gap > 0 else 0 for gap in gaps]


def spec_like_trace(
    profile: WorkloadProfile, n_requests: int, seed: int = 0
) -> Trace:
    """Runs of consecutive lines at random locations (SPEC-like).

    RNG call order: per run ``randrange`` for the start line and the
    :func:`_geometric` loop for its length; then per request
    ``random()`` for the write flag and ``gauss`` for the gap.  Each
    gap is drawn as in :func:`_gap_column`, inlined because it is the
    hot line of trace generation.
    """
    rng = random.Random(seed)
    rand = rng.random
    gauss = rng.gauss
    write_fraction = profile.write_fraction
    gap_mean = profile.gap_cycles
    gap_sigma = gap_mean * 0.3
    addresses: List[int] = []
    writes: List[bool] = []
    gaps: List[int] = []
    remaining = n_requests
    while remaining > 0:
        address = rng.randrange(CORE_FOOTPRINT_LINES) * LINE_BYTES
        run = min(_geometric(rng, profile.run_lines), remaining)
        remaining -= run
        for _ in range(run):
            addresses.append(address)
            address += LINE_BYTES
            writes.append(rand() < write_fraction)
            if gap_mean > 0:
                gap = int(gauss(gap_mean, gap_sigma))
                gaps.append(gap if gap > 0 else 0)
            else:
                gaps.append(0)
    return Trace.from_columns(addresses, writes, gaps)


def stream_like_trace(
    profile: WorkloadProfile, n_requests: int, seed: int = 0
) -> Trace:
    """Interleaved sequential streams (STREAM kernel).

    The kernel touches one element of every array per loop iteration, so
    the streams advance in lockstep: for ``add`` the request order is
    a[0], b[0], c[0], a[1], b[1], c[1], ...  Each array is a disjoint
    sequential region, so every stream enjoys full 8-lines-per-row MOP
    locality — until something (tMRO, a row conflict) closes its row.
    """
    if not profile.streams:
        raise ValueError(f"{profile.name} has no stream specification")
    rng = random.Random(seed)
    n_streams = len(profile.streams)
    # Offset each array by a few row groups so concurrent streams start
    # in different banks instead of marching in lockstep on one.
    bases = [
        (1 + 2 * i) * STREAM_ARRAY_STRIDE_LINES + 11 * i * 8
        for i in range(n_streams)
    ]
    # Random starting phase (in whole row groups) per stream: real
    # arrays are not bank-aligned with each other, and a deterministic
    # lockstep start would make bank collisions an all-or-nothing
    # artifact of the initial alignment.
    positions = [8 * rng.randrange(256) for _ in range(n_streams)]
    starts = [base + position for base, position in zip(bases, positions)]
    kinds = profile.streams
    indices = range(n_requests)
    return Trace.from_columns(
        [
            (starts[i % n_streams] + i // n_streams) * LINE_BYTES
            for i in indices
        ],
        [kinds[i % n_streams] == "w" for i in indices],
        _gap_column(rng, profile.gap_cycles, n_requests),
    )


def trace_for_profile(
    profile: WorkloadProfile, n_requests: int, seed: int = 0
) -> Trace:
    if profile.category == "stream":
        return stream_like_trace(profile, n_requests, seed)
    return spec_like_trace(profile, n_requests, seed)


def per_core_profile_names(name: str, n_cores: int) -> List[str]:
    """The per-core profile assignment of a named rate-mode workload.

    SPEC and single-kernel STREAM workloads run ``n_cores`` identical
    copies; mixes split the cores between the two component kernels
    (Section III-A: "two with 4 copies each").
    """
    if n_cores < 1:
        raise ValueError("n_cores must be positive")
    if is_mix(name):
        first, second = mix_components(name)
        half = n_cores // 2
        return [first] * half + [second] * (n_cores - half)
    profile_for(name)  # validate early
    return [name] * n_cores


def profile_core_trace(
    name: str, core_id: int, n_requests: int, seed: int = 0
) -> Trace:
    """Core ``core_id``'s rate-mode trace for one named profile.

    Exactly the recipe :func:`rate_mode_traces` uses per core — seed
    ``seed + core_id``, address offset ``core_id * CORE_OFFSET_BYTES``
    — so heterogeneous scenarios that assign profiles per core place
    each copy bit-identically to the legacy single-workload path.
    """
    base = trace_for_profile(
        profile_for(name), n_requests, seed=seed + core_id
    )
    return base.offset_by(core_id * CORE_OFFSET_BYTES)


def rate_mode_traces(
    name: str, n_cores: int, n_requests_per_core: int, seed: int = 0
) -> List[Trace]:
    """Per-core traces for a named workload in rate mode."""
    return [
        profile_core_trace(core_name, core_id, n_requests_per_core, seed)
        for core_id, core_name in enumerate(per_core_profile_names(name, n_cores))
    ]
