"""Golden digests of every trace generator's (address, write, gap) columns.

``tests/data/golden_traces.json`` maps each case below to the sha256 of
its three columns.  The digests pin the exact request streams the
generators emit — including the order of their seeded RNG calls — so a
change to how a generator builds its trace cannot shift a single
address, write flag or gap unnoticed.  Re-pin with ``tools/repin.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.dram.address import MopAddressMapper
from repro.workloads.profiles import (
    SPEC_NAMES,
    STREAM_KERNEL_NAMES,
    profile_for,
)
from repro.workloads.sources import (
    AttackerSource,
    PhasedAttackerSource,
    ProfileSource,
    build_core_traces,
)
from repro.workloads.synthetic import trace_for_profile

PIN_PATH = Path(__file__).parent / "data" / "golden_traces.json"

N_REQUESTS = 600

#: The paper's Table II geometry and a small one whose 4-line row
#: groups make the column wrap-around of dwell/decoy visible.
MAPPERS = {
    "table2": MopAddressMapper(),
    "alt": MopAddressMapper(
        channels=3, banks_per_channel=8, lines_per_row_group=4
    ),
}

#: One source per attack pattern, with non-default shape parameters.
ATTACKERS = {
    "hammer": AttackerSource(
        "hammer", bank=5, rows=(100, 102, 104), gap_cycles=3
    ),
    "k_sided": AttackerSource("k_sided", bank=7, victim_row=1, k=5),
    "dwell": AttackerSource(
        "dwell", bank=2, rows=(40, 42), hold_gap_cycles=90,
        hits_per_dwell=7,
    ),
    "decoy": AttackerSource(
        "decoy", bank=3, rows=(10, 20), hold_gap_cycles=150, hold_hits=5,
    ),
    "refresh_sync": AttackerSource(
        "refresh_sync", bank=1, rows=(8, 10), burst_acts=17,
        idle_gap_cycles=4000,
    ),
}

PHASED = PhasedAttackerSource(
    phases=(ATTACKERS["hammer"], ATTACKERS["dwell"], ATTACKERS["decoy"]),
    phase_len=37,
)


def _cases():
    """``{case name: zero-argument trace factory}``."""
    cases = {}
    for name in SPEC_NAMES + STREAM_KERNEL_NAMES:
        for seed in (0, 1):
            cases[f"profile:{name}:seed{seed}"] = (
                lambda name=name, seed=seed: trace_for_profile(
                    profile_for(name), N_REQUESTS, seed
                )
            )
    # Rate-mode placement: seed + core_id and the per-core address offset.
    for core in range(3):
        cases[f"rate_mode:add_copy:core{core}"] = (
            lambda core=core: build_core_traces(
                (ProfileSource("add"),) * 2 + (ProfileSource("copy"),),
                N_REQUESTS, 4, MAPPERS["table2"],
            )[core]
        )
    for mapper_name, mapper in MAPPERS.items():
        for pattern, source in ATTACKERS.items():
            cases[f"attacker:{pattern}:{mapper_name}"] = (
                lambda source=source, mapper=mapper: source.build(
                    0, N_REQUESTS, 0, mapper
                )
            )
        cases[f"phased:{mapper_name}"] = (
            lambda mapper=mapper: PHASED.build(0, N_REQUESTS, 0, mapper)
        )
    return cases


CASES = _cases()


def columns_digest(addresses, writes, gaps) -> str:
    """sha256 of the canonical JSON of one trace's three columns."""
    payload = json.dumps(
        [list(addresses), [int(bool(w)) for w in writes], list(gaps)],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def trace_digest(trace) -> str:
    return columns_digest(trace.addresses, trace.writes, trace.gaps)


def _golden():
    return json.loads(PIN_PATH.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_matches_golden(case):
    trace = CASES[case]()
    assert len(trace) == N_REQUESTS
    assert trace_digest(trace) == _golden()[case]


def test_columns_match_request_view():
    """The cached request objects carry exactly the column values."""
    trace = CASES["profile:mcf:seed0"]()
    assert [
        (r.address, r.is_write, r.gap_cycles) for r in trace
    ] == list(zip(trace.addresses, trace.writes, trace.gaps))


def pinned():
    return {case: trace_digest(build()) for case, build in CASES.items()}
