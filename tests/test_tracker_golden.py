"""Golden mitigation-sequence tests for every tracker kernel.

Each tracker is driven by a deterministic seeded activation stream and
the *exact* sequence of mitigations it emits (record-path mitigations
and RFM victims, with their step indices) is pinned against
``tests/data/golden_trackers.json``.  The fixture was captured from the
pre-kernel-rewrite trackers, so these tests prove the allocation-free
integer kernels reproduce the old per-call implementations bit for bit.
Re-pin with ``tools/repin.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.trackers.base import AccountingTracker
from repro.trackers.dsac import DsacLikeTracker
from repro.trackers.graphene import GrapheneTracker
from repro.trackers.mint import MintTracker
from repro.trackers.mithril import MithrilTracker
from repro.trackers.para import ParaTracker
from repro.trackers.prac import PracTracker

PIN_PATH = Path(__file__).parent / "data" / "golden_trackers.json"

#: Events per stream.  Large enough to exercise table churn, spillover
#: swaps, RFM interleaving and threshold resets many times over.
STREAM_LENGTH = 4000

#: RFM cadence for the in-DRAM trackers (every N record steps).
RFM_EVERY = 17


def _stream(seed: int, n_rows: int, fractional: bool):
    """Deterministic (row, weight) activation stream.

    Rows are drawn with a skew (a few hot rows, a long light tail) so
    Misra-Gries tables fill, spill and swap.  Fractional weights are
    exact multiples of 1/128 (7 fraction bits), mirroring quantized
    ImPress-P EACTs, so JSON round-trips them exactly.
    """
    rng = random.Random(seed)
    events = []
    for _ in range(STREAM_LENGTH):
        if rng.random() < 0.25:
            row = rng.randrange(4)            # hot aggressors
        else:
            row = rng.randrange(n_rows)       # light tail
        if fractional:
            weight = 1.0 + rng.randrange(0, 256) / 128.0
        else:
            weight = 1.0
        events.append((row, weight))
    return events


def _replay(tracker, events, use_rfm: bool):
    """Drive ``tracker`` with ``events``; return the mitigation log.

    The log is a list of ``[step, kind, row]`` entries: ``"m"`` for a
    record-path mitigation, ``"r"`` for an RFM victim.
    """
    log = []
    for step, (row, weight) in enumerate(events):
        for victim in tracker.record(row, weight, cycle=step):
            log.append([step, "m", victim])
        if use_rfm and step % RFM_EVERY == RFM_EVERY - 1:
            victim = tracker.on_rfm(cycle=step)
            if victim is not None:
                log.append([step, "r", victim])
    return log


def _final_state(tracker):
    """A compact post-stream state digest (counters survive replay)."""
    state = {}
    for attribute in ("mitigations", "alerts"):
        if hasattr(tracker, attribute):
            state[attribute] = getattr(tracker, attribute)
    if hasattr(tracker, "spillover"):
        state["spillover"] = tracker.spillover
    if hasattr(tracker, "total"):
        state["total"] = tracker.total
    return state


#: name -> (tracker factory, stream config, uses RFM replay)
CASES = {
    "graphene_int": (
        lambda: GrapheneTracker(entries=24, internal_threshold=9),
        dict(seed=11, n_rows=160, fractional=False),
        False,
    ),
    "graphene_frac": (
        lambda: GrapheneTracker(
            entries=24, internal_threshold=21.5, fraction_bits=7
        ),
        dict(seed=12, n_rows=160, fractional=True),
        False,
    ),
    "mithril": (
        lambda: MithrilTracker(entries=16, fraction_bits=7),
        dict(seed=13, n_rows=120, fractional=True),
        True,
    ),
    "mint": (
        lambda: MintTracker(
            rfmth=RFM_EVERY, fraction_bits=7, rng=random.Random(99)
        ),
        dict(seed=14, n_rows=64, fractional=True),
        True,
    ),
    "para": (
        lambda: ParaTracker(p=0.02, rng=random.Random(77)),
        dict(seed=15, n_rows=64, fractional=True),
        False,
    ),
    "prac": (
        lambda: PracTracker(alert_threshold=12.5, fraction_bits=7),
        dict(seed=16, n_rows=96, fractional=True),
        False,
    ),
    "dsac": (
        lambda: DsacLikeTracker(entries=12, mitigation_threshold=25),
        dict(seed=17, n_rows=96, fractional=True),
        False,
    ),
    "accounting": (
        AccountingTracker,
        dict(seed=18, n_rows=64, fractional=True),
        False,
    ),
}


def _run_case(name):
    factory, stream_config, use_rfm = CASES[name]
    tracker = factory()
    events = _stream(**stream_config)
    log = _replay(tracker, events, use_rfm)
    return {"log": log, "state": _final_state(tracker)}


def _load_golden():
    return json.loads(PIN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_mitigation_sequence(name):
    golden = _load_golden()[name]
    actual = _run_case(name)
    assert actual["log"] == golden["log"]
    assert actual["state"] == pytest.approx(golden["state"])


def test_golden_fixture_covers_every_case():
    assert sorted(_load_golden()) == sorted(CASES)


def test_streams_actually_mitigate():
    """Guard against a fixture of empty logs pinning nothing."""
    golden = _load_golden()
    for name, data in golden.items():
        if name == "accounting":
            assert data["log"] == []  # accounting never mitigates
        else:
            assert len(data["log"]) > 20, name


class TestKernelSurfaceMatchesRecord:
    """Twin instances — one driven through ``record``, one through the
    kernel surface — must mitigate identically on the same stream."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_raw_kernel_equivalence(self, name):
        scale = 1 << 7
        factory, stream_config, use_rfm = CASES[name]
        via_record, via_kernel = factory(), factory()
        kernel = via_kernel.raw_kernel(scale)
        if kernel is None:
            pytest.skip("tracker has no raw kernel at this scale")
        events = _stream(**stream_config)
        for step, (row, weight) in enumerate(events):
            # Weights are exact multiples of 1/128, so the raw
            # conversion is lossless in both directions.
            record_count = len(via_record.record(row, weight, cycle=step))
            kernel_count = kernel(row, int(weight * scale))
            assert record_count == kernel_count, (name, step)
            if use_rfm and step % RFM_EVERY == RFM_EVERY - 1:
                assert via_record.on_rfm(step) == via_kernel.on_rfm(step)
        assert _final_state(via_record) == _final_state(via_kernel)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_record_unit_equivalence(self, name):
        factory, stream_config, use_rfm = CASES[name]
        via_record, via_unit = factory(), factory()
        events = _stream(**{**stream_config, "fractional": False})
        for step, (row, _weight) in enumerate(events):
            record_count = len(via_record.record(row, 1.0, cycle=step))
            unit_count = via_unit.record_unit(row)
            assert record_count == unit_count, (name, step)
            if use_rfm and step % RFM_EVERY == RFM_EVERY - 1:
                assert via_record.on_rfm(step) == via_unit.on_rfm(step)
        assert _final_state(via_record) == _final_state(via_unit)


def pinned():
    return {name: _run_case(name) for name in CASES}
