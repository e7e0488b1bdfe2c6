"""Golden mitigation-sequence tests for every tracker kernel.

Each tracker is driven by a deterministic seeded activation stream and
the *exact* sequence of mitigations it emits (record-path mitigations
and RFM victims, with their step indices) is pinned against
``tests/data/golden_trackers.json``.  The stream drives the kernels the
mitigation schemes bind (``record_unit`` for unit weights, the
``raw_kernel`` closure at 7 fraction bits otherwise).  The fixture was
captured from the pre-kernel-rewrite trackers, so these tests prove the
allocation-free integer kernels reproduce the old per-call
implementations bit for bit.  Re-pin with ``tools/repin.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.mitigation import ImpressPScheme
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

#: Fixed-point scale of the fractional streams (7 fraction bits).
SCALE = 1 << 7


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


def _replay(tracker, events, use_rfm: bool, fractional: bool):
    """Drive ``tracker``'s kernels with ``events``; return the log.

    Unit streams go through ``record_unit``, fractional ones through
    the raw kernel.  The log is a list of ``[step, kind, row]`` entries:
    ``"m"`` for a record-path mitigation, ``"r"`` for an RFM victim.
    """
    raw_kernel = tracker.raw_kernel(SCALE) if fractional else None
    log = []
    for step, (row, weight) in enumerate(events):
        if raw_kernel is None:
            fired = tracker.record_unit(row)
        else:
            # Weights are exact multiples of 1/128: the raw is lossless.
            fired = raw_kernel(row, int(weight * SCALE))
        if fired:
            log.append([step, "m", row])
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
    log = _replay(tracker, events, use_rfm, stream_config["fractional"])
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


def _own_scale(tracker):
    """The scale a tracker's raw kernel takes: its own, or any (7 bits)."""
    return 1 << getattr(tracker, "fraction_bits", 7)


class TestKernelEntryPointsAgree:
    """Twin instances, each driven through a different kernel entry
    point, must mitigate identically on the same stream."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_unit_raw_matches_record_unit(self, name):
        factory, stream_config, use_rfm = CASES[name]
        via_unit, via_raw = factory(), factory()
        scale = _own_scale(via_raw)
        kernel = via_raw.raw_kernel(scale)
        events = _stream(**{**stream_config, "fractional": False})
        for step, (row, _weight) in enumerate(events):
            assert via_unit.record_unit(row) == kernel(row, scale), (
                name,
                step,
            )
            if use_rfm and step % RFM_EVERY == RFM_EVERY - 1:
                assert via_unit.on_rfm(step) == via_raw.on_rfm(step)
        assert _final_state(via_unit) == _final_state(via_raw)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_impress_p_close_matches_raw_kernel(self, name, timings):
        factory, stream_config, use_rfm = CASES[name]
        via_raw, via_close = factory(), factory()
        scale = _own_scale(via_raw)
        kernel = via_raw.raw_kernel(scale)
        scheme = ImpressPScheme(
            [via_close], timings, fraction_bits=scale.bit_length() - 1
        )
        close = scheme.close_kernels()[0]
        # tRC is a multiple of the scale, so a cycle-exact tON gives
        # every raw weight of the stream exactly.
        assert timings.tRC % scale == 0
        cycle = 0
        events = _stream(**stream_config)
        for step, (row, weight) in enumerate(events):
            raw = int(weight * scale)
            t_on = raw * (timings.tRC // scale) - timings.tPRE
            fired = close(row, cycle, cycle + t_on)
            assert fired == kernel(row, raw), (name, step)
            cycle += t_on + timings.tPRE
            if use_rfm and step % RFM_EVERY == RFM_EVERY - 1:
                assert scheme.rfm_kernels()[0](step) == via_raw.on_rfm(step)
        assert _final_state(via_raw) == _final_state(via_close)


def pinned():
    return {name: _run_case(name) for name in CASES}
