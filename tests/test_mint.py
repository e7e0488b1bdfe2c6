"""Unit tests for the MINT single-entry in-DRAM tracker."""

import random

import pytest

from repro.trackers.mint import (
    MintTracker,
    mint_rfmth_for_threshold,
    mint_tolerated_threshold,
)


class TestThresholdModel:
    def test_rfm80_tolerates_1600(self):
        # Section III-B's figure of merit.
        assert mint_tolerated_threshold(80) == 1600.0

    def test_rfmth_for_threshold_roundtrip(self):
        assert mint_rfmth_for_threshold(1600.0) == 80
        assert mint_rfmth_for_threshold(800.0) == 40

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mint_tolerated_threshold(0)
        with pytest.raises(ValueError):
            mint_rfmth_for_threshold(0)


class TestSelection:
    def test_selected_slot_captured(self):
        tracker = MintTracker(rfmth=4, rng=random.Random(0))
        san = tracker.san
        rows = [100, 200, 300, 400]
        for row in rows:
            tracker.record_unit(row)
        # The row occupying the SAN-th activation slot must be in SAR
        # (SAN is integral when fraction_bits is 0).
        assert tracker.sar == rows[int(san) - 1]

    def test_rfm_mitigates_and_redraws(self):
        tracker = MintTracker(rfmth=4, rng=random.Random(1))
        tracker.record_unit(7)
        tracker.record_unit(8)
        tracker.record_unit(9)
        tracker.record_unit(10)
        selected = tracker.on_rfm()
        assert selected in (7, 8, 9, 10)
        assert tracker.sar is None
        assert tracker.can == 0.0

    def test_rfm_with_no_capture_returns_none(self):
        tracker = MintTracker(rfmth=100, rng=random.Random(2))
        tracker.record_unit(7)  # unlikely to hit a far-away SAN every time
        if tracker.sar is None:
            assert tracker.on_rfm() is None

    def test_uniform_selection_statistics(self):
        # Each of RFMTH slots should be selected ~uniformly.
        rng = random.Random(3)
        counts = {0: 0, 1: 0, 2: 0, 3: 0}
        for _ in range(4000):
            tracker = MintTracker(rfmth=4, rng=rng)
            for slot, row in enumerate((10, 11, 12, 13)):
                tracker.record_unit(row)
            winner = tracker.on_rfm()
            counts[winner - 10] += 1
        for slot_count in counts.values():
            assert slot_count == pytest.approx(1000, rel=0.2)

    def test_eact_weight_increases_selection_share(self):
        # ImPress-P: an access worth EACT = 3 spans three slots, so it
        # is selected ~3x as often as a unit access.
        rng = random.Random(4)
        wins = {20: 0, 21: 0}
        for _ in range(4000):
            tracker = MintTracker(rfmth=4, fraction_bits=7, rng=rng)
            kernel = tracker.raw_kernel(128)
            kernel(20, 3 * 128)
            kernel(21, 128)
            winner = tracker.on_rfm()
            if winner is not None:
                wins[winner] += 1
        assert wins[20] == pytest.approx(3 * wins[21], rel=0.25)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MintTracker(rfmth=0)
        with pytest.raises(ValueError):
            MintTracker(rfmth=4, fraction_bits=-1)

    def test_reset(self):
        tracker = MintTracker(rfmth=4, rng=random.Random(5))
        tracker.record_unit(7)
        tracker.reset()
        assert tracker.can == 0.0
        assert tracker.sar is None
