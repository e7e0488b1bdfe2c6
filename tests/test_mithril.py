"""Unit tests for the Mithril in-DRAM tracker."""

import pytest

from repro.trackers.mithril import MithrilTracker


class TestRecording:
    def test_never_mitigates_synchronously(self):
        tracker = MithrilTracker(entries=4)
        for _ in range(100):
            assert tracker.record_unit(7) == 0

    def test_in_dram_flag(self):
        assert MithrilTracker(entries=4).in_dram is True

    def test_counts_accumulate(self):
        tracker = MithrilTracker(entries=4)
        for _ in range(5):
            tracker.record_unit(7)
        assert tracker.count_for(7) == 5.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MithrilTracker(entries=0)
        with pytest.raises(ValueError):
            MithrilTracker(entries=4, fraction_bits=-1)


class TestRfmMitigation:
    def test_rfm_picks_hottest_row(self):
        tracker = MithrilTracker(entries=4)
        for _ in range(3):
            tracker.record_unit(1)
        for _ in range(10):
            tracker.record_unit(2)
        assert tracker.on_rfm() == 2
        assert tracker.mitigations == 1

    def test_rfm_resets_winner_to_spill(self):
        tracker = MithrilTracker(entries=2)
        for _ in range(10):
            tracker.record_unit(2)
        tracker.on_rfm()
        assert tracker.count_for(2) == tracker.spillover

    def test_rfm_on_empty_returns_none(self):
        assert MithrilTracker(entries=4).on_rfm() is None

    def test_alternating_aggressors_both_served(self):
        tracker = MithrilTracker(entries=4)
        for _ in range(10):
            tracker.record_unit(1)
            tracker.record_unit(2)
        first = tracker.on_rfm()
        second = tracker.on_rfm()
        assert {first, second} == {1, 2}


class TestMisraGriesBehavior:
    def test_spill_replacement(self):
        tracker = MithrilTracker(entries=2)
        tracker.record_unit(1)
        tracker.record_unit(2)
        tracker.record_unit(3)  # spills
        tracker.record_unit(4)  # spill reaches min -> swap in
        rows = set(tracker._table)
        assert 4 in rows
        assert len(rows) == 2

    def test_heavy_hitter_survives_churn(self):
        tracker = MithrilTracker(entries=4)
        for i in range(300):
            tracker.record_unit(7)
            tracker.record_unit(100 + (i % 50))
        assert tracker.on_rfm() == 7


class TestFractionalMithril:
    def test_eact_weights(self):
        tracker = MithrilTracker(entries=4, fraction_bits=7)
        tracker.raw_kernel(128)(7, 320)  # EACT 2.5
        assert tracker.count_for(7) == pytest.approx(2.5)

    def test_fractional_winner(self):
        tracker = MithrilTracker(entries=4, fraction_bits=7)
        kernel = tracker.raw_kernel(128)
        kernel(1, 128)  # EACT 1.0
        kernel(2, 192)  # EACT 1.5
        assert tracker.on_rfm() == 2

    def test_reset(self):
        tracker = MithrilTracker(entries=4)
        tracker.record_unit(1)
        tracker.reset()
        assert tracker.count_for(1) == 0.0
        assert tracker.on_rfm() is None
