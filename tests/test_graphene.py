"""Unit tests for the Graphene (Misra-Gries) tracker."""

import pytest

from repro.core.mitigation import ImpressPScheme
from repro.trackers.graphene import GrapheneTracker


class TestBasicTracking:
    def test_mitigates_at_internal_threshold(self):
        tracker = GrapheneTracker(entries=4, internal_threshold=3)
        assert tracker.record_unit(7) == 0
        assert tracker.record_unit(7) == 0
        assert tracker.record_unit(7) == 1
        assert tracker.mitigations == 1

    def test_counter_resets_after_mitigation(self):
        tracker = GrapheneTracker(entries=4, internal_threshold=2)
        tracker.record_unit(7)
        assert tracker.record_unit(7) == 1
        assert tracker.count_for(7) == 0.0
        tracker.record_unit(7)
        assert tracker.record_unit(7) == 1

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GrapheneTracker(entries=0, internal_threshold=10)
        with pytest.raises(ValueError):
            GrapheneTracker(entries=4, internal_threshold=0)
        with pytest.raises(ValueError):
            GrapheneTracker(entries=4, internal_threshold=4, fraction_bits=-1)

    def test_reset_clears(self):
        tracker = GrapheneTracker(entries=2, internal_threshold=10)
        tracker.record_unit(1)
        tracker.reset()
        assert tracker.count_for(1) == 0.0
        assert tracker.tracked_rows() == []


class TestMisraGries:
    def test_spillover_grows_when_full(self):
        tracker = GrapheneTracker(entries=2, internal_threshold=100)
        tracker.record_unit(1)
        tracker.record_unit(2)
        tracker.record_unit(3)  # table full -> spillover
        assert tracker.spillover == 1.0

    def test_new_row_swaps_in_at_spill_level(self):
        tracker = GrapheneTracker(entries=2, internal_threshold=100)
        tracker.record_unit(1)
        tracker.record_unit(2)
        tracker.record_unit(2)
        # Spill reaches row 1's count (1): a later row replaces it.
        tracker.record_unit(3)
        assert 3 in tracker.tracked_rows()
        assert 1 not in tracker.tracked_rows()
        assert tracker.count_for(3) == 1.0

    def test_heavy_hitter_never_lost(self):
        # The Misra-Gries guarantee: a row with more than
        # total/(entries+1) activations is always tracked.
        tracker = GrapheneTracker(entries=4, internal_threshold=10_000)
        for i in range(400):
            tracker.record_unit(1000 + (i % 40))  # 40 distinct light rows
            tracker.record_unit(7)                # one heavy row
        assert 7 in tracker.tracked_rows()
        assert tracker.count_for(7) >= 400 - tracker.spillover

    def test_count_never_below_true_count(self):
        # Misra-Gries counters over-approximate (insert at spill level),
        # which is the conservative direction for security.
        tracker = GrapheneTracker(entries=2, internal_threshold=1000)
        for _ in range(10):
            tracker.record_unit(1)
        assert tracker.count_for(1) >= 10


class TestFractionalGraphene:
    """EACT weights arrive as raw fixed-point (1/128 units at 7 bits)."""

    def test_eact_weights_accumulate(self):
        tracker = GrapheneTracker(
            entries=4, internal_threshold=3, fraction_bits=7
        )
        kernel = tracker.raw_kernel(128)
        assert kernel(7, 192) == 0  # EACT 1.5
        assert kernel(7, 192) == 1

    def test_zero_bits_truncates_fraction(self, timings):
        # ImPress-P at 0 bits truncates an EACT of 1.99 to one count.
        tracker = GrapheneTracker(
            entries=4, internal_threshold=2, fraction_bits=0
        )
        scheme = ImpressPScheme([tracker], timings, fraction_bits=0)
        scheme.close_kernels()[0](7, 0, timings.tRAS + timings.tRC - 1)
        assert tracker.count_for(7) == 1.0

    def test_zero_weight_noop(self):
        tracker = GrapheneTracker(entries=4, internal_threshold=2)
        assert tracker.raw_kernel(1)(7, 0) == 0
        assert tracker.count_for(7) == 0.0

    def test_large_eact_triggers_immediately(self):
        tracker = GrapheneTracker(
            entries=4, internal_threshold=3, fraction_bits=7
        )
        assert tracker.raw_kernel(128)(7, 3 * 128) == 1
