"""Tests reproducing the Section VII critique of DSAC."""

import pytest
from hypothesis import given, strategies as st

from repro.trackers.dsac import (
    DsacLikeTracker,
    dsac_weight,
    impress_weight,
    underestimation_factor,
)


class TestWeights:
    def test_paper_example_weight_8_at_256_trc(self):
        # Section VII problem 1: at tON = 256 tRC DSAC weighs ~8.
        assert dsac_weight(256.0) == pytest.approx(8.0)

    def test_required_weight_122_at_256_trc(self):
        # ...whereas the characterization demands ~0.48 * 256 = 122.
        assert impress_weight(256.0) == pytest.approx(122, rel=0.02)

    def test_underestimation_about_15x(self):
        assert underestimation_factor(256.0) == pytest.approx(15.0, rel=0.05)

    def test_minimal_access_weighs_one(self):
        assert dsac_weight(1.0) == pytest.approx(1.0)

    def test_rejects_sub_trc(self):
        with pytest.raises(ValueError):
            dsac_weight(0.5)
        with pytest.raises(ValueError):
            impress_weight(0.5)

    @given(st.floats(min_value=8.0, max_value=2000.0))
    def test_dsac_always_underestimates_long_opens(self, ton_trc):
        # Logarithmic vs linear: DSAC overestimates very short opens
        # but beyond a handful of tRC the gap only widens against it.
        assert dsac_weight(ton_trc) < impress_weight(ton_trc)

    @given(st.floats(min_value=8.0, max_value=1000.0))
    def test_underestimation_grows_with_ton(self, ton_trc):
        assert underestimation_factor(2 * ton_trc) > underestimation_factor(
            ton_trc
        )


class TestDsacLikeTracker:
    def test_installation_ignores_row_press(self):
        # Problem 2: the installing access always counts as 1, however
        # long the row was open.
        tracker = DsacLikeTracker(entries=4, mitigation_threshold=100)
        tracker.raw_kernel(1)(7, 256)  # open 256 tRC
        assert tracker.count_for(7) == 1.0

    def test_integer_weights_truncate(self):
        # Problem 3: integer counters, like ImPress-N's precision loss.
        tracker = DsacLikeTracker(entries=4, mitigation_threshold=100)
        kernel = tracker.raw_kernel(128)
        kernel(7, 128)     # open 1 tRC: install at 1
        kernel(7, 243)     # open 1.9 tRC: log weight 1.81 -> int 1
        assert tracker.count_for(7) == 2.0

    def test_mitigates_at_threshold(self):
        tracker = DsacLikeTracker(entries=4, mitigation_threshold=3)
        tracker.record_unit(7)
        tracker.record_unit(7)
        assert tracker.record_unit(7) == 1
        assert tracker.mitigations == 1

    def test_eviction_when_full(self):
        tracker = DsacLikeTracker(entries=2, mitigation_threshold=100)
        tracker.record_unit(1)
        tracker.record_unit(2)
        tracker.record_unit(2)
        tracker.record_unit(3)
        assert 3 in tracker._table
        assert len(tracker._table) == 2

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DsacLikeTracker(entries=0, mitigation_threshold=5)
        with pytest.raises(ValueError):
            DsacLikeTracker(entries=4, mitigation_threshold=0)

    def test_row_press_evades_dsac_but_not_impress(self):
        # End-to-end: a long-open-row pattern accumulates DSAC count far
        # slower than its true damage, so mitigation lags by the
        # underestimation factor.
        threshold = 100.0
        tracker = DsacLikeTracker(entries=4, mitigation_threshold=threshold)
        ton_trc = 256.0
        rounds = 0
        kernel = tracker.raw_kernel(1)
        while not kernel(7, int(ton_trc)) and rounds < 1000:
            rounds += 1
        true_damage = rounds * impress_weight(ton_trc)
        # The attacker lands >10x the threshold in damage before DSAC
        # reacts — the Section VII security failure.
        assert true_damage > 10 * threshold
