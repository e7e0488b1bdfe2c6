"""Unit tests for PARA and its probability sizing."""

import random

import pytest

from repro.trackers.para import (
    ParaTracker,
    para_failure_probability,
    para_probability,
)


class TestProbabilitySizing:
    def test_paper_value_at_4k(self):
        # Section III-B: p = 1/184 for TRH = 4K at the 0.1 FIT target.
        assert para_probability(4000) == pytest.approx(1 / 184, rel=0.01)

    def test_halved_threshold_doubles_p(self):
        assert para_probability(2000) == pytest.approx(
            2 * para_probability(4000)
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            para_probability(0)
        with pytest.raises(ValueError):
            para_probability(4000, escape_probability=0.0)

    def test_failure_probability_matches_target(self):
        p = para_probability(4000)
        assert para_failure_probability(p, 4000) <= 3.7e-10 * 1.01

    def test_failure_probability_edges(self):
        assert para_failure_probability(1.0, 100) == 0.0
        assert para_failure_probability(0.0, 100) == 1.0
        with pytest.raises(ValueError):
            para_failure_probability(1.5, 100)


class TestParaTracker:
    def test_deterministic_with_seed(self):
        a = ParaTracker(p=0.5, rng=random.Random(42))
        b = ParaTracker(p=0.5, rng=random.Random(42))
        seq_a = [a.record_unit(i) for i in range(100)]
        seq_b = [b.record_unit(i) for i in range(100)]
        assert seq_a == seq_b

    def test_mitigation_rate_close_to_p(self):
        tracker = ParaTracker(p=0.1, rng=random.Random(7))
        n = 20_000
        hits = sum(1 for i in range(n) if tracker.record_unit(i))
        assert hits / n == pytest.approx(0.1, rel=0.1)

    def test_weight_scales_probability(self):
        # ImPress-P: probability p * EACT.
        tracker = ParaTracker(p=0.05, rng=random.Random(7))
        n = 20_000
        kernel = tracker.raw_kernel(1)
        hits = sum(1 for i in range(n) if kernel(i, 2))
        assert hits / n == pytest.approx(0.1, rel=0.1)

    def test_probability_saturates_at_one(self):
        tracker = ParaTracker(p=0.5, rng=random.Random(7))
        assert tracker.raw_kernel(1)(3, 100) == 1

    def test_zero_weight_never_selects(self):
        tracker = ParaTracker(p=1.0, rng=random.Random(7))
        assert tracker.raw_kernel(1)(3, 0) == 0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            ParaTracker(p=0.0)
        with pytest.raises(ValueError):
            ParaTracker(p=1.5)

    def test_reset_is_stateless(self):
        tracker = ParaTracker(p=0.5)
        tracker.reset()  # must not raise
