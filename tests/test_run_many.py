"""SweepRunner.run_many: batch-tier cache merge and batch semantics."""

import pytest

from repro.experiments.common import SweepRunner
from repro.sim.config import DefenseConfig, SystemConfig

SMALL = SystemConfig(n_cores=2, banks_per_channel=8)
REQUESTS = 60

GRID = [
    ("mcf", None, None),
    ("mcf", DefenseConfig(tracker="graphene", scheme="impress-p"), None),
    ("add", None, None),
    ("add", DefenseConfig(tracker="para", scheme="no-rp", trh=200), None),
    ("copy", None, 96.0),
]


def small_runner():
    return SweepRunner(system=SMALL, n_requests=REQUESTS)


class TestCacheMerge:
    def test_batch_merges_into_cache(self):
        runner = small_runner()
        results = runner.run_many(GRID)
        assert runner._timelines is not None  # went through the batch tier
        stats = runner.cache_stats()
        assert stats.size == len(GRID)
        assert stats.misses == len(GRID)
        # Every later run() on the same points is a pure cache hit —
        # including hits produced through speedup()'s baseline leg.
        for point, result in zip(GRID, results):
            assert runner.run(*point) is result
        assert runner.cache_stats().misses == len(GRID)
        assert runner.cache_stats().hits == len(GRID)

    def test_speedup_after_batch_matches_direct(self):
        defense = DefenseConfig(tracker="graphene", scheme="impress-p")
        direct = small_runner()
        prefetched = small_runner()
        prefetched.run_many([("mcf", defense), ("mcf", None)])
        assert prefetched._timelines is not None
        assert prefetched.speedup("mcf", defense) == pytest.approx(
            direct.speedup("mcf", defense)
        )


class TestBatchSemantics:
    def test_results_follow_input_order_with_duplicates(self):
        runner = small_runner()
        points = [GRID[0], GRID[1], GRID[0]]
        results = runner.run_many(points)
        assert results[0] is results[2]
        assert runner.cache_stats().misses == 2  # duplicate computed once

    def test_point_shorthand_forms(self):
        runner = small_runner()
        bare, pair, triple = runner.run_many(
            ["mcf", ("mcf", None), ("mcf", None, None)]
        )
        assert bare is pair is triple

    def test_cached_points_are_hits(self):
        runner = small_runner()
        runner.run("mcf")
        runner.run_many(["mcf", "mcf"])
        stats = runner.cache_stats()
        assert stats.hits == 2
        assert stats.misses == 1
