"""Batch engine tier pinned bit-identical against the fast-engine oracle.

Extends the PR 2–3 reference-vs-fast equivalence matrix one tier up:
:func:`repro.sim.batch.simulate_batch` must return exactly the
:class:`SimResult` the fast engine produces for every lane — whether the
lane was the recorded leader, a replay through its real kernels, or a
divergence fallback.  Also pins the ``run_many`` batch routing's blob
identity.
"""

import json

import pytest

from repro.experiments.common import SweepRunner
from repro.sim import simulate_workload
from repro.sim.batch import (
    EV_ACT,
    EV_CLOSE,
    BatchStats,
    TimelineStore,
    _Recorder,
    _Recording,
    _timing_signature,
    replay_lane_python,
    simulate_batch,
)
from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.compiled import compiled_rate_mode_traces

from test_engine_equivalence import DEFENSES, _defense_id, _fuzzed_specs

REQUESTS = 150
SMALL = SystemConfig(n_cores=2, banks_per_channel=8)


def result_blob(result) -> bytes:
    """Canonical serialized form — what the result store would persist."""
    return json.dumps(result.to_json(), sort_keys=True).encode()


def assert_batch_matches_fast(points, system, n_requests, seed,
                              stats=None):
    """One batched run vs one fast-engine run per point, bit-identical."""
    batched = simulate_batch(
        points, system=system, n_requests_per_core=n_requests, seed=seed,
        stats=stats,
    )
    for point, result in zip(points, batched):
        workload, defense, tmro_ns = (
            point.sweep_point() if hasattr(point, "sweep_point") else point
        )
        oracle = simulate_workload(
            workload, defense, system=system,
            n_requests_per_core=n_requests, tmro_ns=tmro_ns, seed=seed,
        )
        assert result_blob(result) == result_blob(oracle), (
            f"batch diverged from fast engine on {point!r}"
        )


class TestBatchVsFastMatrix:
    """The full workload × defense equivalence matrix, batched at once."""

    @pytest.mark.parametrize("workload", ["mcf", "copy", "add_copy"])
    def test_workload_defense_matrix(self, workload):
        stats = BatchStats()
        points = [(workload, defense, None) for defense in DEFENSES]
        assert_batch_matches_fast(points, SMALL, REQUESTS, 7, stats=stats)
        # The matrix must actually exercise the replay path, not just
        # degenerate to per-lane fast runs.
        assert stats.replayed > 0
        assert stats.leaders >= 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeds(self, seed):
        points = [
            ("mcf", None, None),
            ("mcf", DefenseConfig(tracker="graphene", scheme="impress-p"),
             None),
            ("mcf", DefenseConfig(tracker="mint", scheme="impress-p",
                                  trh=1600, rfmth=20), None),
        ]
        assert_batch_matches_fast(points, SMALL, REQUESTS, seed)

    def test_multi_channel_topology(self):
        system = SystemConfig(n_cores=2, channels=2, banks_per_channel=8)
        points = [
            ("add", None, None),
            ("add", DefenseConfig(tracker="graphene", scheme="impress-p"),
             None),
            ("add", DefenseConfig(tracker="prac", scheme="no-rp", trh=150),
             None),
            ("add", DefenseConfig(tracker="mithril", scheme="no-rp",
                                  rfmth=20), None),
            ("add", DefenseConfig(tracker="mint", scheme="no-rp",
                                  rfmth=20), None),
        ]
        stats = BatchStats()
        assert_batch_matches_fast(points, system, REQUESTS, 2, stats=stats)
        assert stats.replayed > 0

    def test_tmro_groups_split_from_default(self):
        # A tMRO override changes the timing signature, so these lanes
        # must not share a leader with the default-timing lanes.
        points = [
            ("copy", None, None),
            ("copy", None, 66.0),
            ("copy", DefenseConfig(tracker="graphene", scheme="no-rp"),
             66.0),
        ]
        stats = BatchStats()
        assert_batch_matches_fast(points, SMALL, REQUESTS, 4, stats=stats)
        assert stats.groups == 1          # the two tmro=66 lanes
        assert stats.singletons == 1      # the default-timing lane

    def test_duplicate_points_deduplicated(self):
        points = [("mcf", None, None)] * 3 + [
            ("mcf", DefenseConfig(tracker="graphene", scheme="no-rp"), None)
        ] * 2
        stats = BatchStats()
        results = simulate_batch(
            points, system=SMALL, n_requests_per_core=60, seed=0,
            stats=stats,
        )
        assert stats.points == 5
        assert stats.leaders == 1 and stats.replayed == 1
        assert result_blob(results[0]) == result_blob(results[1])
        assert result_blob(results[3]) == result_blob(results[4])

    def test_results_are_independent_copies(self):
        points = [
            ("mcf", None, None),
            ("mcf", DefenseConfig(tracker="graphene", scheme="no-rp"), None),
        ]
        leader, follower = simulate_batch(
            points, system=SMALL, n_requests_per_core=60, seed=0
        )
        follower.counts.reads += 1
        follower.core_cycles[0] += 1
        assert leader.counts.reads != follower.counts.reads
        assert leader.core_cycles[0] != follower.core_cycles[0]


class TestFuzzedScenariosBatched:
    """The 8 pinned fuzzer scenarios from PR 6, each batched with a
    no-defense sibling lane on its own topology."""

    @pytest.mark.parametrize("index", range(8))
    def test_fuzzed_scenario(self, index):
        spec = _fuzzed_specs()[index]
        workload, _defense, tmro_ns = spec.sweep_point()
        points = [spec, (workload, None, tmro_ns)]
        assert_batch_matches_fast(points, spec.system, REQUESTS, 0)


class TestRunManyRouting:
    """``run_many`` batch routing is invisible: same blobs, same cache."""

    GRID = [
        ("mcf", None, None),
        ("mcf", DefenseConfig(tracker="graphene", scheme="impress-p"), None),
        ("mcf", DefenseConfig(tracker="para", scheme="no-rp", trh=200.0),
         None),
        ("add", None, None),
        ("add", DefenseConfig(tracker="mint", scheme="no-rp", rfmth=20),
         None),
        ("copy", None, 96.0),
        ("mcf", None, None),                      # duplicate
    ]

    def test_blob_identity_vs_serial(self):
        batched = SweepRunner(system=SMALL, n_requests=60, seed=3)
        serial = SweepRunner(system=SMALL, n_requests=60, seed=3,
                             use_batch=False)
        assert batched.use_batch
        blobs_batched = [
            result_blob(r) for r in batched.run_many(self.GRID)
        ]
        blobs_serial = [
            result_blob(r) for r in serial.run_many(self.GRID)
        ]
        assert blobs_batched == blobs_serial
        # Identical cache accounting: the duplicate is computed once.
        assert batched.cache_stats() == serial.cache_stats()

    def test_single_point_stays_unbatched(self):
        runner = SweepRunner(system=SMALL, n_requests=60)
        [result] = runner.run_many([("mcf", None, None)])
        assert result_blob(result) == result_blob(
            simulate_workload("mcf", system=SMALL, n_requests_per_core=60)
        )


def _recorded_timeline(workload="mcf", defense=None, n_requests=150,
                       system=SMALL, seed=7):
    """A leader run with recording shims, for replay-internal tests."""
    compiled = compiled_rate_mode_traces(
        workload, system.n_cores, n_requests, seed, system.mapper()
    )
    simulator = SystemSimulator(system, defense=defense, compiled=compiled)
    recorder = _Recorder(simulator)
    result = simulator.run()
    assert not recorder.fired
    return recorder, result, system


class TestReplayInternals:
    def test_rfm_counts_match_leader(self):
        # A lane replayed on its own leader's recording counts exactly
        # the RFM mitigations the leader's real run counted.
        for defense in (
            DefenseConfig(tracker="mint", scheme="no-rp", rfmth=20),
            DefenseConfig(tracker="mithril", scheme="no-rp", rfmth=20),
        ):
            recorder, result, system = _recorded_timeline(defense=defense)
            recording = _Recording.of(
                result, recorder.logs,
                _timing_signature(defense, None, system.timings),
                recorder.fired, system.idle_close_cycles,
            )
            valid, rfm = replay_lane_python(defense, system, recording)
            assert valid and rfm == result.rfm_mitigations > 0, (
                _defense_id(defense)
            )

    def test_leader_recording_does_not_change_result(self):
        _recorder, recorded, system = _recorded_timeline()
        plain = simulate_workload(
            "mcf", system=system, n_requests_per_core=150, seed=7
        )
        assert result_blob(recorded) == result_blob(plain)


class TestEngineSelection:
    def test_engine_values_agree(self):
        kwargs = dict(system=SMALL, n_requests_per_core=60, seed=0)
        defense = DefenseConfig(tracker="graphene", scheme="impress-p")
        fast = simulate_workload("mcf", defense, engine="fast", **kwargs)
        reference = simulate_workload(
            "mcf", defense, engine="reference", **kwargs
        )
        batch = simulate_batch([("mcf", defense, None)], **kwargs)[0]
        assert result_blob(fast) == result_blob(reference)
        assert result_blob(fast) == result_blob(batch)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_workload("mcf", engine="warp", system=SMALL,
                              n_requests_per_core=20)


class TestStatsAccounting:
    def test_partition_adds_up(self):
        stats = BatchStats()
        points = [("mcf", defense, None) for defense in DEFENSES]
        results = simulate_batch(
            points, system=SMALL, n_requests_per_core=60, seed=0,
            stats=stats,
        )
        assert len(results) == len(points)
        assert stats.points == len(points)
        unique = len({(w, d, t) for w, d, t in points})
        assert (
            stats.leaders + stats.replayed + stats.fallbacks
            + stats.singletons == unique
        )
        assert stats.python_replays >= stats.replayed


def _plain_bounds(workload, system=SMALL, n_requests=REQUESTS, seed=7):
    """The inertness bounds of ``workload``'s plain recorded timeline:
    ``(max pre - act + idle_close, max per-bank demand ACTs)``."""
    compiled = compiled_rate_mode_traces(
        workload, system.n_cores, n_requests, seed, system.mapper()
    )
    simulator = SystemSimulator(system, compiled=compiled)
    recorder = _Recorder(simulator)
    simulator.run()
    longest = max(
        pre - act
        for log in recorder.logs
        for kind, act, pre in zip(log.kinds, log.a, log.b)
        if kind == EV_CLOSE
    )
    return (
        longest + system.idle_close_cycles,
        max(log.kinds.count(EV_ACT) for log in recorder.logs),
    )


def _tmro_ns(cycles, system=SMALL):
    """A tMRO in ns that the clock rounds to exactly ``cycles``."""
    clock = system.timings.clock
    tmro_ns = clock.ns(cycles)
    assert clock.cycles(tmro_ns) == cycles
    return tmro_ns


class TestTimelineSharing:
    """Lanes join one recorded timeline by trace content and inertness."""

    def test_equal_traces_share_one_leader(self):
        # add/triad generate byte-identical traces, so their lanes are
        # simulated once and copied.
        graphene = DefenseConfig(tracker="graphene", scheme="no-rp")
        points = [
            ("add", None, None), ("triad", None, None),
            ("add", graphene, None), ("triad", graphene, None),
        ]
        stats = BatchStats()
        assert_batch_matches_fast(points, SMALL, REQUESTS, 7, stats=stats)
        assert stats.aliased == 2
        assert stats.leaders == 1 and stats.replayed == 1
        assert stats.singletons == stats.fallbacks == 0

    def test_aliased_results_are_independent_copies(self):
        first, second = simulate_batch(
            [("copy", None, None), ("scale", None, None)],
            system=SMALL, n_requests_per_core=60, seed=0,
        )
        second.counts.reads += 1
        second.core_cycles[0] += 1
        assert first.counts.reads != second.counts.reads
        assert first.core_cycles[0] != second.core_cycles[0]

    def test_tmro_at_inertness_bound_does_not_join(self):
        floor, _acts = _plain_bounds("mcf")
        stats = BatchStats()
        points = [("mcf", None, None), ("mcf", None, _tmro_ns(floor))]
        assert_batch_matches_fast(points, SMALL, REQUESTS, 7, stats=stats)
        assert stats.joined == 0 and stats.replayed == 0
        assert stats.singletons == 2

    def test_tmro_one_cycle_above_bound_replays(self):
        floor, _acts = _plain_bounds("mcf")
        graphene = DefenseConfig(tracker="graphene", scheme="express")
        stats = BatchStats()
        points = [
            ("mcf", None, None),
            ("mcf", None, _tmro_ns(floor + 1)),
            ("mcf", graphene, _tmro_ns(floor + 1)),
        ]
        assert_batch_matches_fast(points, SMALL, REQUESTS, 7, stats=stats)
        assert stats.leaders == 1 and stats.replayed == 2
        assert stats.joined == 2

    def test_rfmth_at_max_bank_acts_is_not_inert(self):
        _floor, acts = _plain_bounds("mcf")
        mint = DefenseConfig(tracker="mint", scheme="no-rp", rfmth=acts)
        stats = BatchStats()
        points = [("mcf", None, None), ("mcf", mint, None)]
        assert_batch_matches_fast(points, SMALL, REQUESTS, 7, stats=stats)
        assert stats.joined == 0 and stats.singletons == 2

    def test_rfmth_above_max_bank_acts_replays(self):
        _floor, acts = _plain_bounds("mcf")
        stats = BatchStats()
        points = [("mcf", None, None)] + [
            ("mcf", DefenseConfig(tracker=tracker, scheme="no-rp",
                                  rfmth=acts + 1), None)
            for tracker in ("mint", "mithril")
        ]
        assert_batch_matches_fast(points, SMALL, REQUESTS, 7, stats=stats)
        assert stats.leaders == 1 and stats.replayed == 2
        assert stats.joined == 2

    def test_unshareable_leader_is_not_recorded(self, monkeypatch):
        # A tMRO at or below tRAS + idle_close can never be inert, so
        # neither lane could replay the other's recording.
        import repro.sim.batch as batch

        recorded = []

        class CountingRecorder(batch._Recorder):
            def __init__(self, simulator):
                recorded.append(simulator)
                super().__init__(simulator)

        monkeypatch.setattr(batch, "_Recorder", CountingRecorder)
        bound = SMALL.timings.tRAS + SMALL.idle_close_cycles
        stats = BatchStats()
        points = [("mcf", None, None), ("mcf", None, _tmro_ns(bound))]
        assert_batch_matches_fast(points, SMALL, REQUESTS, 7, stats=stats)
        assert stats.singletons == 2 and not recorded

    def test_tmro_never_joins_without_idle_close(self):
        system = SystemConfig(n_cores=2, banks_per_channel=8,
                              idle_close_cycles=None)
        stats = BatchStats()
        points = [("mcf", None, None), ("mcf", None, 1.0e6)]
        assert_batch_matches_fast(points, system, REQUESTS, 7, stats=stats)
        assert stats.joined == 0 and stats.singletons == 2

    def test_fired_leader_serves_no_other_signature(self):
        # PARA at a tiny TRH fires, so its recording is not the plain
        # timeline: the long-tMRO lane, inert on the plain timeline,
        # must get a leader of its own.
        para = DefenseConfig(tracker="para", scheme="no-rp", trh=20.0)
        stats = BatchStats()
        points = [("mcf", para, None), ("mcf", para, 1.0e6)]
        assert_batch_matches_fast(points, SMALL, REQUESTS, 7, stats=stats)
        assert stats.joined == 0 and stats.singletons == 2

    def test_stats_identity(self):
        floor, acts = _plain_bounds("add")
        points = [
            ("add", None, None), ("triad", None, None),
            ("copy", None, None), ("scale", None, None),
            ("add", None, _tmro_ns(floor + 1)),
            ("add", None, _tmro_ns(floor)),
            ("add", DefenseConfig(tracker="mint", scheme="no-rp",
                                  rfmth=acts + 1), None),
            ("add", DefenseConfig(tracker="para", scheme="no-rp",
                                  trh=200.0), None),
            ("triad", DefenseConfig(tracker="graphene", scheme="no-rp"),
             None),
            ("add", None, None),                      # duplicate
        ]
        stats = BatchStats()
        assert_batch_matches_fast(points, SMALL, REQUESTS, 7, stats=stats)
        unique = len(set(points))
        assert stats.points == len(points)
        assert stats.aliased == 2 and stats.joined >= 2
        assert (
            stats.leaders + stats.replayed + stats.fallbacks
            + stats.singletons + stats.aliased == unique
        )


class TestTimelineStore:
    """Plain recordings outlive one call when a store is lent."""

    EXPRESS = [
        ("mcf", DefenseConfig(tracker="graphene", scheme="express",
                              tmro_ns=4000.0), None),
        ("mcf", DefenseConfig(tracker="mint", scheme="express",
                              tmro_ns=4000.0, rfmth=10_000), None),
    ]

    def _capture_stats(self, monkeypatch):
        # SweepRunner.run_many looks simulate_batch up on the batch
        # module at call time, so the double goes there.
        import repro.sim.batch as batch

        captured = []
        real = batch.simulate_batch

        def simulate_batch(points, *args, **kwargs):
            captured.append(BatchStats())
            return real(points, *args, stats=captured[-1], **kwargs)

        monkeypatch.setattr(batch, "simulate_batch", simulate_batch)
        return captured

    def test_second_run_many_records_no_new_leader(self, monkeypatch):
        captured = self._capture_stats(monkeypatch)
        runner = SweepRunner(system=SMALL, n_requests=REQUESTS, seed=7)
        runner.run_many([
            ("mcf", None, None),
            ("mcf", DefenseConfig(tracker="graphene", scheme="no-rp"),
             None),
        ])
        results = runner.run_many(self.EXPRESS)
        stats = captured[-1]
        assert stats.leaders == 0 and stats.singletons == 0
        assert stats.replayed == 2 and stats.joined == 2
        for (workload, defense, tmro_ns), result in zip(
            self.EXPRESS, results
        ):
            oracle = simulate_workload(
                workload, defense, system=SMALL,
                n_requests_per_core=REQUESTS, tmro_ns=tmro_ns, seed=7,
            )
            assert result_blob(result) == result_blob(oracle)

    def test_clear_cache_drops_timelines(self, monkeypatch):
        captured = self._capture_stats(monkeypatch)
        runner = SweepRunner(system=SMALL, n_requests=REQUESTS, seed=7)
        runner.run_many([
            ("mcf", None, None),
            ("mcf", DefenseConfig(tracker="graphene", scheme="no-rp"),
             None),
        ])
        assert len(runner._timelines) == 1
        runner.clear_cache()
        assert len(runner._timelines) == 0
        runner.run_many(self.EXPRESS)
        assert captured[-1].leaders == 1

    def test_store_is_bounded_and_skips_fired_leaders(self, monkeypatch):
        import repro.sim.batch as batch

        monkeypatch.setattr(batch, "TIMELINE_STORE_MAX_ENTRIES", 2)
        graphene = DefenseConfig(tracker="graphene", scheme="no-rp")
        store = TimelineStore()
        for workload in ("mcf", "copy", "add"):
            simulate_batch(
                [(workload, None, None), (workload, graphene, None)],
                system=SMALL, n_requests_per_core=60, seed=0,
                timelines=store,
            )
        assert len(store) == 2
        para = DefenseConfig(tracker="para", scheme="no-rp", trh=20.0)
        fired = TimelineStore()
        simulate_batch(
            [("mcf", para, None), ("mcf", para, 1.0e6)],
            system=SMALL, n_requests_per_core=60, seed=0, timelines=fired,
        )
        assert len(fired) == 0

    def test_stored_scalar_replay_matches(self):
        # A later call replays DSAC under ImPress-P on the stored
        # recording's event lists.
        store = TimelineStore()
        simulate_batch(
            [("mcf", None, None),
             ("mcf", DefenseConfig(tracker="graphene", scheme="no-rp"),
              None)],
            system=SMALL, n_requests_per_core=REQUESTS, seed=7,
            timelines=store,
        )
        stats = BatchStats()
        points = [("mcf", DefenseConfig(tracker="dsac", scheme="impress-p"),
                   None)]
        [result] = simulate_batch(points, system=SMALL,
                                  n_requests_per_core=REQUESTS, seed=7,
                                  stats=stats, timelines=store)
        assert stats.python_replays == 1 and stats.replayed == 1
        oracle = simulate_workload(
            "mcf", points[0][1], system=SMALL,
            n_requests_per_core=REQUESTS, seed=7,
        )
        assert result_blob(result) == result_blob(oracle)


class TestScalarReplayErrors:
    POINTS = [
        ("mcf", None, None),
        ("mcf", DefenseConfig(tracker="dsac", scheme="impress-p"), None),
    ]

    def test_unexpected_error_propagates(self, monkeypatch):
        import repro.sim.batch as batch

        def broken(*args, **kwargs):
            raise RuntimeError("planted scalar-replay bug")

        monkeypatch.setattr(batch, "replay_lane_python", broken)
        with pytest.raises(RuntimeError, match="planted"):
            simulate_batch(self.POINTS, system=SMALL,
                           n_requests_per_core=60, seed=0)

    def test_value_error_falls_back(self, monkeypatch):
        import repro.sim.batch as batch

        def out_of_range(*args, **kwargs):
            raise ValueError("row out of range")

        monkeypatch.setattr(batch, "replay_lane_python", out_of_range)
        stats = BatchStats()
        assert_batch_matches_fast(self.POINTS, SMALL, 60, 0, stats=stats)
        assert stats.python_replays == 1 and stats.fallbacks == 1


class TestTraceDigest:
    def test_equal_content_equal_digest(self):
        mapper = SMALL.mapper()
        digest = {
            name: compiled_rate_mode_traces(name, 2, 60, 0, mapper).digest
            for name in ("add", "triad", "copy", "mcf")
        }
        assert digest["add"] == digest["triad"]
        assert len({digest["add"], digest["copy"], digest["mcf"]}) == 3
        other = SystemConfig(n_cores=2, banks_per_channel=16).mapper()
        assert compiled_rate_mode_traces(
            "add", 2, 60, 0, other
        ).digest != digest["add"]
