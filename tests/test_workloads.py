"""Tests for workload profiles and synthetic trace generation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import LINE_BYTES, MopAddressMapper
from repro.workloads.profiles import (
    ALL_WORKLOAD_NAMES,
    SPEC_NAMES,
    STREAM_KERNEL_NAMES,
    STREAM_MIX_NAMES,
    WorkloadProfile,
    is_mix,
    mix_components,
    profile_for,
)
from repro.workloads.synthetic import (
    rate_mode_traces,
    spec_like_trace,
    stream_like_trace,
    trace_for_profile,
)
from repro.workloads.trace import Trace, TraceRequest


class TestProfiles:
    def test_paper_workload_roster(self):
        # Fig 3's x-axis: 10 SPEC + 4 STREAM kernels + 6 mixes.
        assert len(SPEC_NAMES) == 10
        assert len(STREAM_KERNEL_NAMES) == 4
        assert len(STREAM_MIX_NAMES) == 6
        assert len(ALL_WORKLOAD_NAMES) == 20

    def test_profile_lookup(self):
        assert profile_for("mcf").category == "spec"
        assert profile_for("add").category == "stream"
        with pytest.raises(KeyError):
            profile_for("nonexistent")

    def test_mix_components(self):
        assert is_mix("add_copy")
        assert mix_components("add_copy") == ("add", "copy")
        assert not is_mix("add")
        with pytest.raises(KeyError):
            mix_components("add")

    def test_stream_kernels_have_write_streams(self):
        for name in STREAM_KERNEL_NAMES:
            assert "w" in profile_for(name).streams

    def test_add_and_triad_have_three_streams(self):
        assert len(profile_for("add").streams) == 3
        assert len(profile_for("triad").streams) == 3
        assert len(profile_for("copy").streams) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("x", "bogus")
        with pytest.raises(ValueError):
            WorkloadProfile("x", "spec", run_lines=0.5)
        with pytest.raises(ValueError):
            WorkloadProfile("x", "spec", write_fraction=1.5)


class TestTrace:
    def test_request_validation(self):
        with pytest.raises(ValueError):
            TraceRequest(address=-1)
        with pytest.raises(ValueError):
            TraceRequest(address=0, gap_cycles=-1)

    def test_offset_by(self):
        trace = Trace([TraceRequest(address=64, gap_cycles=3)])
        shifted = trace.offset_by(128)
        assert shifted[0].address == 192
        assert shifted[0].gap_cycles == 3

    def test_write_fraction(self):
        trace = Trace(
            [TraceRequest(0, is_write=True), TraceRequest(64, is_write=False)]
        )
        assert trace.write_fraction() == 0.5
        assert Trace([]).write_fraction() == 0.0

    def test_from_columns_adopts_columns(self):
        addresses, writes, gaps = [0, 64], [True, False], [5, 0]
        trace = Trace.from_columns(addresses, writes, gaps)
        assert trace.addresses is addresses
        assert len(trace) == 2
        assert trace[0] == TraceRequest(0, is_write=True, gap_cycles=5)
        assert list(trace) == [
            TraceRequest(0, True, 5), TraceRequest(64, False, 0)
        ]
        assert len(Trace.from_columns([], [], [])) == 0

    def test_from_columns_rejects_negative_address(self):
        with pytest.raises(ValueError, match="address"):
            Trace.from_columns([0, -64], [False, False], [0, 0])

    def test_from_columns_rejects_negative_gap(self):
        with pytest.raises(ValueError, match="gap_cycles"):
            Trace.from_columns([0, 64], [False, False], [3, -1])

    @pytest.mark.parametrize(
        "columns",
        [
            ([0, 64], [False], [0, 0]),
            ([0], [False], [0, 0]),
            ([0, 64], [False, True], []),
        ],
        ids=["writes-short", "gaps-long", "gaps-empty"],
    )
    def test_from_columns_rejects_unequal_lengths(self, columns):
        with pytest.raises(ValueError, match="column lengths differ"):
            Trace.from_columns(*columns)

    def test_offset_by_shifts_only_addresses(self):
        trace = Trace.from_columns([0, 64], [True, False], [1, 2])
        shifted = trace.offset_by(4096)
        assert shifted.addresses == [4096, 4160]
        assert shifted.writes is trace.writes
        assert shifted.gaps is trace.gaps
        assert trace.addresses == [0, 64]


class TestSpecLikeTraces:
    def test_length_and_determinism(self):
        profile = profile_for("mcf")
        a = spec_like_trace(profile, 500, seed=1)
        b = spec_like_trace(profile, 500, seed=1)
        assert len(a) == 500
        assert [r.address for r in a] == [r.address for r in b]

    def test_different_seeds_differ(self):
        profile = profile_for("mcf")
        a = spec_like_trace(profile, 200, seed=1)
        b = spec_like_trace(profile, 200, seed=2)
        assert [r.address for r in a] != [r.address for r in b]

    def test_locality_orders_hit_potential(self):
        # bwaves (run 5.0) must produce longer same-row runs than mcf
        # (run 1.3) under the MOP mapping.
        mapper = MopAddressMapper()

        def mean_run(trace):
            runs, current, last = [], 0, None
            for request in trace:
                mapped = mapper.map_address(request.address)
                key = (mapped.channel, mapped.bank, mapped.row)
                if key == last:
                    current += 1
                else:
                    if current:
                        runs.append(current)
                    current = 1
                    last = key
            runs.append(current)
            return sum(runs) / len(runs)

        bwaves = spec_like_trace(profile_for("bwaves"), 2000, seed=3)
        mcf = spec_like_trace(profile_for("mcf"), 2000, seed=3)
        assert mean_run(bwaves) > mean_run(mcf)

    def test_write_fraction_near_profile(self):
        profile = profile_for("mcf")
        trace = spec_like_trace(profile, 4000, seed=4)
        assert trace.write_fraction() == pytest.approx(
            profile.write_fraction, abs=0.05
        )


class TestStreamLikeTraces:
    def test_streams_are_sequential(self):
        trace = stream_like_trace(profile_for("copy"), 64, seed=0)
        reads = [r.address for r in trace if not r.is_write]
        deltas = {b - a for a, b in zip(reads, reads[1:])}
        assert deltas == {LINE_BYTES}

    def test_write_stream_present(self):
        trace = stream_like_trace(profile_for("add"), 300, seed=0)
        # add: 2 reads + 1 write per iteration.
        assert trace.write_fraction() == pytest.approx(1 / 3, abs=0.02)

    def test_requires_stream_spec(self):
        with pytest.raises(ValueError):
            stream_like_trace(profile_for("mcf"), 100)

    def test_trace_for_profile_dispatch(self):
        assert len(trace_for_profile(profile_for("add"), 50)) == 50
        assert len(trace_for_profile(profile_for("mcf"), 50)) == 50


class TestRateMode:
    def test_one_trace_per_core(self):
        traces = rate_mode_traces("mcf", 8, 100, seed=0)
        assert len(traces) == 8
        assert all(len(t) == 100 for t in traces)

    def test_core_footprints_disjoint(self):
        traces = rate_mode_traces("mcf", 4, 200, seed=0)
        footprints = [
            {r.address for r in trace} for trace in traces
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not footprints[i] & footprints[j]

    def test_mix_splits_cores(self):
        traces = rate_mode_traces("add_copy", 8, 300, seed=0)
        # add cores write 1/3, copy cores 1/2.
        fractions = sorted(t.write_fraction() for t in traces)
        assert fractions[0] == pytest.approx(1 / 3, abs=0.02)
        assert fractions[-1] == pytest.approx(1 / 2, abs=0.02)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            rate_mode_traces("mcf", 0, 10)

    @given(st.sampled_from(ALL_WORKLOAD_NAMES))
    @settings(max_examples=10, deadline=None)
    def test_every_named_workload_generates(self, name):
        traces = rate_mode_traces(name, 2, 50, seed=0)
        assert len(traces) == 2
        assert all(len(t) == 50 for t in traces)
