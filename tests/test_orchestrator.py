"""Tests for the experiment registry and the parallel orchestrator."""

import importlib
import json
import re
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.common import SweepRunner
from repro.experiments.orchestrator import (
    Orchestrator,
    OrchestratorError,
    _execute,
    experiment_recipe,
    jsonify,
)
from repro.experiments.registry import PAPER_TAG, Experiment, RunContext
from repro.results import store_for
from repro.sim import batch
from repro.sim.config import DefenseConfig

EXPERIMENT_DIR = Path(registry.__file__).parent
#: Modules that host experiments (everything except the plumbing).
PLUMBING = {"__init__", "common", "registry", "orchestrator"}


def experiment_module_stems():
    return sorted(
        path.stem
        for path in EXPERIMENT_DIR.glob("*.py")
        if path.stem not in PLUMBING
    )


class TestRegistry:
    def test_every_experiment_module_registers(self):
        registered_modules = {
            exp.module.rsplit(".", 1)[-1] for exp in registry.all_experiments()
        }
        for stem in experiment_module_stems():
            assert stem in registered_modules, (
                f"{stem}.py defines no registered experiment"
            )

    def test_names_unique_and_stable(self):
        names = registry.names()
        assert len(names) == len(set(names))
        assert {"fig3", "fig13", "table1", "storage", "energy",
                "ablation"} <= set(names)

    def test_select_by_name_and_tag(self):
        assert [e.name for e in registry.select(only=["fig13", "table2"])] == [
            "fig13", "table2"
        ]
        analytic = registry.select(only=["analytic"])
        assert analytic and all("analytic" in e.tags for e in analytic)

    def test_select_unknown_raises(self):
        with pytest.raises(KeyError, match="fig99"):
            registry.select(only=["fig99"])

    def test_only_paper_runs_the_paper_tag_in_registry_order(
        self, tmp_path
    ):
        paper_names = [
            e.name for e in registry.select(tags=(PAPER_TAG,))
        ]
        report = Orchestrator(
            results_dir=tmp_path, n_requests=40
        ).run(only=[PAPER_TAG])
        assert [o.name for o in report.outcomes] == paper_names
        assert "ablation" not in report.by_name

    def test_no_experiment_module_defines_main(self):
        # The orchestrator is the only way an experiment runs; a
        # per-module printer would be a second, uncached path.
        for module in {e.module for e in registry.all_experiments()}:
            assert not hasattr(importlib.import_module(module), "main"), (
                f"{module} defines main(); run it via `repro run --only`"
            )

    def test_costliest_first_is_a_permutation(self):
        scheduled = sorted(
            registry.all_experiments(), key=lambda e: e.cost, reverse=True
        )
        assert {e.name for e in scheduled} == set(registry.names())
        costs = [e.cost for e in scheduled]
        assert costs == sorted(costs, reverse=True)


class TestJsonify:
    def test_float_and_inf_keys_become_strings(self):
        data = {36.0: {"a": 1.0}, float("inf"): (1, 2)}
        assert jsonify(data) == {"36.0": {"a": 1.0}, "inf": [1, 2]}

    def test_non_finite_values_become_strings(self):
        assert jsonify({"x": float("nan")}) == {"x": "nan"}

    def test_round_trips_through_json(self):
        data = jsonify({4000.0: [(0, 0.2)], "inf": float("inf")})
        assert json.loads(json.dumps(data)) == data


class TestCache:
    def make(self, tmp_path, **kwargs):
        defaults = dict(results_dir=tmp_path, jobs=1, n_requests=40)
        defaults.update(kwargs)
        return Orchestrator(**defaults)

    def cache_blob(self, tmp_path, name="table1"):
        """The store blob backing one experiment's cache entry."""
        store = store_for(tmp_path)
        entry = store.latest(name)
        assert entry is not None, f"{name} has no store entry"
        return store.blob_path(entry["key"])

    def test_miss_then_hit(self, tmp_path):
        first = self.make(tmp_path).run(only=["table1"])
        assert [o.cached for o in first.outcomes] == [False]
        second = self.make(tmp_path).run(only=["table1"])
        assert [o.cached for o in second.outcomes] == [True]
        assert second.outcomes[0].result == first.outcomes[0].result

    def test_cached_rerun_keeps_summary_order(self, tmp_path):
        # table1 summarizes tRC before tRAS, and the store blob is
        # written with sorted keys: the cached path must restore tRC
        # first, in the artifact and in the comparison rows.
        def artifacts():
            return (
                json.loads((tmp_path / "table1.json").read_text()),
                json.loads((tmp_path / "summary.json").read_text()),
            )

        fresh = self.make(tmp_path).run(only=["table1"])
        fresh_artifact, fresh_summary = artifacts()
        cached = self.make(tmp_path).run(only=["table1"])
        cached_artifact, cached_summary = artifacts()
        assert [o.cached for o in cached.outcomes] == [True]
        assert list(fresh_artifact["summary"]) == list(
            cached_artifact["summary"])
        assert list(fresh_artifact["summary"]) == ["tRC_ns", "tRAS_ns"]
        assert list(fresh_summary["experiments"]["table1"]["summary"]) == (
            list(cached_summary["experiments"]["table1"]["summary"]))
        assert fresh_summary["comparison"] == cached_summary["comparison"]
        assert list(fresh.outcomes[0].summary) == list(
            cached.outcomes[0].summary)

    def test_force_bypasses_cache(self, tmp_path):
        self.make(tmp_path).run(only=["table1"])
        forced = self.make(tmp_path, force=True).run(only=["table1"])
        assert [o.cached for o in forced.outcomes] == [False]

    def test_different_options_different_key(self, tmp_path):
        self.make(tmp_path, n_requests=40).run(only=["table1"])
        other = self.make(tmp_path, n_requests=41).run(only=["table1"])
        assert [o.cached for o in other.outcomes] == [False]
        store = store_for(tmp_path)
        keys = {
            e["key"]
            for e in store.entries(name="table1", kind="experiment")
        }
        assert len(keys) == 2
        for key in keys:  # both coexist: no overwrite across options
            assert store.get(key) is not None

    def test_cache_missing_config_hash_is_a_miss(self, tmp_path):
        self.make(tmp_path).run(only=["table1"])
        blob_path = self.cache_blob(tmp_path)
        blob = json.loads(blob_path.read_text())
        del blob["payload"]["config_hash"]
        blob_path.write_text(json.dumps(blob))
        again = self.make(tmp_path).run(only=["table1"])
        assert [o.cached for o in again.outcomes] == [False]

    def test_corrupt_cache_is_a_miss(self, tmp_path):
        orchestrator = self.make(tmp_path)
        orchestrator.run(only=["table1"])
        self.cache_blob(tmp_path).write_text("{ not json")
        again = self.make(tmp_path).run(only=["table1"])
        assert [o.cached for o in again.outcomes] == [False]

    def test_cache_recipe_is_explicit_not_repr(self, tmp_path):
        self.make(tmp_path).run(only=["table1"])
        blob = json.loads(self.cache_blob(tmp_path).read_text())
        assert blob["recipe"] == experiment_recipe(
            "table1", {"quick": True, "n_requests": 40, "seed": 0}
        )

    def test_artifacts_written(self, tmp_path):
        self.make(tmp_path).run(only=["table1", "fig18"])
        assert (tmp_path / "table1.json").exists()
        assert (tmp_path / "fig18.json").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["experiments"]) == {"table1", "fig18"}
        report = (tmp_path / "REPORT.md").read_text()
        assert "Paper vs measured" in report

    def test_progress_streams(self, tmp_path):
        messages = []
        self.make(tmp_path, progress=messages.append).run(only=["table1"])
        # An analytic experiment declares no points: no sweep line.
        assert not any(m.startswith("[sweep]") for m in messages)
        assert "[start] table1" in messages
        assert any(m.startswith("[done]  table1") for m in messages)
        messages.clear()
        self.make(tmp_path, progress=messages.append).run(
            only=["table1", "fig3"]
        )
        # fig3 at quick scale: 6 workloads x (baseline + 6 tMRO values),
        # simulated by one shared sweep before the first [start].
        assert messages[0] == "[cache] table1"
        assert re.fullmatch(
            r"\[sweep\] 42 points \(42 simulated\) in \d+\.\d\ds",
            messages[1],
        )
        assert messages[2] == "[start] fig3"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["sweep_s"] > 0
        messages.clear()
        self.make(tmp_path, progress=messages.append).run(
            only=["table1", "fig3"]
        )
        assert sorted(messages) == ["[cache] fig3", "[cache] table1"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["sweep_s"] == 0


class TestParallelEquivalence:
    #: One real simulation sweep plus analytic experiments, small sizes.
    SUBSET = ["fig3", "fig12", "fig18", "table3"]

    @pytest.mark.slow
    def test_parallel_matches_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = Orchestrator(
            results_dir=serial_dir, jobs=1, n_requests=60
        ).run(only=self.SUBSET)
        parallel = Orchestrator(
            results_dir=parallel_dir, jobs=2, n_requests=60
        ).run(only=self.SUBSET)
        assert [o.cached for o in parallel.outcomes] == [False] * 4
        for name in self.SUBSET:
            a = json.loads((serial_dir / f"{name}.json").read_text())
            b = json.loads((parallel_dir / f"{name}.json").read_text())
            assert a["result"] == b["result"], name
            assert a["summary"] == b["summary"], name
        assert serial.by_name["fig3"].summary == (
            parallel.by_name["fig3"].summary
        )


#: The experiments that simulate through the context's runner.
SIMULATED = ["fig3", "fig5", "fig13", "fig14", "fig15", "fig16", "energy"]


class TestUnionSweep:
    """A serial run simulates every experiment's points in one call."""

    @pytest.fixture(scope="class")
    def union_run(self, tmp_path_factory):
        calls = []  # (runner, misses before, misses after) per run_many
        original = SweepRunner.run_many

        def recording(runner, points):
            before = runner.cache_stats().misses
            results = original(runner, points)
            calls.append((runner, before, runner.cache_stats().misses))
            return results

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SweepRunner, "run_many", recording)
            report = Orchestrator(
                results_dir=tmp_path_factory.mktemp("union"),
                quick=True, n_requests=40,
            ).run(only=SIMULATED)
        return report, calls

    @pytest.mark.slow
    def test_one_run_many_simulates_and_every_read_hits(self, union_run):
        _, calls = union_run
        simulating = [call for call in calls if call[2] > call[1]]
        assert len(simulating) == 1
        runner, _, misses = simulating[0]
        assert calls[0] is simulating[0]
        # Nothing after the union (the per-experiment run_many calls,
        # the assembly's run()/speedup() reads) simulates a point.
        assert all(call[0] is runner for call in calls)
        assert runner.cache_stats().misses == misses

    @pytest.mark.slow
    def test_union_results_equal_each_experiment_alone(self, union_run):
        report, _ = union_run
        for name in SIMULATED:
            experiment, ctx = registry.get(name), RunContext(n_requests=40)
            alone = experiment.run(ctx)
            assert report.by_name[name].result == jsonify(alone), name
            # Alone, the experiment simulates exactly its own points: a
            # read it forgot to declare would be one more miss, even
            # when another experiment declares that point.
            declared = set(experiment.points(ctx))
            assert ctx.sweep_runner().cache_stats().misses == len(declared)

    def test_unbuildable_points_fail_by_name(self, tmp_path, monkeypatch):
        # ExPress cannot limit rows to 1 ns (below tRAS): the simulator
        # build raises, so the union run_many does too.
        bad = DefenseConfig(
            tracker="graphene", scheme="express", trh=4000.0, tmro_ns=1.0
        )
        monkeypatch.setitem(
            registry._REGISTRY,
            "badpoints",
            Experiment(
                name="badpoints", fn=lambda ctx: {}, title="badpoints",
                paper_ref="-", tags=("test",), cost=1000.0,
                module=__name__, points=lambda ctx: [("mcf", bad, None)],
            ),
        )
        messages = []
        with pytest.raises(OrchestratorError) as failure:
            Orchestrator(
                results_dir=tmp_path, n_requests=40,
                progress=messages.append,
            ).run(only=["badpoints", "fig3", "table1"])
        assert "1 experiment(s) failed: badpoints" in str(failure.value)
        assert "tMRO cannot be below tRAS" in str(failure.value)
        assert sum(m.startswith("[sweep] failed") for m in messages) == 1
        assert "[fail]  badpoints" in messages
        store = store_for(tmp_path)
        assert store.latest("fig3") is not None
        assert store.latest("table1") is not None

    def test_oracle_runner_never_reaches_the_batch_tier(
        self, tmp_path, monkeypatch
    ):
        # perfbench/pin.py pins through per-point runs by rebinding
        # RunContext.sweep_runner; the union must take its runner there.
        batched = RunContext.sweep_runner

        def oracle_runner(ctx):
            runner = batched(ctx)
            runner.use_batch = False
            return runner

        calls = []
        real = batch.simulate_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(RunContext, "sweep_runner", oracle_runner)
        monkeypatch.setattr(batch, "simulate_batch", counting)
        report = Orchestrator(results_dir=tmp_path, n_requests=40).run(
            only=["fig3", "fig14"]
        )
        assert [o.cached for o in report.outcomes] == [False, False]
        assert calls == []


class TestFailureHandling:
    def test_execute_reports_unknown_experiment(self):
        raw = _execute(("no-such-experiment", {"quick": True,
                                               "n_requests": 40,
                                               "seed": 0}))
        assert "error" in raw

    def test_failing_experiment_raises_with_traceback(self, tmp_path,
                                                      monkeypatch):
        def boom(ctx):
            raise RuntimeError("intentional test failure")

        monkeypatch.setitem(
            registry._REGISTRY,
            "boom",
            Experiment(
                name="boom", fn=boom, title="boom", paper_ref="-",
                tags=("test",), cost=0.0, module=__name__,
            ),
        )
        orchestrator = Orchestrator(results_dir=tmp_path, jobs=1)
        with pytest.raises(OrchestratorError, match="intentional"):
            orchestrator.run(only=["boom"])

    def test_successes_are_cached_despite_failure(self, tmp_path,
                                                  monkeypatch):
        def boom(ctx):
            raise RuntimeError("intentional test failure")

        monkeypatch.setitem(
            registry._REGISTRY,
            "boom",
            Experiment(
                name="boom", fn=boom, title="boom", paper_ref="-",
                tags=("test",), cost=1000.0, module=__name__,
            ),
        )
        orchestrator = Orchestrator(results_dir=tmp_path, jobs=1,
                                    n_requests=40)
        with pytest.raises(OrchestratorError):
            orchestrator.run(only=["boom", "table1"])
        # table1 completed before boom's failure surfaced; its result
        # must be cached so a retry only recomputes the failure.
        assert store_for(tmp_path).latest("table1") is not None
        retry = Orchestrator(results_dir=tmp_path, jobs=1,
                             n_requests=40).run(only=["table1"])
        assert [o.cached for o in retry.outcomes] == [True]

    def test_empty_selection_raises(self, tmp_path):
        with pytest.raises(ValueError):
            Orchestrator(results_dir=tmp_path).run(only=[])


class TestRunContext:
    def test_shares_sweep_runner(self):
        ctx = RunContext(quick=True, n_requests=40)
        assert ctx.sweep_runner() is ctx.sweep_runner()
        assert ctx.sweep_runner().n_requests == 40
