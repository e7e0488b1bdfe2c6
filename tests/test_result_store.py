"""Tests for the content-addressed result store (repro.results)."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.orchestrator import Orchestrator, experiment_recipe
from repro.results import (
    ResultStore,
    STORE_VERSION,
    canonical_json,
    content_key,
    store_for,
)
from repro.results.report import compare_stores, resolve_store
from repro.distrib.worker import sweep_task_recipe
from repro.scenarios import run_scenarios_cached
from repro.scenarios.spec import ScenarioSpec
from repro.sim.config import DefenseConfig, SystemConfig
from repro.workloads.sources import AttackerSource

SMALL = SystemConfig(n_cores=2, banks_per_channel=8)
DEFENSE = DefenseConfig(tracker="graphene", scheme="impress-p")
REQUESTS = 120

RECIPE = {"kind": "test", "x": 1, "y": [1, 2, 3]}
PAYLOAD = {"metrics": {"a": 1.5}, "note": "hello"}


def colocated(pattern="hammer", bank=2):
    """A small co-located spec; hammer/dwell variants share a baseline."""
    if pattern == "hammer":
        attacker = AttackerSource("hammer", bank=bank, rows=(50, 52))
    else:
        attacker = AttackerSource("dwell", bank=bank, rows=(60, 62))
    return ScenarioSpec.colocated(
        f"small_{pattern}", "mcf", attackers=(attacker,),
        system=SMALL, defense=DEFENSE,
    )


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_key_order_does_not_matter(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_tuples_serialize_as_lists(self):
        assert canonical_json({"t": (1, 2)}) == canonical_json({"t": [1, 2]})

    def test_rejects_non_finite_with_path(self):
        with pytest.raises(ValueError, match=r"\$\.metrics\[1\]"):
            canonical_json({"metrics": [1.0, float("inf")]})
        with pytest.raises(ValueError, match="non-finite"):
            content_key({"x": float("nan")})

    def test_random_scenario_recipes_key_deterministically(self):
        """Fuzzer-generated specs hash stably through the store layer.

        For every random spec: the run recipe is strict JSON (survives a
        serialize/reload cycle byte-identically) and its content key is
        insensitive to both dict key order and the spec's display name.
        """
        import dataclasses
        import random

        from repro.scenarios.fuzz import mutate_spec, random_spec

        rng = random.Random(505)
        for index in range(8):
            spec = mutate_spec(rng, random_spec(rng, index))
            recipe = sweep_task_recipe(spec.recipe(), REQUESTS, 0)
            text = canonical_json(recipe)
            assert canonical_json(json.loads(text)) == text
            assert content_key(json.loads(text)) == content_key(recipe)
            renamed = dataclasses.replace(spec, name="other")
            assert (
                content_key(sweep_task_recipe(renamed.recipe(), REQUESTS, 0))
                == content_key(recipe)
            )


class TestBlobs:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key, path, created = store.put(RECIPE, PAYLOAD)
        assert created
        assert path.is_file()
        assert key == content_key(RECIPE)
        assert store.get(key) == PAYLOAD
        assert store.fetch(RECIPE) == PAYLOAD
        assert store.get("0" * 16) is None

    def test_second_put_dedups(self, tmp_path):
        store = ResultStore(tmp_path)
        _, path, _ = store.put(RECIPE, PAYLOAD)
        before = path.read_text()
        key, path2, created = store.put(RECIPE, PAYLOAD)
        assert not created
        assert path2 == path
        assert path.read_text() == before

    def test_overwrite_rewrites(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(RECIPE, PAYLOAD)
        _, _, created = store.put(
            RECIPE, {"metrics": {"a": 2.0}}, overwrite=True
        )
        assert created
        assert store.fetch(RECIPE)["metrics"]["a"] == 2.0

    def test_corrupt_blob_reads_as_miss_and_is_rewritten(self, tmp_path):
        store = ResultStore(tmp_path)
        key, path, _ = store.put(RECIPE, PAYLOAD)
        path.write_text("{ not json")
        assert store.get(key) is None
        _, _, created = store.put(RECIPE, PAYLOAD)
        assert created
        assert store.get(key) == PAYLOAD

    def test_key_mismatch_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key, path, _ = store.put(RECIPE, PAYLOAD)
        blob = json.loads(path.read_text())
        blob["key"] = "deadbeefdeadbeef"
        path.write_text(json.dumps(blob))
        assert store.get(key) is None

    def test_non_finite_payload_rejected_at_write(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="non-finite"):
            store.put(RECIPE, {"metrics": {"slowdown": float("inf")}})
        assert store.fetch(RECIPE) is None


class TestIndex:
    def test_alias_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key, _, _ = store.put(
            RECIPE, PAYLOAD, name="run_a", kind="scenario",
            meta={"seed": 0},
        )
        entry = store.latest("run_a")
        assert entry["key"] == key
        assert entry["kind"] == "scenario"
        assert entry["meta"] == {"seed": 0}
        assert entry["timestamp"]
        assert entry["git_sha"]
        assert store.names(kind="scenario") == ["run_a"]

    def test_two_recipes_one_name_both_retrievable(self, tmp_path):
        """The overwrite bug fix: names alias, content keys identify."""
        store = ResultStore(tmp_path)
        key0, _, _ = store.put(
            {**RECIPE, "seed": 0}, {"seed": 0}, name="run"
        )
        key1, _, _ = store.put(
            {**RECIPE, "seed": 1}, {"seed": 1}, name="run"
        )
        assert key0 != key1
        assert store.get(key0) == {"seed": 0}
        assert store.get(key1) == {"seed": 1}
        assert [e["key"] for e in store.entries(name="run")] == [key0, key1]
        assert store.latest("run")["key"] == key1

    def test_realiasing_same_key_does_not_duplicate(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(RECIPE, PAYLOAD, name="run")
        store.put(RECIPE, PAYLOAD, name="run")
        assert len(store.entries(name="run")) == 1

    def test_corrupt_alias_reads_absent_and_rebuilds(self, tmp_path):
        store = ResultStore(tmp_path)
        key, _, _ = store.put(RECIPE, PAYLOAD, name="run")
        [alias_file] = store.aliases_dir.glob("*.json")
        store.put({**RECIPE, "v": 2}, PAYLOAD, name="run2")
        alias_file.write_text("not json at all")
        assert store.latest("run") is None
        assert store.names() == ["run2"]  # the other alias still reads
        assert store.get(key) == PAYLOAD  # blobs survive alias loss
        store.put(RECIPE, PAYLOAD, name="run")
        assert store.names() == ["run2", "run"]
        assert store.latest("run")["key"] == key


class TestAliasFiles:
    """One file per alias: no lock, no read-modify-write, no growth."""

    ALIAS_WRITER = """
        import sys, time
        from pathlib import Path
        from repro.results.store import ResultStore
        root, tag, go = sys.argv[1], sys.argv[2], Path(sys.argv[3])
        store = ResultStore(root)
        print("ready", flush=True)
        while not go.exists():
            time.sleep(0.001)
        for i in range(200):
            store.alias(f"{tag}/{i:03d}", f"{i:016x}", "result")
    """

    def test_concurrent_writers_keep_every_alias(self, tmp_path):
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        go = tmp_path / "go"
        children = [
            subprocess.Popen(
                [sys.executable, "-c", textwrap.dedent(self.ALIAS_WRITER),
                 str(tmp_path / "store"), tag, str(go)],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for tag in ("a", "b")
        ]
        try:
            for child in children:
                assert child.stdout.readline().strip() == "ready"
            go.touch()
            for child in children:
                assert child.wait(timeout=60) == 0
        finally:
            for child in children:
                child.kill()
                child.wait()
                child.stdout.close()
        store = ResultStore(tmp_path / "store")
        names = store.names()
        assert len(names) == 400
        assert set(names) == {
            f"{tag}/{i:03d}" for tag in ("a", "b") for i in range(200)
        }
        assert store.stats()["index_entries"] == 400

    def test_named_put_cost_does_not_grow_with_the_store(
        self, tmp_path, monkeypatch
    ):
        from repro.results import store as store_mod

        writes = []
        real_write = store_mod.atomic_write_text

        def recording_write(path, text):
            writes.append((Path(path), len(text)))
            real_write(path, text)

        monkeypatch.setattr(store_mod, "atomic_write_text", recording_write)
        store = ResultStore(tmp_path)
        alias_writes = {}
        for i in range(1, 501):
            writes.clear()
            store.put({"kind": "t", "n": i}, {"x": i}, name=f"pt/{i:03d}")
            alias_writes[i] = [
                size for path, size in writes
                if path.parent == store.aliases_dir
            ]
            assert len(writes) == 2  # the blob and its one alias file
        assert len(alias_writes[1]) == len(alias_writes[500]) == 1
        assert alias_writes[1] == alias_writes[500]
        assert store.stats()["index_entries"] == 500

    def write_legacy_index(self, store, entries):
        (store.root / "index.json").write_text(json.dumps(
            {"version": STORE_VERSION, "entries": entries}, indent=2
        ))

    def legacy_store(self, tmp_path):
        """Three blobs put without aliases, named by an old index.json."""
        store = ResultStore(tmp_path)
        keys = [
            store.put({"kind": "t", "n": n}, {"x": n})[0] for n in range(3)
        ]
        entries = [
            {"name": name, "key": keys[n], "kind": "t",
             "timestamp": "2026-01-01T00:00:00Z", "git_sha": "abc1234"}
            for name, n in (("late", 2), ("early", 0), ("mid", 1))
        ]
        self.write_legacy_index(store, entries)
        return keys, entries

    def test_legacy_index_folds_into_alias_files(self, tmp_path):
        keys, entries = self.legacy_store(tmp_path)
        store = ResultStore(tmp_path)
        assert store.names() == ["late", "early", "mid"]
        assert store.latest("early")["key"] == keys[0]
        assert not (tmp_path / "index.json").exists()
        assert len(list(store.aliases_dir.glob("*.json"))) == 3
        report = store.gc(blob_grace_s=0)
        assert report.unreferenced_blobs == []
        for key in keys:
            assert store.get(key) is not None
        # A later alias sorts after every folded entry.
        store.alias("newest", keys[0], "t")
        assert store.names()[-1] == "newest"

    def test_legacy_gc_first_keeps_every_named_blob(self, tmp_path):
        keys, _entries = self.legacy_store(tmp_path)
        report = ResultStore(tmp_path).gc(blob_grace_s=0)
        assert report.unreferenced_blobs == []
        assert report.live_blobs == 3

    def test_folding_twice_writes_the_same_files(self, tmp_path):
        keys, entries = self.legacy_store(tmp_path)
        first = ResultStore(tmp_path)
        first.entries()
        files = {
            path.name: path.read_text()
            for path in first.aliases_dir.glob("*.json")
        }
        # A second process folding the same old index writes the same
        # files, so a fold racing another one changes nothing.
        self.write_legacy_index(first, entries)
        second = ResultStore(tmp_path)
        assert second.names() == ["late", "early", "mid"]
        assert {
            path.name: path.read_text()
            for path in second.aliases_dir.glob("*.json")
        } == files


class TestScenarioStoreIntegration:
    def test_distinct_seeds_are_distinct_artifacts(self, tmp_path):
        spec = colocated()
        [(_, path0, _)] = run_scenarios_cached(
            [spec], tmp_path, n_requests=REQUESTS, seed=0
        )
        [(_, path1, _)] = run_scenarios_cached(
            [spec], tmp_path, n_requests=REQUESTS, seed=1
        )
        assert path0 != path1
        assert path0.is_file() and path1.is_file()
        store = store_for(tmp_path)
        keys = {e["key"] for e in store.entries(name=spec.name)}
        assert len(keys) == 2
        for seed, key in ((0, path0.stem), (1, path1.stem)):
            assert store.get(key) is not None
            assert store.recipe(key)["seed"] == seed

    def test_shared_baseline_leg_stored_once(self, tmp_path, monkeypatch):
        """N scenarios with identical victim sides share one baseline
        blob, and only the legs not yet stored are simulated: two in
        one batch-tier call, then one on its own."""
        from repro.distrib import worker
        from repro.sim import batch

        simulated = []
        real_build, real_batch = worker.build_simulator, batch.simulate_batch

        def counting_build(recipe):
            simulated.append(1)
            return real_build(recipe)

        def counting_batch(points, **kwargs):
            simulated.append(len(points))
            return real_batch(points, **kwargs)

        monkeypatch.setattr(worker, "build_simulator", counting_build)
        monkeypatch.setattr(batch, "simulate_batch", counting_batch)
        hammer, dwell = colocated("hammer"), colocated("dwell")
        assert hammer.baseline().recipe() == dwell.baseline().recipe()
        run_scenarios_cached([hammer], tmp_path, n_requests=REQUESTS)
        run_scenarios_cached([dwell], tmp_path, n_requests=REQUESTS)
        assert simulated == [2, 1]  # dwell reuses hammer's baseline leg
        store = store_for(tmp_path)
        baseline_key = content_key(
            sweep_task_recipe(hammer.baseline().recipe(), REQUESTS, 0)
        )
        scenarios = store.entries(kind="scenario")
        assert {e["name"] for e in scenarios} == {
            "small_hammer", "small_dwell"
        }
        legs = {e["key"] for e in store.entries(kind="sweep-task")}
        # Two scenario legs and one shared baseline leg: three blobs,
        # each indexed directly.
        assert legs == {e["key"] for e in scenarios} | {baseline_key}
        assert len(legs) == 3
        assert store.stats()["blobs"] == 3
        assert store.recipe(baseline_key)["kind"] == "sweep-task"

    def test_recipe_is_explicit_fields_not_repr(self):
        recipe = sweep_task_recipe(colocated().recipe(), REQUESTS, 0)
        text = canonical_json(recipe)
        assert "ScenarioSpec(" not in text
        assert recipe["scenario"]["system"]["n_cores"] == 2
        assert recipe["scenario"]["defense"]["tracker"] == "graphene"
        assert recipe["scenario"]["cores"][1]["kind"] == "attacker"
        assert recipe["n_requests"] == REQUESTS

    def test_sweep_and_request_reuse_the_scenario_legs(
        self, tmp_path, monkeypatch
    ):
        """A scenario run stores the very blobs a sweep or a served
        request of the same point reads: neither builds a simulator."""
        from repro.distrib import worker
        from repro.distrib.coordinator import run_serial_sweep, shard_points
        from repro.distrib.queue import FileWorkQueue
        from repro.serve.engine import RequestEngine
        from repro.serve.journal import RequestJournal

        spec = colocated()
        [(report, path, cached)] = run_scenarios_cached(
            [spec], tmp_path, n_requests=REQUESTS, seed=3
        )
        assert not cached
        store = store_for(tmp_path)
        assert store.stats()["blobs"] == 2  # scenario leg + baseline leg

        def no_simulator(recipe):
            raise AssertionError("a stored point was simulated again")

        monkeypatch.setattr(worker, "build_simulator", no_simulator)
        outcome = run_serial_sweep(
            shard_points([spec, spec.baseline()], REQUESTS, 3), store
        )
        assert outcome.task_ids[0] == path.stem
        assert outcome.results[0].elapsed_cycles == (
            report.result.elapsed_cycles
        )
        engine = RequestEngine(
            store, FileWorkQueue(tmp_path / "queue"),
            RequestJournal(tmp_path / "journal"),
        )
        entry, disposition = engine.submit(
            sweep_task_recipe(spec.recipe(), REQUESTS, 3)
        )
        assert disposition == "hit"
        assert entry.key == path.stem
        assert store.stats()["blobs"] == 2

    def test_scenario_legs_match_a_serial_sweep_byte_for_byte(
        self, tmp_path
    ):
        """The SweepRunner that simulates a scenario's legs and the
        worker's simulator builder write one blob for one recipe."""
        from repro.distrib.coordinator import run_serial_sweep, shard_points

        spec = colocated()
        run_scenarios_cached([spec], tmp_path / "a", n_requests=REQUESTS)
        swept = store_for(tmp_path / "b")
        outcome = run_serial_sweep(
            shard_points([spec, spec.baseline()], REQUESTS, 0), swept
        )
        scenario_store = store_for(tmp_path / "a")
        for key in outcome.task_ids:
            assert canonical_json(scenario_store.get(key)) == (
                canonical_json(swept.get(key))
            )

    def test_cache_hit_rebuilds_a_lost_index(self, tmp_path):
        spec = colocated()
        run_scenarios_cached([spec], tmp_path, n_requests=REQUESTS)
        store = store_for(tmp_path)
        before = {(e["name"], e["key"], e["kind"]) for e in store.entries()}
        shutil.rmtree(store.aliases_dir)
        [(_, _, cached)] = run_scenarios_cached(
            [spec], tmp_path, n_requests=REQUESTS
        )
        assert cached  # blobs are the durable layer ...
        # ... and the hit re-records the preset and both leg aliases.
        assert {
            (e["name"], e["key"], e["kind"]) for e in store.entries()
        } == before
        assert len(before) == 3

    def test_no_temp_files_linger(self, tmp_path):
        run_scenarios_cached([colocated()], tmp_path, n_requests=REQUESTS)
        assert not list((tmp_path / "store").rglob("*.tmp"))


class TestOrchestratorCacheParity:
    """The store-backed cache keeps the pre-refactor layer's contract."""

    def make(self, tmp_path, **kwargs):
        defaults = dict(results_dir=tmp_path, jobs=1, n_requests=40)
        defaults.update(kwargs)
        return Orchestrator(**defaults)

    def test_miss_then_hit_then_force(self, tmp_path):
        first = self.make(tmp_path).run(only=["table1"])
        assert [o.cached for o in first.outcomes] == [False]
        second = self.make(tmp_path).run(only=["table1"])
        assert [o.cached for o in second.outcomes] == [True]
        assert second.outcomes[0].result == first.outcomes[0].result
        forced = self.make(tmp_path, force=True).run(only=["table1"])
        assert [o.cached for o in forced.outcomes] == [False]

    def test_option_change_is_a_new_blob_not_an_overwrite(self, tmp_path):
        self.make(tmp_path, n_requests=40).run(only=["table1"])
        self.make(tmp_path, n_requests=41).run(only=["table1"])
        store = store_for(tmp_path)
        entries = store.entries(name="table1", kind="experiment")
        assert len({e["key"] for e in entries}) == 2
        for entry in entries:
            assert store.get(entry["key"]) is not None
        # The older options still hit their own cache entry.
        again = self.make(tmp_path, n_requests=40).run(only=["table1"])
        assert [o.cached for o in again.outcomes] == [True]

    def test_shares_one_store_with_scenarios(self, tmp_path):
        self.make(tmp_path).run(only=["table1"])
        run_scenarios_cached([colocated()], tmp_path, n_requests=REQUESTS)
        store = store_for(tmp_path)
        kinds = {e["kind"] for e in store.entries()}
        assert {"experiment", "scenario", "sweep-task"} <= kinds

    def test_recipe_carries_version_and_options(self, tmp_path):
        recipe = experiment_recipe("table1", {"quick": True})
        assert recipe["kind"] == "experiment"
        assert recipe["artifact_version"] >= 1
        assert recipe["options"] == {"quick": True}


class TestReport:
    def fill(self, root, seed):
        run_scenarios_cached(
            [colocated()], root, n_requests=REQUESTS, seed=seed
        )

    def test_compare_two_stores(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self.fill(a, 0)
        self.fill(b, 1)
        rows, only_a, only_b, mismatched = compare_stores(
            resolve_store(a), resolve_store(b)
        )
        assert only_a == [] and only_b == []
        metrics = {row["metric"] for row in rows}
        assert "victim_slowdown" in metrics
        assert "attacker_act_rate_per_cycle" in metrics
        for row in rows:
            assert row["scenario"] == "small_hammer"
        # Different seeds are a run-shape mismatch worth flagging.
        assert [m["scenario"] for m in mismatched] == ["small_hammer"]
        assert mismatched[0]["meta_a"] == {"n_requests": REQUESTS,
                                           "seed": 0}
        assert mismatched[0]["meta_b"] == {"n_requests": REQUESTS,
                                           "seed": 1}

    def test_same_shape_runs_are_not_flagged(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self.fill(a, 0)
        self.fill(b, 0)
        rows, _, _, mismatched = compare_stores(
            resolve_store(a), resolve_store(b)
        )
        assert rows and mismatched == []

    def test_resolve_store_accepts_dir_or_root(self, tmp_path):
        self.fill(tmp_path, 0)
        via_dir = resolve_store(tmp_path)
        via_root = resolve_store(tmp_path / "store")
        assert via_dir.root == via_root.root

    def test_empty_stores_are_not_comparable(self, tmp_path):
        rows, _, _, _ = compare_stores(
            resolve_store(tmp_path / "x"), resolve_store(tmp_path / "y")
        )
        assert rows == []


class TestStoreStats:
    def test_stats_counts_blobs_bytes_and_index(self, tmp_path):
        store = store_for(tmp_path)
        assert store.stats() == {
            "blobs": 0, "blob_bytes": 0, "index_entries": 0,
        }
        store.put({"kind": "t", "n": 1}, {"x": 1}, name="a", kind="t")
        store.put({"kind": "t", "n": 2}, {"x": 2}, name="b", kind="t")
        stats = store.stats()
        assert stats["blobs"] == 2
        assert stats["index_entries"] == 2
        assert stats["blob_bytes"] == sum(
            p.stat().st_size for p in store.objects_dir.glob("*.json")
        )


class TestGCReportJson:
    def test_to_json_names_every_reclaimable_item(self, tmp_path):
        store = store_for(tmp_path)
        key, _path, _created = store.put(
            {"kind": "t", "n": 1}, {"x": 1}, name="a", kind="t"
        )
        store.unalias("a")
        report = store.gc(dry_run=True, blob_grace_s=0.0)
        doc = report.to_json()
        assert doc["dry_run"] is True
        assert doc["unreferenced_blobs"] == [{
            "key": key,
            "bytes": store.blob_path(key).stat().st_size,
        }]
        assert doc["stale_tmp"] == []
        assert doc["live_blobs"] == 0
        assert doc["reclaimable_bytes"] > 0
        json.dumps(doc)   # round-trippable, no Path objects leak
