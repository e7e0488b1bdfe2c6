"""Tests for the scenario subsystem (spec, registry, runner)."""

import dataclasses
import json

import pytest

from repro.experiments.common import SweepRunner
from repro.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    get_scenario,
    is_scenario,
    run_scenario,
    run_scenarios_cached,
    scenario_names,
)
from repro.distrib.worker import sweep_task_recipe
from repro.results import store_for
from repro.results.store import content_key
from repro.scenarios.run import ScenarioReport
from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.stats import SimResult
from repro.sim.system import simulate_workload
from repro.workloads.sources import (
    AttackerSource,
    IdleSource,
    ProfileSource,
)

SMALL = SystemConfig(n_cores=2, banks_per_channel=8)
DEFENSE = DefenseConfig(tracker="graphene", scheme="impress-p")
REQUESTS = 120


def leg_key(spec, n_requests, seed):
    """The content key of a scenario leg's ``sweep-task`` blob."""
    return content_key(sweep_task_recipe(spec.recipe(), n_requests, seed))


def small_colocated(defense=DEFENSE):
    return ScenarioSpec.colocated(
        "small", "mcf",
        attackers=(AttackerSource("hammer", bank=2, rows=(50, 52)),),
        system=SMALL, defense=defense,
    )


class TestScenarioSpec:
    def test_hashable_value(self):
        a = small_colocated()
        b = small_colocated()
        assert a == b
        assert hash(a) == hash(b)

    def test_named_workload_validated(self):
        with pytest.raises(KeyError):
            ScenarioSpec(name="x", cores="not_a_workload", system=SMALL)

    def test_source_count_must_match_cores(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x", cores=(ProfileSource("mcf"),), system=SMALL
            )

    def test_attacker_bank_must_exist(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x",
                cores=(ProfileSource("mcf"),
                       AttackerSource("hammer", bank=64)),
                system=SMALL,
            )

    def test_colocated_needs_a_victim(self):
        with pytest.raises(ValueError):
            ScenarioSpec.colocated(
                "x", "mcf",
                attackers=(AttackerSource("hammer", bank=0),
                           AttackerSource("hammer", bank=1)),
                system=SMALL,
            )

    def test_attacker_cores_and_benign(self):
        spec = small_colocated()
        assert spec.attacker_cores() == (1,)
        assert not spec.is_benign()
        assert ScenarioSpec.benign("mcf", system=SMALL).is_benign()

    def test_sweep_point_canonicalizes_named_workloads(self):
        spec = ScenarioSpec.benign(
            "mcf", system=SMALL, defense=DEFENSE, tmro_ns=96.0
        )
        assert spec.sweep_point() == ("mcf", DEFENSE, 96.0)

    def test_baseline_idles_attackers_only(self):
        spec = small_colocated()
        baseline = spec.baseline()
        assert baseline.cores[0] == ProfileSource("mcf")
        assert baseline.cores[1] == IdleSource()
        assert baseline.defense == spec.defense
        assert baseline.attacker_cores() == ()

    def test_benign_baseline_is_itself(self):
        spec = ScenarioSpec.benign("mcf", system=SMALL)
        assert spec.baseline() is spec

    def test_with_defense_replaces_defense_point(self):
        other = DefenseConfig(tracker="para", scheme="no-rp")
        spec = small_colocated().with_defense(other, tmro_ns=96.0)
        assert spec.defense == other
        assert spec.tmro_ns == 96.0
        assert spec.cores == small_colocated().cores

    def test_core_summary_groups_runs(self):
        assert small_colocated().core_summary() == "mcf + hammer@b2"
        spec = ScenarioSpec.colocated(
            "x", "mcf",
            attackers=(AttackerSource("hammer", bank=2),),
            system=SystemConfig(n_cores=4, banks_per_channel=8),
        )
        assert spec.core_summary() == "3x mcf + hammer@b2"

    def test_mix_splits_victims_like_rate_mode(self):
        spec = ScenarioSpec.colocated(
            "x", "add_copy",
            attackers=(AttackerSource("hammer", bank=2),),
            system=SystemConfig(n_cores=8, banks_per_channel=8),
        )
        profiles = [s.profile for s in spec.cores[:-1]]
        # Rate mode over 8 cores: 4x add then 4x copy; the attacker
        # displaces the last copy core.
        assert profiles == ["add"] * 4 + ["copy"] * 3


class TestRecipeProperties:
    """Seeded property tests over randomly generated ScenarioSpecs.

    The fuzzer's generator doubles as the property-test generator: its
    specs cover phased attackers, mixed topologies and every defense
    kind, so these four invariants of :meth:`ScenarioSpec.recipe` hold
    across the whole reachable spec space, not just the presets.
    """

    def _random_specs(self, seed, count=12, mutations=2):
        import random as random_module

        from repro.scenarios.fuzz import mutate_spec, random_spec

        rng = random_module.Random(seed)
        specs = []
        for index in range(count):
            spec = random_spec(rng, index)
            for _ in range(mutations):
                spec = mutate_spec(rng, spec)
            specs.append(spec)
        return specs

    def test_recipe_is_stable_per_spec(self):
        for spec in self._random_specs(seed=101):
            assert spec.recipe() == spec.recipe()
            # Regeneration from the same seed produces the same recipe.
        first = [s.recipe() for s in self._random_specs(seed=7)]
        second = [s.recipe() for s in self._random_specs(seed=7)]
        assert first == second

    def test_recipe_round_trips(self):
        from repro.scenarios import spec_from_recipe

        for spec in self._random_specs(seed=202):
            rebuilt = spec_from_recipe(spec.recipe(), name=spec.name)
            assert rebuilt.recipe() == spec.recipe()
            assert rebuilt.cores == spec.cores
            assert rebuilt.system == spec.system
            assert rebuilt.defense == spec.defense

    def test_recipe_is_rename_invariant(self):
        for spec in self._random_specs(seed=303, count=8):
            renamed = dataclasses.replace(
                spec, name="renamed", description="something else"
            )
            assert renamed.recipe() == spec.recipe()
            assert (
                leg_key(renamed, REQUESTS, 0) == leg_key(spec, REQUESTS, 0)
            )

    def test_recipe_key_is_canonical_json_deterministic(self):
        from repro.results.store import canonical_json, content_key

        for spec in self._random_specs(seed=404, count=8):
            recipe = spec.recipe()
            # The recipe is strict JSON data: serializing and reloading
            # it changes nothing, so the content key is reproducible
            # from the stored blob alone.
            reloaded = json.loads(canonical_json(recipe))
            assert reloaded == recipe
            assert content_key(reloaded) == content_key(recipe)
            # Key order never matters.
            shuffled = dict(reversed(list(recipe.items())))
            assert content_key(shuffled) == content_key(recipe)


class TestBenignEquivalence:
    """A benign ScenarioSpec is bit-identical to the legacy path."""

    def test_explicit_sources_match_legacy_single_workload(self):
        legacy = simulate_workload(
            "mcf", DEFENSE, SMALL, n_requests_per_core=REQUESTS
        )
        spec = ScenarioSpec(
            name="explicit",
            cores=(ProfileSource("mcf"), ProfileSource("mcf")),
            system=SMALL,
            defense=DEFENSE,
        )
        scenario = simulate_workload(
            spec.cores, DEFENSE, SMALL, n_requests_per_core=REQUESTS
        )
        assert dataclasses.asdict(scenario) == dataclasses.asdict(legacy)

    def test_mix_sources_match_legacy_mix(self):
        legacy = simulate_workload(
            "add_copy", None, SMALL, n_requests_per_core=REQUESTS
        )
        scenario = simulate_workload(
            (ProfileSource("add"), ProfileSource("copy")),
            None, SMALL, n_requests_per_core=REQUESTS,
        )
        assert dataclasses.asdict(scenario) == dataclasses.asdict(legacy)

    def test_named_spec_shares_cache_entry_with_legacy_run(self):
        runner = SweepRunner(system=SMALL, n_requests=REQUESTS)
        spec = ScenarioSpec.benign("mcf", system=SMALL, defense=DEFENSE)
        via_spec = runner.run_many([spec])[0]
        assert runner.run("mcf", DEFENSE) is via_spec  # cache hit


class TestRegistry:
    def test_names_and_lookup(self):
        names = scenario_names()
        assert "colocated_hammer_mcf" in names
        for name in names:
            assert is_scenario(name)
            assert get_scenario(name).name == name
        assert not is_scenario("mcf")

    def test_unknown_scenario_raises_with_choices(self):
        with pytest.raises(KeyError, match="colocated_hammer_mcf"):
            get_scenario("nope")

    def test_presets_cover_the_attack_families(self):
        patterns = set()
        for spec in SCENARIOS.values():
            sources = spec.sources() or ()
            patterns.update(
                source.pattern for source in sources
                if isinstance(source, AttackerSource)
            )
        assert patterns >= {
            "hammer", "k_sided", "dwell", "decoy", "refresh_sync"
        }

    def test_presets_are_simulable_values(self):
        for spec in SCENARIOS.values():
            hash(spec)
            spec.baseline()
            workload, defense, tmro = spec.sweep_point()
            assert isinstance(workload, (str, tuple))

    def test_multi_attacker_preset_has_four_attackers(self):
        spec = get_scenario("multi_attacker_saturation")
        assert len(spec.attacker_cores()) == 4


class TestRunScenario:
    def test_report_carries_security_metrics(self):
        report = run_scenario(small_colocated(), n_requests=REQUESTS)
        assert report.victim_slowdown is not None
        assert report.victim_slowdown > 0.5
        assert report.attacker_act_rate > 0
        assert report.attacker_acts_per_sec > 0
        payload = report.to_json()
        assert payload["attacker_cores"] == [1]
        assert payload["metrics"]["victim_slowdown"] == (
            report.victim_slowdown
        )

    def test_benign_scenario_reports_no_attack_metrics(self):
        report = run_scenario(
            ScenarioSpec.benign("mcf", system=SMALL), n_requests=REQUESTS
        )
        assert report.victim_slowdown is None
        assert report.attacker_act_rate is None

    def test_preset_runs_by_name(self):
        report = run_scenario("colocated_hammer_mcf", n_requests=60)
        assert report.spec.name == "colocated_hammer_mcf"
        assert report.victim_slowdown is not None

    def test_artifact_cache_roundtrip(self, tmp_path):
        spec = small_colocated()
        [(report, path, cached)] = run_scenarios_cached(
            [spec], tmp_path, n_requests=REQUESTS
        )
        assert not cached
        assert path.is_file()
        [(again, path2, cached2)] = run_scenarios_cached(
            [spec], tmp_path, n_requests=REQUESTS
        )
        assert cached2 and path2 == path
        assert again.to_json() == report.to_json()
        # A different recipe misses; force re-simulates.
        [(_, _, cached3)] = run_scenarios_cached(
            [spec], tmp_path, n_requests=REQUESTS + 1
        )
        assert not cached3
        [(_, _, cached4)] = run_scenarios_cached(
            [spec], tmp_path, n_requests=REQUESTS + 1, force=True
        )
        assert not cached4

    def test_config_hash_tracks_the_recipe(self):
        spec = small_colocated()
        base = leg_key(spec, 100, 0)
        assert leg_key(spec, 100, 0) == base
        assert leg_key(spec, 200, 0) != base
        assert leg_key(spec, 100, 1) != base
        other = spec.with_defense(None)
        assert leg_key(other, 100, 0) != base

    def test_config_hash_ignores_name_and_description(self):
        """Names are index aliases, not physics: renaming a preset must
        not orphan its artifacts (and baseline legs must dedup across
        differently-named scenarios)."""
        spec = small_colocated()
        renamed = dataclasses.replace(
            spec, name="renamed", description="cosmetic"
        )
        assert leg_key(renamed, 100, 0) == leg_key(spec, 100, 0)

    def test_config_hash_golden(self):
        """The hashing contract, pinned.

        If this fails, the canonical recipe form changed and every
        stored artifact/cache entry is invalidated.  That can be a
        legitimate consequence (e.g. a new field on SystemConfig or
        AttackerSource now rightly enters the recipe) — update the
        golden value then — but it must never happen as a silent side
        effect of a refactor; ``repr``-derived keys did exactly that.
        """
        spec = ScenarioSpec.colocated(
            "golden", "mcf",
            attackers=(AttackerSource("hammer", bank=2, rows=(50, 52)),),
            system=SystemConfig(n_cores=2, banks_per_channel=8),
            defense=DefenseConfig(tracker="graphene", scheme="impress-p"),
        )
        assert leg_key(spec, 100, 0) == "aa93727f7415e017"

    def test_artifact_is_valid_json_with_hash(self, tmp_path):
        spec = small_colocated()
        [(report, path, _)] = run_scenarios_cached(
            [spec], tmp_path, n_requests=REQUESTS
        )
        payload = report.to_json()
        blob = json.loads(path.read_text())
        assert blob["key"] == path.stem == leg_key(spec, REQUESTS, 0)
        assert blob["kind"] == "sweep-task"
        assert blob["payload"] == (
            run_scenario(spec, n_requests=REQUESTS).result.to_json()
        )
        assert payload["scenario"] == "small"
        assert payload["metrics"]["attacker_act_rate_per_cycle"] > 0
        assert payload["stalled_victims"] == []
        names = {entry["name"] for entry in store_for(tmp_path).entries()}
        baseline_key = leg_key(spec.baseline(), REQUESTS, 0)
        assert names == {
            "small", f"sweep/{path.stem}", f"sweep/{baseline_key}"
        }

    def test_stalled_victim_serializes_as_null_with_flag(self):
        """An infinite slowdown must never reach JSON as ``Infinity``."""
        spec = small_colocated()
        stalled = SimResult(
            elapsed_cycles=1000, core_cycles=[1000, 1000],
            core_requests=[0, 80], core_demand_acts=[0, 40],
        )
        baseline = SimResult(
            elapsed_cycles=1000, core_cycles=[500, 0],
            core_requests=[80, 0], core_demand_acts=[40, 0],
        )
        report = ScenarioReport(
            spec=spec, result=stalled, baseline=baseline,
            n_requests=80, seed=0,
        )
        assert report.victim_slowdown == float("inf")
        assert report.stalled_victims == (0,)
        payload = report.to_json()
        assert payload["metrics"]["victim_slowdown"] is None
        assert payload["stalled_victims"] == [0]
        text = json.dumps(payload, allow_nan=False)  # strict JSON
        assert "Infinity" not in text

    def test_store_rejects_non_finite_metrics(self, tmp_path):
        store = store_for(tmp_path)
        with pytest.raises(ValueError, match="non-finite"):
            store.put(
                {"kind": "scenario-run", "x": 1},
                {"metrics": {"victim_slowdown": float("inf")}},
            )
