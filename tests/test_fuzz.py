"""Scenario fuzzer: deterministic discovery, shrinking, replayable repros.

The contracts pinned here:

* **Determinism** — one seed produces identical candidates, failure
  signatures, shrunk reproducers and store keys on every invocation.
* **No false positives** — a fixed-seed budget on the clean tree runs
  violation-free in both engines.
* **Planted fault found** — under the ``lax-tmro`` fault the fuzzer
  finds a ``tmro-deadline`` failure, shrinks it to a minimal
  reproducer, stores it content-addressed, and the stored blob replays
  to the same violation (re-injecting the fault from its recipe).
* **Recipe inverses** — sources and specs round-trip through their
  recipe dicts, including the new phase-changing attacker.
"""

import random

import pytest

from repro.results.store import ResultStore, content_key
from repro.scenarios import fuzz as fuzz_module
from repro.scenarios.fuzz import (
    DEFAULT_FUZZ_REQUESTS,
    MIN_SHRINK_REQUESTS,
    Act,
    Divergence,
    _kind,
    check_scenario,
    first_divergence,
    fuzz,
    fuzz_repro_recipe,
    mutate_spec,
    random_spec,
    replay_reproducer,
    reproducer_spec,
)
from repro.scenarios.spec import ScenarioSpec, spec_from_recipe
from repro.security import faults
from repro.sim.config import DefenseConfig, SystemConfig
from repro.workloads.sources import (
    AttackerSource,
    IdleSource,
    PhasedAttackerSource,
    ProfileSource,
    is_attacker,
    source_from_recipe,
)

#: The fixed seed/budget pair the planted-fault tests (and the CI
#: fuzz-smoke job) rely on: candidate 3 of seed 0 is an ExPress dwell
#: scenario that trips ``tmro-deadline`` under the ``lax-tmro`` fault.
SMOKE_SEED = 0
SMOKE_BUDGET = 6


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    faults.clear()
    yield
    faults.clear()


def _failure_fingerprint(report):
    return [
        (
            f.candidate,
            f.signature,
            f.spec.recipe()["cores"],
            f.n_requests,
            f.shrink_steps,
            f.violations,
            f.store_key,
        )
        for f in report.failures
    ]


class TestDeterminism:
    def test_two_invocations_are_identical(self, tmp_path):
        reports = []
        for invocation in range(2):
            store = ResultStore(tmp_path / f"store{invocation}")
            with faults.injected("lax-tmro"):
                reports.append(
                    fuzz(SMOKE_SEED, SMOKE_BUDGET, store=store)
                )
        first, second = reports
        assert _failure_fingerprint(first) == _failure_fingerprint(second)
        assert first.failures  # the planted fault was found both times

    def test_generation_is_seed_stable(self):
        a = random_spec(random.Random(42), 0)
        b = random_spec(random.Random(42), 0)
        assert a.recipe() == b.recipe()
        assert a.recipe() != random_spec(random.Random(43), 0).recipe()


class TestCleanTree:
    def test_fixed_seed_budget_is_violation_free(self):
        report = fuzz(SMOKE_SEED, SMOKE_BUDGET)
        assert report.ok, _failure_fingerprint(report)
        assert report.candidates == SMOKE_BUDGET

    def test_preset_scenario_checks_clean(self):
        spec = ScenarioSpec.colocated(
            "check_clean",
            "mcf",
            (AttackerSource(pattern="hammer", bank=2),),
            system=SystemConfig(n_cores=2, banks_per_channel=8),
            defense=DefenseConfig(tracker="graphene", scheme="impress-p"),
        )
        outcome = check_scenario(spec, n_requests=100)
        assert outcome.ok
        assert outcome.divergence is None

    def test_engines_agree_so_no_act_differs(self):
        spec = random_spec(random.Random(1), 0)
        assert first_divergence(
            spec.system, spec.cores, spec.defense, spec.tmro_ns, 80
        ) is None


class TestKnownDivergence:
    def test_divergence_is_found_located_and_stored(self, tmp_path):
        """Seed 11's candidate 46 diverges on the clean tree; the shrunk
        reproducer's payload names the first differing ACT."""
        store = ResultStore(tmp_path / "store")
        report = fuzz(11, 47, store=store)
        assert [f.signature for f in report.failures] == [
            ("engine-divergence",)
        ]
        failure = report.failures[0]
        assert failure.first_divergence.startswith(
            "first differing ACT: channel 0, bank 3, "
        )
        payload = store.get(failure.store_key)
        assert payload["first_divergence"] == failure.first_divergence
        _, _, located = replay_reproducer(store, failure.store_key)
        assert located == failure.first_divergence


@pytest.mark.parametrize("fast, reference, kind", [
    (Act(5, 1, 0, ((2, 1),)), Act(5, 2, 1, ((1, 0),)), "queue-order"),
    (Act(5, 1, 0, ((3, 1),)), Act(5, 2, 1, ((1, 0),)), "row"),
    (Act(5, 1, 0, ()), Act(9, 1, 0, ()), "cycle"),
    (Act(5, 1, 0, ()), None, "extra-act"),
])
def test_divergence_kinds(fast, reference, kind):
    assert _kind(fast, reference) == kind
    assert Divergence(0, 2, 5, kind, fast, reference).describe().startswith(
        f"first differing ACT: channel 0, bank 2, cycle 5 ({kind}): "
        "fast opens core 0's row 1 @ 5; reference opens "
    )


class TestPlantedFault:
    def _fuzz_with_fault(self, store=None):
        with faults.injected("lax-tmro"):
            return fuzz(SMOKE_SEED, SMOKE_BUDGET, store=store)

    def test_fault_is_found_and_shrunk(self):
        report = self._fuzz_with_fault()
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.signature == ("tmro-deadline",)
        # Shrinking made real progress: fewer requests, idle victims.
        assert failure.n_requests < DEFAULT_FUZZ_REQUESTS
        assert failure.n_requests >= MIN_SHRINK_REQUESTS
        assert failure.shrink_steps
        assert any(
            isinstance(source, IdleSource) for source in failure.spec.cores
        )

    def test_each_failure_is_checked_once_plus_its_shrink(self, monkeypatch):
        # The shrunk spec's verdict is the check shrink accepted last;
        # fuzz() must not run it again.
        calls = []
        real = fuzz_module.check_scenario

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(fuzz_module, "check_scenario", counting)
        report = self._fuzz_with_fault()
        assert report.failures
        assert len(calls) == SMOKE_BUDGET + sum(
            failure.shrink_evaluations for failure in report.failures
        )

    def test_reproducer_replays_to_same_violation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = self._fuzz_with_fault(store=store)
        key = report.failures[0].store_key
        assert key is not None
        assert store.get(key) is not None
        # Replay re-injects the fault recorded in the recipe — no fault
        # is active here, yet the violation reproduces exactly.
        spec, outcome, located = replay_reproducer(store, key)
        assert outcome.signature == ("tmro-deadline",)
        assert outcome.violations == report.failures[0].violations
        assert located is None

    def test_reproducer_recipe_pins_the_fault(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = self._fuzz_with_fault(store=store)
        failure = report.failures[0]
        _, recipe = reproducer_spec(store, failure.store_key)
        assert recipe["faults"] == ["lax-tmro"]
        # The faulted reproducer and a clean run of the same spec are
        # distinct store identities.
        clean_recipe = fuzz_repro_recipe(
            failure.spec, failure.n_requests, failure.seed
        )
        assert clean_recipe["faults"] == []
        assert content_key(clean_recipe) != failure.store_key

    def test_shrunk_spec_is_emittable_as_preset(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = self._fuzz_with_fault(store=store)
        key = report.failures[0].store_key
        spec, _ = reproducer_spec(store, key, name="regression_1")
        assert spec.name == "regression_1"
        # The preset is a plain ScenarioSpec: hashable and re-runnable.
        hash(spec)
        assert spec.recipe() == report.failures[0].spec.recipe()

    def test_missing_key_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(KeyError, match="no fuzz reproducer"):
            reproducer_spec(store, "deadbeefdeadbeef")


class TestPhasedAttacker:
    def _phased(self):
        return PhasedAttackerSource(
            phases=(
                AttackerSource(pattern="hammer", bank=1),
                AttackerSource(pattern="dwell", bank=3, rows=(8, 10)),
            ),
            phase_len=16,
        )

    def test_build_concatenates_and_truncates(self):
        source = self._phased()
        mapper = SystemConfig(n_cores=1, banks_per_channel=8).mapper()
        trace = source.build(0, 40, 0, mapper)
        assert len(trace) == 40
        # The first phase's requests hit bank 1, the second's bank 3.
        first = mapper.map_address(trace[0].address)
        second = mapper.map_address(trace[16].address)
        assert first.bank == 1
        assert second.bank == 3

    def test_is_attacker_and_validation(self):
        source = self._phased()
        assert is_attacker(source)
        with pytest.raises(ValueError, match="bank"):
            source.validate_for(channels=1, banks_per_channel=2)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="at least one phase"):
            PhasedAttackerSource(phases=())
        with pytest.raises(ValueError, match="phase_len"):
            PhasedAttackerSource(
                phases=(AttackerSource(pattern="hammer"),), phase_len=0
            )
        with pytest.raises(ValueError, match="AttackerSource"):
            PhasedAttackerSource(phases=(IdleSource(),))


class TestRecipeInverses:
    def test_each_source_kind_round_trips(self):
        sources = [
            ProfileSource("mcf"),
            IdleSource(),
            AttackerSource(pattern="k_sided", bank=5, k=3, rows=(4, 6, 8)),
            PhasedAttackerSource(
                phases=(
                    AttackerSource(pattern="decoy", rows=(10, 12)),
                    AttackerSource(pattern="refresh_sync", burst_acts=16),
                ),
                phase_len=32,
            ),
        ]
        for source in sources:
            rebuilt = source_from_recipe(source.recipe())
            assert rebuilt == source
            assert rebuilt.recipe() == source.recipe()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown source recipe"):
            source_from_recipe({"kind": "martian"})

    def test_spec_round_trips_through_recipe(self):
        rng = random.Random(9)
        for index in range(10):
            spec = random_spec(rng, index)
            for _ in range(2):
                spec = mutate_spec(rng, spec)
            rebuilt = spec_from_recipe(spec.recipe(), name=spec.name)
            assert rebuilt.recipe() == spec.recipe()
            assert rebuilt.sweep_point() == spec.sweep_point()

    def test_rate_mode_spec_round_trips(self):
        spec = ScenarioSpec.benign(
            "mcf", defense=DefenseConfig(tracker="para", scheme="impress-p",
                                         trh=100)
        )
        rebuilt = spec_from_recipe(spec.recipe())
        assert rebuilt.recipe() == spec.recipe()
        assert rebuilt.cores == "mcf"


class TestMutationGrammar:
    def test_mutations_keep_specs_valid(self):
        """Every mutated spec still validates and round-trips."""
        rng = random.Random(17)
        spec = random_spec(rng, 0)
        for _ in range(40):
            spec = mutate_spec(rng, spec)
            spec.system.validate_sources(spec.cores)
            assert spec_from_recipe(spec.recipe()).recipe() == spec.recipe()

    def test_mutations_explore_the_space(self):
        """The walk actually moves: topologies and defenses vary."""
        rng = random.Random(3)
        seen_defenses = set()
        seen_topologies = set()
        spec = random_spec(rng, 0)
        for _ in range(60):
            spec = mutate_spec(rng, spec)
            seen_defenses.add(
                None if spec.defense is None else spec.defense.tracker
            )
            seen_topologies.add(
                (spec.system.n_cores, spec.system.channels,
                 spec.system.banks_per_channel)
            )
        assert len(seen_defenses) > 2
        assert len(seen_topologies) > 2
