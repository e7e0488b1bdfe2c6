"""Scenario execution: simulate a spec, report security-aware metrics.

A scenario is two simulated *legs*: the spec and its victim-only
baseline.  :class:`ScenarioReport` is a view over the two legs'
results: victim slowdown and attacker ACT rate next to the usual
counters.  :func:`run_scenario` simulates both legs in one
:class:`~repro.experiments.common.SweepRunner` batch, storing nothing.

:func:`run_scenarios_cached` (``repro scenario run`` and ``repro
scenario sweep``) runs each leg's ``sweep-task`` recipe through
:func:`~repro.distrib.worker.execute_recipes`, the executor of ``repro
sweep`` and ``repro serve``, into the store under
``<results-dir>/store/``: the very blob they and ``repro worker`` write
for that point, so they simulate it once between them and points
sharing a leg store it once.  Each point's name is a ``scenario`` alias
on its scenario leg, from which :func:`stored_report` rebuilds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..distrib.worker import (TASK_KIND, execute_recipes, result_alias,
                              sweep_task_recipe)
from ..results.store import ResultStore, content_key, store_for
from ..sim.metrics import (
    attacker_act_rate,
    stalled_victim_cores,
    victim_slowdown,
)
from ..sim.stats import SimResult
from .registry import get_scenario
from .spec import ScenarioSpec, spec_from_recipe

#: Default requests per core for scenario runs (matches the experiment
#: default, so scenario and figure sweeps share cache entries).
DEFAULT_SCENARIO_REQUESTS = 800


@dataclass
class ScenarioReport:
    """A view over one scenario's two simulated legs: the security
    metrics and counters, recomputed from the results on every read."""

    spec: ScenarioSpec
    result: SimResult
    baseline: SimResult
    n_requests: int
    seed: int

    @property
    def victim_slowdown(self) -> Optional[float]:
        """Mean victim slowdown vs. the idle-attacker baseline
        (None for benign scenarios, which have no attacker leg)."""
        attackers = self.spec.attacker_cores()
        if not attackers:
            return None
        return victim_slowdown(self.result, self.baseline, attackers)

    @property
    def attacker_act_rate(self) -> Optional[float]:
        """Attacker demand ACTs per elapsed DRAM cycle (None if benign)."""
        attackers = self.spec.attacker_cores()
        if not attackers:
            return None
        return attacker_act_rate(self.result, attackers)

    @property
    def attacker_acts_per_sec(self) -> Optional[float]:
        """The ACT rate in activations per wall-clock second of DRAM
        time, via the configured DRAM clock."""
        rate = self.attacker_act_rate
        if rate is None:
            return None
        freq_hz = self.spec.system.timings.clock.freq_ghz * 1e9
        return rate * freq_hz

    @property
    def stalled_victims(self) -> Tuple[int, ...]:
        """Victim cores with zero throughput under attack (their
        slowdown is infinite; empty for benign scenarios)."""
        attackers = self.spec.attacker_cores()
        if not attackers:
            return ()
        return stalled_victim_cores(self.result, attackers)

    def to_json(self) -> dict:
        """The results-artifact payload for this run.

        Strict JSON by construction: a stalled victim makes
        ``victim_slowdown`` infinite, which is serialized as ``null``
        with the stalled cores listed in ``stalled_victims`` (the
        store additionally rejects any non-finite float at write
        time).  The baseline leg's data is *not* inlined: it is a
        store blob of its own, shared by every scenario with the same
        victim side.
        """
        spec = self.spec
        attackers = list(spec.attacker_cores())
        slowdown = self.victim_slowdown
        if slowdown is not None and not math.isfinite(slowdown):
            slowdown = None
        return {
            "scenario": spec.name,
            "description": spec.description,
            "cores": spec.core_summary(),
            "defense": spec.defense_summary(),
            "topology": {
                "n_cores": spec.system.n_cores,
                "channels": spec.system.channels,
                "banks_per_channel": spec.system.banks_per_channel,
            },
            "n_requests": self.n_requests,
            "seed": self.seed,
            "attacker_cores": attackers,
            "stalled_victims": list(self.stalled_victims),
            "metrics": {
                "victim_slowdown": slowdown,
                "attacker_act_rate_per_cycle": self.attacker_act_rate,
                "attacker_acts_per_sec": self.attacker_acts_per_sec,
                "elapsed_cycles": self.result.elapsed_cycles,
                "hit_rate": self.result.hit_rate,
                "demand_acts": self.result.counts.demand_acts,
                "mitigative_acts": self.result.counts.mitigative_acts,
                "rfms": self.result.counts.rfms,
                "energy": self.result.energy().total,
            },
            "core_rates": self.result.core_rates(),
            "core_demand_acts": list(self.result.core_demand_acts),
        }


def _legs(spec_or_name) -> List[ScenarioSpec]:
    """A scenario (by spec or preset name) and its victim-only baseline."""
    spec = (
        get_scenario(spec_or_name)
        if isinstance(spec_or_name, str) else spec_or_name
    )
    return [spec, spec.baseline()]


def _recipes(
    legs: List[ScenarioSpec], n_requests: int, seed: int
) -> List[Dict[str, Any]]:
    return [sweep_task_recipe(leg.recipe(), n_requests, seed) for leg in legs]


def _report(
    spec: ScenarioSpec, payloads: List[Dict[str, Any]], n_requests: int,
    seed: int,
) -> ScenarioReport:
    result, baseline = (SimResult.from_json(p) for p in payloads)
    return ScenarioReport(spec, result, baseline, n_requests, seed)


def run_scenario(
    spec_or_name,
    n_requests: int = DEFAULT_SCENARIO_REQUESTS,
    seed: int = 0,
) -> ScenarioReport:
    """Simulate a scenario (by spec or preset name) plus its baseline."""
    from ..experiments.common import SweepRunner

    legs = _legs(spec_or_name)
    runner = SweepRunner(system=legs[0].system, n_requests=n_requests,
                         seed=seed)
    result, baseline = runner.run_many([leg.sweep_point() for leg in legs])
    return ScenarioReport(legs[0], result, baseline, n_requests, seed)


def run_scenarios_cached(
    points: Sequence,
    results_dir: Path,
    n_requests: int = DEFAULT_SCENARIO_REQUESTS,
    seed: int = 0,
    force: bool = False,
) -> List[Tuple[ScenarioReport, Path, bool]]:
    """Run scenarios (specs or preset names) against the result store.

    Returns one ``(report, scenario leg blob, cached)`` per point,
    ``cached`` when both its legs were stored.  The legs run through
    :func:`~repro.distrib.worker.execute_recipes` (``force``
    re-simulates all).  Hit legs' ``sweep/<key>`` aliases and each
    point's ``scenario`` alias are re-recorded, rebuilding a lost index.
    """
    store = store_for(Path(results_dir))
    pairs = [_legs(point) for point in points]
    recipes = [r for pair in pairs for r in _recipes(pair, n_requests, seed)]
    keys = [content_key(recipe) for recipe in recipes]
    executed = execute_recipes(recipes, store, "scenario", force)
    for key, (_, cached) in dict(zip(keys, executed)).items():
        if cached:
            store.alias(result_alias(key), key, TASK_KIND,
                        {"owner": "scenario"})
    meta = {"n_requests": n_requests, "seed": seed}
    runs = []
    for i, (spec, _) in enumerate(pairs):
        (result, hit), (baseline, baseline_hit) = executed[2 * i:2 * i + 2]
        store.alias(spec.name, keys[2 * i], "scenario", meta)
        runs.append((_report(spec, [result, baseline], n_requests, seed),
                     store.blob_path(keys[2 * i]), hit and baseline_hit))
    return runs


def stored_report(
    store: ResultStore, key: str, name: str
) -> Optional[ScenarioReport]:
    """The report of the scenario leg stored under ``key``, named ``name``.

    None unless ``key`` holds a ``sweep-task`` blob whose baseline leg
    is stored too, so a store written before scenario legs were
    ``sweep-task`` blobs reads as empty.
    """
    recipe = store.recipe(key)
    if recipe is None or recipe.get("kind") != TASK_KIND:
        return None
    legs = _legs(spec_from_recipe(recipe["scenario"], name=name))
    n_requests, seed = recipe["n_requests"], recipe["seed"]
    payloads = [store.fetch(r) for r in _recipes(legs, n_requests, seed)]
    if None in payloads:
        return None
    return _report(legs[0], payloads, n_requests, seed)
