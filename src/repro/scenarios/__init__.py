"""The scenario subsystem: declarative (workloads × attackers ×
topology × defense) points over the paper's design space.

* :mod:`~repro.scenarios.spec` — the frozen, hashable
  :class:`~repro.scenarios.spec.ScenarioSpec` value.
* :mod:`~repro.scenarios.registry` — named presets (benign references,
  co-located hammering, dwell, decoy, refresh-synchronized,
  multi-attacker saturation).
* :mod:`~repro.scenarios.run` — execution, the security-metric report
  view, and the two store blobs (scenario and baseline legs) per point
  behind ``repro scenario run`` and ``repro scenario sweep``.  Its
  names resolve on first access (module ``__getattr__``): it runs on
  :class:`~repro.experiments.common.SweepRunner`, and the daemon and
  workers, which only parse specs, should not load the experiments
  layer.
* :mod:`~repro.scenarios.fuzz` — the seeded spec-space fuzzer with
  shrinking reproducers behind ``repro fuzz`` (imported lazily; it
  pulls in both simulation engines).
"""

from .registry import SCENARIOS, get_scenario, is_scenario, scenario_names
from .spec import ScenarioSpec, spec_from_recipe

__all__ = [
    "SCENARIOS",
    "ScenarioReport",
    "ScenarioSpec",
    "DEFAULT_SCENARIO_REQUESTS",
    "get_scenario",
    "is_scenario",
    "run_scenario",
    "run_scenarios_cached",
    "scenario_names",
    "spec_from_recipe",
]

_RUN_NAMES = frozenset({
    "DEFAULT_SCENARIO_REQUESTS",
    "ScenarioReport",
    "run_scenario",
    "run_scenarios_cached",
})


def __getattr__(name: str):
    if name in _RUN_NAMES:
        from . import run

        return getattr(run, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
