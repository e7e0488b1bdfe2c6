"""Recompute ``pins.json``: seed-0 output digests from the oracle path.

Every pinned digest comes from per-point fast-engine runs
(``SweepRunner(use_batch=False)``), never from the batch tier the
benchmark times, so a batch-tier bug shows as a failed check instead of
being pinned as correct.  The fuzz entry lists the fuzz seeds that find nothing at the
benchmark's budget (``fuzz_budget`` draws only from these) and what the
seeds passed over found.  Run from the repo root (a few minutes):

    PYTHONPATH=src python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    PINNED_SEED,
    PINS_PATH,
    SIZES,
    attack_points,
    digest,
    serve_recipe,
    serve_stream,
)


def paper_quick(cfg) -> dict:
    from repro.experiments.orchestrator import Orchestrator
    from repro.experiments.registry import RunContext

    batched = RunContext.sweep_runner

    def oracle_runner(ctx):
        runner = batched(ctx)
        runner.use_batch = False
        return runner

    RunContext.sweep_runner = oracle_runner
    try:
        scratch = PINS_PATH.parent.parent / ".perfbench_run"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as results_dir:
            report = Orchestrator(
                results_dir=Path(results_dir), jobs=1, quick=True,
                n_requests=cfg["n_requests"], seed=PINNED_SEED,
            ).run(only=cfg["only"])
    finally:
        RunContext.sweep_runner = batched
    return {o.name: digest(o.result) for o in report.outcomes}


def attack_sweep(cfg) -> list:
    from repro.experiments.common import SweepRunner

    runner = SweepRunner(
        n_requests=cfg["n_requests"], seed=PINNED_SEED, use_batch=False
    )
    results = runner.run_many(attack_points(cfg["presets"]))
    return [digest(result.to_json()) for result in results]


def serve_mix(cfg) -> dict:
    from repro.experiments.common import SweepRunner
    from repro.results.store import content_key
    from repro.scenarios import get_scenario

    pins = {}
    for body in serve_stream(PINNED_SEED, cfg):
        key = content_key(serve_recipe(body))
        if key in pins:
            continue
        spec = get_scenario(body["scenario"])
        runner = SweepRunner(
            system=spec.system, n_requests=body["n_requests"],
            seed=body["seed"], use_batch=False,
        )
        pins[key] = digest(runner.run(*spec.sweep_point()).to_json())
    return pins


def fuzz_budget(cfg, wanted: int = 64) -> dict:
    """Fuzz seeds that find nothing at the benchmark's budget, plus the
    signatures of every seed passed over on the way."""
    from repro.scenarios.fuzz import fuzz

    clean, findings = [], {}
    seed = 0
    while len(clean) < wanted:
        report = fuzz(seed, cfg["budget"], n_requests=cfg["n_requests"])
        if report.ok:
            clean.append(seed)
        else:
            findings[str(seed)] = [
                f"candidate {f.candidate}: {'+'.join(f.signature)} "
                f"({f.spec.core_summary()} under {f.spec.defense_summary()})"
                for f in report.failures
            ]
        seed += 1
    return {"budget": cfg["budget"], "clean_seeds": clean,
            "passed_over": findings}


def main() -> int:
    sizes = SIZES["full"]
    pins = {
        "paper_quick": paper_quick(sizes["paper_quick"]),
        "attack_sweep": attack_sweep(sizes["attack_sweep"]),
        "serve_mix": serve_mix(sizes["serve_mix"]),
        "fuzz_budget": fuzz_budget(sizes["fuzz_budget"]),
    }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH.name}: "
          + ", ".join(f"{k} {len(v)}" for k, v in pins.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
