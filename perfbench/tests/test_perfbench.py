"""Self-test of the benchmark at reduced sizes.

Runs every workload of ``BENCHMARK.json`` at the ``small`` size, traced
and untraced, and checks the result line against the declared metrics;
then feeds deliberately corrupted outputs to the output checks.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT,
              script: Path = BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "small"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_speed_probe_scales_each_slice_by_its_own_samples():
    probe = child.SpeedProbe()
    probe.stop()
    ref = child.REFERENCE_PROBE_S
    step = child.PROBE_SLICE_S
    # Slice 0 ran at reference speed, slice 1 twice as slowly; the last
    # half slice has no samples and takes the window's median (ref).
    probe.samples = [(100.0 + step * (i / 4), ref) for i in range(4)]
    probe.samples += [(100.0 + step * (1 + i / 4), 2 * ref)
                      for i in range(3)]
    scaled = probe.scaled(100.0, 100.0 + 2.5 * step)
    assert scaled == pytest.approx(step + step / 2 + step / 2)


def test_fuzz_seeds_come_from_the_seed_and_the_clean_pool():
    walks = workloads.SIZES["full"]["fuzz_budget"]["walks"]
    pool = json.loads(workloads.PINS_PATH.read_text())["fuzz_budget"]
    picked = workloads.clean_fuzz_seeds(3, "full", walks)
    assert picked == workloads.clean_fuzz_seeds(3, "full", walks)
    assert len(set(picked)) == walks
    assert set(picked) <= set(pool["clean_seeds"])
    assert picked != workloads.clean_fuzz_seeds(4, "full", walks)


def test_corrupted_sweep_result_counts_as_failure(tmp_path):
    workload = workloads.AttackSweep(1, "small", tmp_path)
    workload.prepare()
    results = workload.execute()
    assert workload.check(results).failed == 0
    corrupted = [
        dataclasses.replace(r, elapsed_cycles=r.elapsed_cycles + 1)
        for r in results
    ]
    check = workload.check(corrupted)
    assert check.failed == check.attempted - len(results) > 0


def test_corrupted_result_fails_against_pins(tmp_path, monkeypatch):
    workload = workloads.AttackSweep(0, "small", tmp_path)
    workload.prepare()
    results = workload.execute()
    pins = [workloads.digest(r.to_json()) for r in results]
    monkeypatch.setattr(workloads, "load_pins", lambda *args: pins)
    assert workload.check(results).failed == 0
    results[3] = dataclasses.replace(results[3], row_hits=-1)
    assert workload.check(results).failed == 1


def test_corrupted_serve_payload_counts_as_failure(tmp_path):
    workload = workloads.ServeMix(1, "small", tmp_path)
    workload.prepare()
    try:
        samples = workload.execute()
        assert workload.check(samples).failed == 0
        index, source, seconds, key, payload = samples[-1]
        samples[-1] = (index, source, seconds, key,
                       dict(payload, elapsed_cycles=0))
        assert workload.check(samples).failed >= 1
    finally:
        workload.close()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("attack_sweep", 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
