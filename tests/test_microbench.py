"""Tests for the tracker-kernel microbench and its same-runner gate."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "tools" / "microbench.py"

_spec = importlib.util.spec_from_file_location("microbench", SCRIPT)
microbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(microbench)

#: Requests per core small enough to build and run every row in tests.
TINY = 12


def passing(ratio=1.0, rounds=microbench.ROUNDS):
    return [(ratio * 1000.0, 1000.0)] * rounds


class TestRows:
    def test_row_set_is_pinned(self):
        assert list(microbench.ROWS) == [
            "ukernel_graphene", "ukernel_para", "ukernel_mithril",
            "ukernel_mint", "ukernel_prac", "ukernel_dsac",
            "single_core", "single_core_reference", "single_core_monitored",
            "tracker_grid_serial", "tracker_grid_batch",
        ]

    @pytest.mark.parametrize("label, fast, slow", microbench.PAIRS)
    def test_pair_rows_exist(self, label, fast, slow):
        assert fast in microbench.ROWS and slow in microbench.ROWS
        assert fast != slow

    def test_grid_covers_every_kernel_tracker(self):
        defenses = microbench.grid_defenses()
        assert len(defenses) == 16
        assert defenses[0] is None
        trackers = {d.tracker for d in defenses[1:]}
        assert trackers == {
            name[len("ukernel_"):]
            for name in microbench.ROWS if name.startswith("ukernel_")
        }

    def test_timed_reports_work_and_elapsed(self):
        work, seconds = microbench.timed(lambda: 7)
        assert work == 7
        assert seconds >= 0.0

    @pytest.mark.parametrize("name", list(microbench.ROWS))
    def test_row_builds_and_runs(self, name):
        timed_pass = microbench.ROWS[name](requests=TINY)
        work = timed_pass()
        assert work > 0
        assert timed_pass() == work  # deterministic across passes
        if name.startswith("ukernel_"):
            assert work == TINY * microbench.KERNEL_RECORDS_PER_REQUEST

    def test_speedup_pairs_simulate_identical_work(self):
        work = {
            name: microbench.ROWS[name](requests=TINY)()
            for _, fast, slow in microbench.PAIRS
            for name in (fast, slow)
        }
        assert microbench.self_check(work) == []

    def test_self_check_names_a_diverged_pair(self):
        lines = microbench.self_check(
            {"single_core": 100, "single_core_reference": 101,
             "tracker_grid_serial": 5, "tracker_grid_batch": 5}
        )
        assert len(lines) == 1
        assert "single_core" in lines[0] and "101" in lines[0]

    def test_self_check_passes_matching_pairs(self):
        assert microbench.self_check(
            {"single_core": 100, "single_core_reference": 100,
             "tracker_grid_serial": 5, "tracker_grid_batch": 5}
        ) == []

    def test_self_check_ignores_a_half_timed_pair(self):
        assert microbench.self_check(
            {"single_core": 100, "tracker_grid_batch": 5}
        ) == []


class TestVerdict:
    def test_passes_at_090(self):
        lines, code = microbench.verdict(
            {"ukernel_mint": passing(0.90)}, {}, []
        )
        assert code == 0
        assert json.loads(lines[-1])["exit"] == 0

    def test_passes_exactly_at_the_bound(self):
        _, code = microbench.verdict(
            {"ukernel_mint": passing(microbench.FAIL_BELOW)}, {}, []
        )
        assert code == 0

    def test_fails_at_075_and_names_the_row(self):
        lines, code = microbench.verdict(
            {"ukernel_mint": passing(0.90),
             "ukernel_graphene": passing(0.75)},
            {}, [],
        )
        assert code == 1
        report = json.loads(lines[-1])
        assert report["failed"] == ["ukernel_graphene"]
        assert any("FAIL" in line and "ukernel_graphene" in line
                   for line in lines[:-1])

    def test_median_ignores_a_minority_of_slow_rounds(self):
        rounds = passing(1.0, 10) + passing(0.5, 5)
        _, code = microbench.verdict({"ukernel_mint": rounds}, {}, [])
        assert code == 0

    def test_parent_skipped_row_is_reported_not_gated(self):
        lines, code = microbench.verdict(
            {"ukernel_mint": passing()},
            {"tracker_grid_batch": "parent: ImportError: no numpy"},
            [],
        )
        assert code == 0
        assert any(
            "tracker_grid_batch" in line
            and "skipped (parent: ImportError" in line
            for line in lines
        )
        assert "tracker_grid_batch" not in json.loads(lines[-1])["ratios"]

    def test_nothing_compared_exits_2(self):
        _, code = microbench.verdict(
            {}, {"ukernel_mint": "parent: AttributeError: gone"}, []
        )
        assert code == 2

    def test_self_check_mismatch_exits_1(self):
        problems = microbench.self_check(
            {"single_core": 100, "single_core_reference": 101}
        )
        lines, code = microbench.verdict(
            {"ukernel_mint": passing()}, {}, problems
        )
        assert code == 1
        assert json.loads(lines[-1])["problems"] == problems

    def test_problems_outrank_nothing_compared(self):
        _, code = microbench.verdict(
            {}, {}, ["ukernel_mint failed on HEAD: ValueError: bad"]
        )
        assert code == 1


def run_script(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, timeout=300,
    )


class TestScript:
    def test_gate_against_own_tree_passes(self):
        proc = run_script(
            "--against", str(REPO_ROOT / "src"), "--row", "ukernel_mint"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert list(report["ratios"]) == ["ukernel_mint"]

    def test_plain_run_prints_throughput(self):
        proc = run_script("--row", "ukernel_mint")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["work_per_s"]["ukernel_mint"] > 0

    def test_rows_the_parent_cannot_build_are_skipped(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "__init__.py").write_text("")
        proc = run_script(
            "--against", str(tmp_path), "--row", "ukernel_mint"
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "skipped (parent: ModuleNotFoundError" in proc.stdout
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["ratios"] == {}
        assert list(report["skipped"]) == ["ukernel_mint"]

    def test_unknown_row_is_refused(self):
        with pytest.raises(SystemExit) as exc:
            microbench.main(["--row", "tracker_nope"])
        assert exc.value.code == 2

    def test_against_a_tree_without_repro_is_refused(self, tmp_path):
        proc = run_script("--against", str(tmp_path))
        assert proc.returncode == 2
        assert "no repro package" in proc.stderr
