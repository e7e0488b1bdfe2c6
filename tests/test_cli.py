"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.trh == 4000.0
        assert args.fraction_bits == 7

    def test_simulate_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "add", "--tracker", "bogus"]
            )


class TestCommands:
    def test_verify_runs(self, capsys):
        assert main(["verify", "--trh", "1000"]) == 0
        out = capsys.readouterr().out
        assert "impress-p" in out
        assert "no-rp" in out

    def test_size_runs(self, capsys):
        assert main(["size", "--trh", "4000", "--alpha", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "448" in out
        assert "383" in out

    def test_simulate_runs(self, capsys):
        code = main(
            ["simulate", "mcf", "--tracker", "para",
             "--scheme", "impress-p", "--requests", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit rate" in out

    def test_simulate_accepts_mix_names(self, capsys):
        code = main(
            ["simulate", "add_copy", "--tracker", "graphene",
             "--requests", "120"]
        )
        assert code == 0
        assert "hit rate" in capsys.readouterr().out

    def test_simulate_accepts_scenario_names(self, capsys):
        code = main(["simulate", "colocated_hammer_mcf",
                     "--requests", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "victim slowdown" in out
        assert "attacker ACT rate" in out


class TestRunCommand:
    def test_unknown_experiment_or_tag(self, capsys, tmp_path):
        assert main(["run", "--only", "nope",
                     "--results-dir", str(tmp_path)]) == 2
        assert "unknown experiment or tag" in capsys.readouterr().out

    def test_only_table_prints_rows_and_writes_series(self, capsys,
                                                      tmp_path):
        assert main(["run", "--only", "table",
                     "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()
                if line.lstrip().startswith("table1 ")]
        assert [row[1] for row in rows] == ["tRC_ns", "tRAS_ns"]
        # The full series lands in the per-experiment artifact.
        artifact = json.loads((tmp_path / "table1.json").read_text())
        assert artifact["result"]["tRC"] == 48.0
        assert {"table2", "table3", "storage"} <= {
            path.stem for path in tmp_path.glob("*.json")
        }


class TestScenarioCommands:
    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "colocated_hammer_mcf" in out
        assert "multi_attacker_saturation" in out

    def test_scenario_run_unknown_name(self, capsys):
        assert main(["scenario", "run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_scenario_run_writes_and_reuses_artifact(self, capsys, tmp_path):
        argv = ["scenario", "run", "colocated_hammer_mcf",
                "--requests", "60", "--results-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "simulated" in first
        assert "victim slowdown" in first
        # The artifact is a content-addressed blob, indexed by name.
        assert list((tmp_path / "store" / "aliases").glob("*.json"))
        assert list((tmp_path / "store" / "objects").glob("*.json"))
        assert main(argv) == 0
        assert "cached" in capsys.readouterr().out

    def test_scenario_run_seeds_do_not_overwrite(self, capsys, tmp_path):
        base = ["scenario", "run", "colocated_hammer_mcf",
                "--requests", "60", "--results-dir", str(tmp_path)]
        assert main(base + ["--seed", "0"]) == 0
        assert main(base + ["--seed", "1"]) == 0
        out = capsys.readouterr().out
        artifacts = {
            line.split()[-1] for line in out.splitlines()
            if "artifact:" in line
        }
        assert len(artifacts) == 2  # two retrievable blobs, no clobber
        # Retrieval still works per seed: re-running either is a hit.
        assert main(base + ["--seed", "0"]) == 0
        assert "cached" in capsys.readouterr().out

    def test_scenario_run_benign(self, capsys, tmp_path):
        assert main(["scenario", "run", "benign_mcf", "--requests", "60",
                     "--results-dir", str(tmp_path)]) == 0
        assert "benign scenario" in capsys.readouterr().out

    def test_scenario_sweep(self, capsys, tmp_path):
        code = main(
            ["scenario", "sweep", "colocated_hammer_mcf",
             "--trackers", "graphene", "--schemes", "impress-p,no-rp",
             "--requests", "60", "--results-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "colocated_hammer_mcf[graphene/impress-p]" in out
        assert "colocated_hammer_mcf[graphene/no-rp]" in out
        assert "(2 scenario points: 0 cached, 2 simulated;" in out

    def test_scenario_sweep_reuses_scenario_run_legs(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.experiments.common import SweepRunner

        shape = ["--requests", "60", "--results-dir", str(tmp_path)]
        assert main(["scenario", "run", "colocated_hammer_mcf"] + shape) == 0
        objects = tmp_path / "store" / "objects"
        blobs = sorted(objects.iterdir())

        def no_simulation(self, *args, **kwargs):
            raise AssertionError("a stored leg was simulated again")

        monkeypatch.setattr(SweepRunner, "run_many", no_simulation)
        capsys.readouterr()
        assert main(["scenario", "sweep", "colocated_hammer_mcf"] + shape) == 0
        assert "(1 scenario points: 1 cached, 0 simulated;" in (
            capsys.readouterr().out
        )
        assert sorted(objects.iterdir()) == blobs

    def test_crossed_sweep_keeps_the_preset_report_row(
        self, capsys, tmp_path
    ):
        store = str(tmp_path)
        report = ["scenario", "report", store, store]
        assert main(["scenario", "run", "colocated_hammer_mcf",
                     "--requests", "60", "--results-dir", store]) == 0
        assert main(report) == 0
        preset_rows = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("colocated_hammer_mcf ")
        ]
        assert preset_rows
        # Another run shape, crossed with the preset's own defense too.
        assert main(["scenario", "sweep", "colocated_hammer_mcf",
                     "--trackers", "graphene,para", "--requests", "80",
                     "--results-dir", store]) == 0
        capsys.readouterr()
        assert main(report) == 0
        out = capsys.readouterr().out
        assert [
            line for line in out.splitlines()
            if line.startswith("colocated_hammer_mcf ")
        ] == preset_rows
        assert "colocated_hammer_mcf[graphene/impress-p] " in out
        assert "colocated_hammer_mcf[para/impress-p] " in out
        assert "(3 scenario(s) compared)" in out

    def test_workerless_distributed_sweep_skips_the_grace(
        self, capsys, tmp_path
    ):
        # Waiting out the grace would hit the timeout and exit 1.
        assert main(["sweep", "benign_mcf", "--distributed",
                     "--requests", "400", "--serial-grace", "600",
                     "--timeout", "60", "--results-dir", str(tmp_path)]) == 0
        assert "degraded serial" in capsys.readouterr().out

    def test_scenario_sweep_unknown_tracker(self, capsys, tmp_path):
        code = main(
            ["scenario", "sweep", "colocated_hammer_mcf",
             "--trackers", "bogus", "--requests", "60",
             "--results-dir", str(tmp_path)]
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("axis", [
        ["--trackers", ","], ["--trackers", ""], ["--schemes", " , "],
    ], ids=" ".join)
    def test_scenario_sweep_empty_defense_list(self, capsys, tmp_path, axis):
        code = main(
            ["scenario", "sweep", "colocated_hammer_mcf", "--requests", "60",
             "--results-dir", str(tmp_path)] + axis
        )
        assert code == 2
        assert capsys.readouterr().out.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_scenario_report_diffs_two_stores(self, capsys, tmp_path):
        for side, seed in (("a", "0"), ("b", "1")):
            assert main(
                ["scenario", "run", "colocated_hammer_mcf",
                 "--requests", "60", "--seed", seed,
                 "--results-dir", str(tmp_path / side)]
            ) == 0
        capsys.readouterr()
        assert main(
            ["scenario", "report", str(tmp_path / "a"),
             str(tmp_path / "b")]
        ) == 0
        out = capsys.readouterr().out
        assert "colocated_hammer_mcf" in out
        assert "victim_slowdown" in out
        assert "B/A" in out
        # The two sides used different seeds: flagged, not silent.
        assert "run shapes differ" in out

    def test_scenario_report_empty_is_an_error(self, capsys, tmp_path):
        code = main(
            ["scenario", "report", str(tmp_path / "x"),
             str(tmp_path / "y")]
        )
        assert code == 2
        assert "no comparable" in capsys.readouterr().out


class TestFuzzCommand:
    def test_clean_budget_exits_zero(self, capsys, tmp_path):
        code = main(["fuzz", "--seed", "0", "--budget", "3",
                     "--results-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_unknown_fault_is_an_error(self, capsys, tmp_path):
        code = main(["fuzz", "--fault", "bogus",
                     "--results-dir", str(tmp_path)])
        assert code == 2
        assert "unknown fault" in capsys.readouterr().out

    def test_planted_fault_found_stored_and_replayable(self, capsys,
                                                       tmp_path):
        code = main(["fuzz", "--seed", "0", "--budget", "6",
                     "--fault", "lax-tmro",
                     "--results-dir", str(tmp_path)])
        assert code == 1  # failures found -> non-zero for CI
        out = capsys.readouterr().out
        assert "tmro-deadline" in out
        key = next(
            line.split()[-1] for line in out.splitlines()
            if line.strip().startswith("[")
        )
        # The reproducer is listed in the store index...
        assert main(["results", "list", "--results-dir",
                     str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert key in listing
        assert "fuzz-repro" in listing
        # ...and replays to the same violation (fault restored from
        # the recipe — none is active here).
        assert main(["fuzz", "--replay", key,
                     "--results-dir", str(tmp_path)]) == 1
        assert "tmro-deadline" in capsys.readouterr().out

    def test_replay_unknown_key(self, capsys, tmp_path):
        code = main(["fuzz", "--replay", "deadbeefdeadbeef",
                     "--results-dir", str(tmp_path)])
        assert code == 2
        assert "no fuzz reproducer" in capsys.readouterr().out

    def test_closed_pipe_exits_141_without_traceback(self, tmp_path):
        """``repro fuzz | head -1``: exit 1 would mean failures found,
        so a reader that leaves gets the SIGPIPE status instead."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fuzz", "--seed", "0",
             "--budget", "30", "--results-dir", str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline().startswith("candidate 0:")
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert "Traceback" not in stderr


class TestResultsCommands:
    def test_results_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["results"])

    def test_empty_store_lists_nothing(self, capsys, tmp_path):
        assert main(["results", "list", "--results-dir",
                     str(tmp_path)]) == 0
        assert "no matching" in capsys.readouterr().out

    def test_lists_scenario_artifacts_with_metadata(self, capsys,
                                                    tmp_path):
        assert main(["scenario", "run", "colocated_hammer_mcf",
                     "--requests", "60",
                     "--results-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["results", "list", "--results-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "colocated_hammer_mcf" in out
        assert "scenario" in out
        # Every row carries a timestamp and a git SHA column.
        rows = [line for line in out.splitlines()[1:] if line.strip()]
        assert rows
        for row in rows:
            assert "T" in row and "Z" in row  # ISO-8601 UTC timestamp

    def test_kind_filter(self, capsys, tmp_path):
        assert main(["scenario", "run", "colocated_hammer_mcf",
                     "--requests", "60",
                     "--results-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["results", "list", "--results-dir", str(tmp_path),
                     "--kind", "sweep-task"]) == 0
        out = capsys.readouterr().out
        # The scenario and its baseline leg: two result aliases.
        assert out.count("sweep/") == 2
        assert "colocated_hammer_mcf" not in out
        assert main(["results", "list", "--results-dir", str(tmp_path),
                     "--kind", "fuzz-repro"]) == 0
        assert "no matching" in capsys.readouterr().out


class TestJsonOutput:
    def test_queue_status_json(self, capsys, tmp_path):
        import json

        from repro.distrib.queue import FileWorkQueue

        queue = FileWorkQueue(tmp_path / "queue")
        queue.submit({"kind": "test-task", "n": 1})
        queue.claim("w1")
        assert main(["queue", "status", "--queue-dir",
                     str(tmp_path / "queue"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_tasks"] == 1
        assert doc["claimed"] == 1
        assert doc["open_tasks"] == 1
        assert doc["leases"][0]["owner"] == "w1"

    def test_queue_status_json_after_drain(self, capsys, tmp_path):
        import json

        from repro.distrib.queue import FileWorkQueue

        queue = FileWorkQueue(tmp_path / "queue")
        for n in (1, 2, 3):
            queue.submit({"kind": "test-task", "n": n})
        queue.claim("w1")
        assert main(["queue", "drain", "--queue-dir",
                     str(tmp_path / "queue")]) == 0
        capsys.readouterr()
        assert main(["queue", "status", "--queue-dir",
                     str(tmp_path / "queue"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_tasks"] == 3   # bodies kept for inspection
        assert doc["open_tasks"] == 0

    def test_queue_status_lists_live_workers(self, capsys, tmp_path):
        import json
        import time

        from repro.distrib.queue import FileWorkQueue

        queue = FileWorkQueue(tmp_path / "queue")
        queue.announce("w1", started_at=time.time())
        assert main(["queue", "status", "--queue-dir",
                     str(tmp_path / "queue")]) == 0
        assert "live worker w1 (heartbeat" in capsys.readouterr().out
        assert main(["queue", "status", "--queue-dir",
                     str(tmp_path / "queue"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [w["owner"] for w in doc["workers"]] == ["w1"]
        assert doc["workers"][0]["heartbeat_age_s"] >= 0.0

    def test_results_gc_json(self, capsys, tmp_path):
        import json

        from repro.results.store import store_for

        store = store_for(tmp_path)
        store.put({"kind": "t", "n": 1}, {"x": 1}, name="a", kind="t")
        store.unalias("a")
        assert main(["results", "gc", "--results-dir", str(tmp_path),
                     "--dry-run", "--blob-grace", "0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dry_run"] is True
        assert len(doc["unreferenced_blobs"]) == 1
        assert doc["reclaimable_bytes"] > 0


class TestServeParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0
        assert args.max_inflight == 8
        assert args.max_waiters == 64
        assert args.queue_watermark == 256
        assert args.drain_timeout is None
        assert args.fault is None

    def test_request_defaults(self):
        args = build_parser().parse_args(["request", "benign_add_copy"])
        assert args.name == "benign_add_copy"
        assert args.requests == 400
        assert args.deadline == 120.0
        assert args.host is None

    def test_serve_unknown_fault_is_an_error(self, capsys, tmp_path):
        assert main(["serve", "--results-dir", str(tmp_path),
                     "--fault", "bogus"]) == 2
        assert "unknown fault" in capsys.readouterr().out

    def test_request_host_without_port_is_an_error(self, capsys):
        assert main(["request", "benign_add_copy",
                     "--host", "127.0.0.1"]) == 2
        assert "--port" in capsys.readouterr().out

    def test_request_without_daemon_reports_unavailable(self, capsys,
                                                        tmp_path):
        assert main(["request", "benign_add_copy",
                     "--results-dir", str(tmp_path)]) == 2
        assert "repro serve" in capsys.readouterr().out


class TestLeaseValidation:
    """A lease <= 0 expires every claim as soon as it is made."""

    @staticmethod
    def assert_rejected(capsys, argv):
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith("error: --lease must be positive")

    @pytest.mark.parametrize("lease", ["0", "-1.5"])
    def test_sweep_rejects(self, capsys, tmp_path, lease):
        self.assert_rejected(capsys, [
            "sweep", "benign_mcf", "colocated_hammer_mcf",
            "--requests", "2000", "--distributed", "--spawn-workers", "1",
            "--lease", lease, "--results-dir", str(tmp_path),
        ])
        assert not (tmp_path / "queue").exists()   # nothing spawned

    @pytest.mark.parametrize("lease", ["0", "-1.5"])
    def test_worker_rejects(self, capsys, tmp_path, lease):
        self.assert_rejected(capsys, [
            "worker", "--queue-dir", str(tmp_path / "queue"),
            "--results-dir", str(tmp_path), "--lease", lease,
            "--idle-exit", "0",
        ])

    @pytest.mark.parametrize("lease", ["0", "-1.5"])
    def test_serve_rejects(self, capsys, tmp_path, monkeypatch, lease):
        import repro.serve.server as server_mod

        def no_daemon(*args, **kwargs):
            raise AssertionError("a daemon was built")

        monkeypatch.setattr(server_mod, "ServeDaemon", no_daemon)
        self.assert_rejected(capsys, [
            "serve", "--results-dir", str(tmp_path), "--lease", lease,
        ])


class TestGcGraceValidation:
    """A negative or non-finite grace would make gc delete fresh work."""

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("flag", ["--blob-grace", "--tmp-grace"])
    def test_rejected_before_the_store_is_touched(
        self, capsys, tmp_path, flag, value
    ):
        from repro.results.store import store_for

        store = store_for(tmp_path)
        _key, blob, _created = store.put({"kind": "t", "n": 1}, {"x": 1})
        foreign_tmp = store.objects_dir / "foreign.tmp"
        foreign_tmp.write_text("{}")
        assert main(["results", "gc", "--results-dir", str(tmp_path),
                     flag, value]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith(f"error: {flag} must be")
        assert blob.is_file()
        assert foreign_tmp.is_file()


class TestRequestsValidation:
    """``--requests <= 0`` simulates nothing; reject it up front."""

    @pytest.mark.parametrize("requests", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["run", "--only", "fig4"],
        ["simulate", "mcf"],
        ["simulate", "benign_mcf"],
        ["scenario", "run", "benign_mcf"],
        ["scenario", "sweep", "benign_mcf"],
        ["sweep", "benign_mcf"],
        ["request", "benign_mcf"],
        ["fuzz", "--budget", "1"],
    ], ids=" ".join)
    def test_rejected_before_any_store(self, capsys, tmp_path, monkeypatch,
                                       argv, requests):
        # Every default --results-dir resolves under tmp_path.
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--requests", requests]) == 2
        assert capsys.readouterr().out == (
            f"error: --requests must be positive, got {requests}\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestThresholdValidation:
    """A non-finite, non-positive ``--trh``, a non-finite or negative
    ``--alpha`` or a negative ``--fraction-bits`` is a usage error, not
    a traceback (or, on ``verify``, a report of an infinite T*)."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--trh", "0", "must be positive, got 0"),
        ("--trh", "-5", "must be positive, got -5"),
        ("--alpha", "-1", "must be non-negative, got -1"),
        ("--trh", "inf", "must be finite, got inf"),
        ("--alpha", "inf", "must be finite, got inf"),
        ("--trh", "nan", "must be finite, got nan"),
    ], ids=["trh-0", "trh-neg", "alpha-neg", "trh-inf", "alpha-inf",
            "trh-nan"])
    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["size"],
        ["simulate", "mcf", "--requests", "20"],
        ["simulate", "benign_mcf", "--requests", "20"],
    ], ids=" ".join)
    def test_rejected(self, capsys, tmp_path, monkeypatch, argv, flag,
                      value, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv + [flag, value]) == 2
        assert capsys.readouterr().out == f"error: {flag} {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_fraction_bits_rejected(self, capsys):
        assert main(["verify", "--fraction-bits", "-1"]) == 2
        assert capsys.readouterr().out == (
            "error: --fraction-bits must be non-negative, got -1\n"
        )

    @pytest.mark.parametrize("argv", [
        ["verify", "--alpha", "0", "--fraction-bits", "0"],
        ["size", "--alpha", "0"],
    ], ids=" ".join)
    def test_zero_alpha_and_fraction_bits_stay_valid(self, capsys, argv):
        assert main(argv) == 0
        assert "error" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv, rows_below_floor", [
        (["--trh", "1000"], 2),
        (["--trh", "2000"], 1),
        (["--trh", "4000", "--alpha", "3"], 1),
    ], ids=["trh-1000", "trh-2000", "trh-4000-alpha-3"])
    def test_size_below_the_mithril_floor_prints_every_row(
        self, capsys, argv, rows_below_floor
    ):
        assert main(["size"] + argv) == 0
        out = capsys.readouterr().out
        assert out.count("target T=") == 2
        assert out.count(
            "mithril n/a (below the RFM-80 floor 1341)"
        ) == rows_below_floor
        assert "ImPress-P storage factor" in out

    def test_size_target_below_one_activation_rejected(self, capsys):
        assert main(["size", "--alpha", "1e308"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ") and out.count("\n") == 1
        assert "below one activation" in out

    @pytest.mark.parametrize("scheme, target", [
        ("impress-n", "500.0"),
        ("no-rp", "1000.0"),
    ])
    def test_simulate_unbuildable_defense_rejected(
        self, capsys, scheme, target
    ):
        assert main([
            "simulate", "mcf", "--trh", "1000", "--tracker", "mithril",
            "--scheme", scheme, "--requests", "20",
        ]) == 2
        assert capsys.readouterr().out == (
            f"error: TRH {target} is below the RFM-rate floor 1341; "
            "reduce RFMTH instead\n"
        )


class TestRemovedFanOutFlags:
    """Sweeps run serially through the batch tier: the point-level
    process-pool flags are gone and argparse rejects them before any
    command runs."""

    @pytest.mark.parametrize("argv", [
        ["run", "--only", "table2", "--sim-jobs", "2"],
        ["scenario", "run", "benign_mcf", "--requests", "20", "--jobs", "2"],
        ["scenario", "sweep", "benign_mcf", "--requests", "20",
         "--jobs", "2"],
    ], ids=" ".join)
    def test_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFuzzBudgetValidation:
    """``--budget <= 0`` fuzzes nothing, so a fuzz gate would pass
    vacuously; reject it up front."""

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_rejected_before_any_store(self, capsys, tmp_path, monkeypatch,
                                       budget):
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--budget", budget]) == 2
        assert capsys.readouterr().out == (
            f"error: --budget must be positive, got {budget}\n"
        )
        assert list(tmp_path.iterdir()) == []
