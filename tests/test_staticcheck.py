"""Tests for the ``repro check`` AST contract checker.

Every rule gets three fixtures: source that fires it, compliant source
it stays quiet on, and a suppressed violation that is honored *and*
counted.  Each firing fixture selects its rule by id through
``run_check(rule_ids=[...])``, so deleting a rule's implementation
fails these tests at the registry lookup — no rule can go vacuous.
The suite ends with the gate the CI job enforces: the real repo is
clean, with zero waivers in ``distrib/``, ``results/`` and ``serve/``.
"""

import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import all_rules, get_rules, run_check
from repro.staticcheck.cli import changed_files, main
from repro.staticcheck.engine import PARSE_ERROR_RULE

REPO_ROOT = Path(__file__).resolve().parent.parent

ALL_RULE_IDS = (
    "no-repr-key",
    "rename-is-final",
    "atomic-write-only",
    "slots-on-hot-classes",
    "no-alloc-in-kernels",
    "no-wallclock-nondeterminism",
    "simresult-parity",
)


def write_tree(tmp_path, files):
    """Materialize ``{relpath: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def check(tmp_path, rule_id=None):
    rule_ids = [rule_id] if rule_id else None
    return run_check([tmp_path], rule_ids=rule_ids, root=tmp_path)


# -- registry ---------------------------------------------------------------


def test_registry_has_all_rules():
    assert {rule.rule_id for rule in all_rules()} == set(ALL_RULE_IDS)


def test_every_rule_has_summary():
    for rule in all_rules():
        assert rule.summary, rule.rule_id


def test_unknown_rule_id_raises_with_known_names():
    with pytest.raises(KeyError, match="no-repr-key"):
        get_rules(["no-such-rule"])


# -- no-repr-key ------------------------------------------------------------


def test_no_repr_key_fires(tmp_path):
    write_tree(tmp_path, {"store.py": """
        def recipe(cfg):
            return content_key({"cfg": repr(cfg)})

        def recipe2(cfg):
            return canonical_json({"cfg": f"{cfg}"})

        def recipe3(cfg):
            return content_key({"cfg": str(cfg)})
    """})
    report = check(tmp_path, "no-repr-key")
    lines = sorted(f.line for f in report.findings)
    assert len(report.findings) == 3
    assert [f.rule_id for f in report.findings] == ["no-repr-key"] * 3
    assert lines == [3, 6, 9]


def test_no_repr_key_quiet_on_plain_data(tmp_path):
    write_tree(tmp_path, {"store.py": """
        def recipe(cfg):
            key = content_key({"name": cfg.name, "trh": cfg.trh})
            label = f"experiment {key}"   # f-string outside the sink
            return key, repr(cfg)          # repr outside the sink
    """})
    assert check(tmp_path, "no-repr-key").findings == []


def test_no_repr_key_suppression_counted(tmp_path):
    write_tree(tmp_path, {"store.py": """
        def recipe(cfg):
            # repro: allow[no-repr-key] legacy key, migrated in PR 11
            return content_key({"cfg": repr(cfg)})
    """})
    report = check(tmp_path, "no-repr-key")
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert len(report.suppressions) == 1
    assert report.suppressions[0].reason == "legacy key, migrated in PR 11"
    assert report.exit_code == 0


# -- rename-is-final --------------------------------------------------------


def test_rename_is_final_fires_on_write_after_rename(tmp_path):
    write_tree(tmp_path, {"distrib/queue.py": """
        import os

        def release(claimed_path, pending_path):
            os.rename(claimed_path, pending_path)
            claimed_path.write_text("{}")   # resurrects the moved file
    """})
    report = check(tmp_path, "rename-is-final")
    assert [f.line for f in report.findings] == [6]


def test_rename_is_final_fires_on_handoff_rewrite(tmp_path):
    # Writing into a *pending* destination after the rename races the
    # next claimant -- even atomically (the PR 7 bug shape).
    write_tree(tmp_path, {"distrib/queue.py": """
        import os

        def requeue(self, claimed_path, task_id):
            pending_path = self._path("pending", task_id)
            os.rename(claimed_path, pending_path)
            atomic_write_json(pending_path, {"attempts": 1})
    """})
    report = check(tmp_path, "rename-is-final")
    assert [f.line for f in report.findings] == [7]


def test_rename_is_final_fires_on_unwritten_tmp(tmp_path):
    write_tree(tmp_path, {"results/store.py": """
        import os

        def put(tmp, path):
            os.replace(tmp, path)   # tmp was never written here
    """})
    report = check(tmp_path, "rename-is-final")
    assert len(report.findings) == 1
    assert "without its content" in report.findings[0].message


def test_rename_is_final_quiet_on_claim_handshake(tmp_path):
    # The blessed acquisition: rename into a state the winner owns
    # (claimed), then atomically rewrite the lease.
    write_tree(tmp_path, {"distrib/queue.py": """
        import os

        def claim(self, task_id, payload):
            pending_path = self._path("pending", task_id)
            claimed_path = self._path("claimed", task_id)
            os.rename(pending_path, claimed_path)
            atomic_write_json(claimed_path, payload)

        def put(tmp, path, text):
            tmp.write_text(text)
            os.replace(tmp, path)
    """})
    assert check(tmp_path, "rename-is-final").findings == []


def test_rename_is_final_ignores_out_of_scope_files(tmp_path):
    write_tree(tmp_path, {"workloads/gen.py": """
        import os

        def shuffle(a, b):
            os.rename(a, b)
            a.write_text("x")
    """})
    assert check(tmp_path, "rename-is-final").findings == []


def test_rename_is_final_suppression_counted(tmp_path):
    write_tree(tmp_path, {"serve/journal.py": """
        import os

        def rotate(old, new):
            os.rename(old, new)
            old.write_text("")  # repro: allow[rename-is-final] recreate empty journal
    """})
    report = check(tmp_path, "rename-is-final")
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- atomic-write-only ------------------------------------------------------


def test_atomic_write_only_fires(tmp_path):
    write_tree(tmp_path, {"results/store.py": """
        import json

        def save_index(path, index):
            path.write_text(json.dumps(index))

        def save_blob(path, blob):
            with open(path, "w") as handle:
                handle.write(blob)
    """})
    report = check(tmp_path, "atomic-write-only")
    assert [f.line for f in report.findings] == [5, 8]


def test_atomic_write_only_quiet_on_blessed_patterns(tmp_path):
    write_tree(tmp_path, {"results/store.py": """
        import os

        def atomic_write_text(path, text):
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(text)
            os.replace(tmp, path)

        def lock(lock_path):
            with open(lock_path, "w"):
                pass

        def append_log(log_path, line):
            log_path.write_text(line)

        def read(path):
            with open(path) as handle:
                return handle.read()
    """})
    assert check(tmp_path, "atomic-write-only").findings == []


def test_atomic_write_only_exempts_no_chaos_module_in_scope(tmp_path):
    # The crash harness lives above distrib/ and serve/ now; a torn
    # write planted at the old in-scope harness path is flagged.
    write_tree(tmp_path, {"distrib/chaos.py": """
        def tear(path):
            path.write_text("{tor")
    """})
    findings = check(tmp_path, "atomic-write-only").findings
    assert [(f.file, f.line) for f in findings] == [("distrib/chaos.py", 3)]


def test_atomic_write_only_suppression_counted(tmp_path):
    write_tree(tmp_path, {"serve/server.py": """
        def save(path, text):
            path.write_text(text)  # repro: allow[atomic-write-only] pidfile
    """})
    report = check(tmp_path, "atomic-write-only")
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- slots-on-hot-classes ---------------------------------------------------


def test_slots_fires_on_hot_class_without_slots(tmp_path):
    write_tree(tmp_path, {"sim/engine.py": """
        class Simulator:
            def __init__(self):
                self.now = 0
    """})
    report = check(tmp_path, "slots-on-hot-classes")
    assert len(report.findings) == 1
    assert "Simulator" in report.findings[0].message


def test_slots_quiet_on_compliant_and_exempt(tmp_path):
    write_tree(tmp_path, {"trackers/impl.py": """
        from dataclasses import dataclass

        class Tracker:
            __slots__ = ("count",)

        @dataclass(slots=True)
        class Config:
            trh: float = 4000.0

        class TrackerError(Exception):
            pass

        class QueueEmptyError(RuntimeError):
            pass
    """})
    assert check(tmp_path, "slots-on-hot-classes").findings == []


def test_slots_ignores_out_of_scope_files(tmp_path):
    write_tree(tmp_path, {"experiments/fig3.py": """
        class Plot:
            pass
    """})
    assert check(tmp_path, "slots-on-hot-classes").findings == []


def test_slots_suppression_counted(tmp_path):
    write_tree(tmp_path, {"memctrl/debug.py": """
        # repro: allow[slots-on-hot-classes] debug-only, never in the loop
        class Probe:
            pass
    """})
    report = check(tmp_path, "slots-on-hot-classes")
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- no-alloc-in-kernels ----------------------------------------------------


def test_no_alloc_fires_in_record_unit(tmp_path):
    write_tree(tmp_path, {"trackers/impl.py": """
        class Tracker:
            __slots__ = ("rows",)

            def record_unit(self, row):
                spill = [row]          # per-ACT allocation
                return len(spill)
    """})
    report = check(tmp_path, "no-alloc-in-kernels")
    assert len(report.findings) == 1
    assert "record_unit" in report.findings[0].message


def test_no_alloc_fires_in_kernel_closures(tmp_path):
    write_tree(tmp_path, {"trackers/impl.py": """
        def raw_kernel(table):
            def kernel(row, raw):
                return {row: raw}      # per-event dict
            return kernel

        def _build_act_kernels(controller):
            bound = []                 # bind-time list: allowed
            for bank in range(4):
                def kernel(row):
                    return sorted(bound)   # per-event sort
                bound.append(kernel)
            return bound
    """})
    report = check(tmp_path, "no-alloc-in-kernels")
    assert [f.line for f in report.findings] == [4, 11]


def test_no_alloc_fires_in_controller_step_and_event_loop(tmp_path):
    write_tree(tmp_path, {"memctrl/controller.py": """
        class ChannelController:
            __slots__ = ("done_core",)

            def step(self, bank_id, cycle):
                return self._serve_demand(bank_id, cycle)

            def _serve_demand(self, bank_id, cycle):
                request = InFlightRequest(core_id=0)   # not a container
                return ServiceResult(
                    completions=[Completion(cycle, request.core_id)],
                )

            def flush_open_rows(self, cycle):
                return [cycle]             # wrap-up, not per event

        class SystemSimulator:
            __slots__ = ()

            def run_until(self, stop_cycle):
                pending = {}               # per-call dict in the loop
                return pending

            def _try_issue(self, core, cycle):
                return [x for x in core]   # per-issue comprehension

        class OtherController:
            def step(self, bank_id, cycle):
                return [bank_id]           # not a hot class
    """})
    report = check(tmp_path, "no-alloc-in-kernels")
    assert [f.line for f in report.findings] == [9, 10, 11, 11, 21, 25]
    assert "InFlightRequest() object" in report.findings[0].message
    assert "ServiceResult() object" in report.findings[1].message
    assert "list literal" in report.findings[2].message
    assert "Completion() object" in report.findings[3].message
    for finding in report.findings[:4]:
        assert "ChannelController._serve_demand" in finding.message
    assert "SystemSimulator.run_until" in report.findings[4].message
    assert "SystemSimulator._try_issue" in report.findings[5].message


def test_no_alloc_exempts_raise_but_not_objects_in_hot_methods(tmp_path):
    write_tree(tmp_path, {"sim/system.py": """
        class SystemSimulator:
            __slots__ = ("_heap",)

            def run_until(self, stop_cycle):
                if stop_cycle < 0:
                    raise RuntimeError(f"bad stop {stop_cycle}")
                return self._heap

            def _try_issue(self, core, cycle):
                return requests.Pending(core, cycle)   # dotted class

            def snapshot(self):
                return Snapshot(self._heap)    # not a per-event method
    """})
    report = check(tmp_path, "no-alloc-in-kernels")
    assert [f.line for f in report.findings] == [11]
    assert "Pending() object" in report.findings[0].message


def test_no_alloc_quiet_on_integer_kernels(tmp_path):
    write_tree(tmp_path, {"trackers/impl.py": """
        class Tracker:
            __slots__ = ("counts", "threshold")

            def record_unit(self, row):
                counts = self.counts
                counts[row] = counts.get(row, 0) + 1
                return 1 if counts[row] >= self.threshold else 0

        def raw_kernel(scale):
            table = {}                 # bind-time allocation: allowed
            def kernel(row, raw):
                table[row] = table.get(row, 0) + raw
                return 0
            return kernel
    """})
    assert check(tmp_path, "no-alloc-in-kernels").findings == []


def test_no_alloc_suppression_counted(tmp_path):
    write_tree(tmp_path, {"trackers/impl.py": """
        class Tracker:
            __slots__ = ()

            def record_unit(self, row):
                return len([row])  # repro: allow[no-alloc-in-kernels] cold path
    """})
    report = check(tmp_path, "no-alloc-in-kernels")
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- no-wallclock-nondeterminism --------------------------------------------


def test_no_wallclock_fires(tmp_path):
    write_tree(tmp_path, {"sim/engine.py": """
        import random
        import time

        def jitter():
            start = time.time()
            rng = random.Random()
            return start + rng.random() + random.random()
    """})
    report = check(tmp_path, "no-wallclock-nondeterminism")
    messages = "\n".join(f.message for f in report.findings)
    assert len(report.findings) == 3
    assert "time.time" in messages
    assert "unseeded random.Random()" in messages
    assert "module-level random.random()" in messages


def test_no_wallclock_quiet_on_seeded_rng(tmp_path):
    write_tree(tmp_path, {"workloads/gen.py": """
        import random

        def trace(seed):
            rng = random.Random(seed)
            return [rng.randrange(64) for _ in range(8)]
    """})
    assert check(tmp_path, "no-wallclock-nondeterminism").findings == []


def test_no_wallclock_ignores_out_of_scope_files(tmp_path):
    write_tree(tmp_path, {"serve/client.py": """
        import random
        import time

        def backoff():
            return time.time() + random.Random().random()
    """})
    assert check(tmp_path, "no-wallclock-nondeterminism").findings == []


def test_no_wallclock_suppression_counted(tmp_path):
    write_tree(tmp_path, {"scenarios/presets.py": """
        import time

        def stamp():
            return time.time()  # repro: allow[no-wallclock-nondeterminism] display only
    """})
    report = check(tmp_path, "no-wallclock-nondeterminism")
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- simresult-parity -------------------------------------------------------


_PARITY_STATS = """
    from dataclasses import dataclass, field
    from typing import Dict, List

    @dataclass(slots=True)
    class SimResult:
        elapsed_cycles: int
        core_cycles: List[int]
        row_hits: int = 0
        counts: object = field(default_factory=dict)

        def to_json(self) -> Dict[str, object]:
            return {
                "elapsed_cycles": self.elapsed_cycles,
                "core_cycles": list(self.core_cycles),
                "row_hits": self.row_hits,
                "counts": dict(self.counts),
            }

        @classmethod
        def from_json(cls, data):
            return cls(
                elapsed_cycles=data["elapsed_cycles"],
                core_cycles=data["core_cycles"],
                row_hits=data["row_hits"],
                counts=data["counts"],
            )
"""


def test_simresult_parity_quiet_when_engines_agree(tmp_path):
    write_tree(tmp_path, {
        "sim/stats.py": _PARITY_STATS,
        "sim/system.py": """
            def _collect():
                return SimResult(elapsed_cycles=1, core_cycles=[1],
                                 row_hits=0, counts={})
        """,
        "sim/reference.py": """
            def _collect():
                return SimResult(elapsed_cycles=1, core_cycles=[1],
                                 row_hits=0, counts={})
        """,
        "sim/batch.py": """
            import dataclasses

            def _follower_result(leader):
                return dataclasses.replace(
                    leader,
                    core_cycles=list(leader.core_cycles),
                    counts=dict(leader.counts),
                )
        """,
    })
    assert check(tmp_path, "simresult-parity").findings == []


def test_simresult_parity_fires_on_missing_engine_field(tmp_path):
    write_tree(tmp_path, {
        "sim/stats.py": _PARITY_STATS,
        "sim/system.py": """
            def _collect():
                return SimResult(elapsed_cycles=1, core_cycles=[1],
                                 row_hits=0, counts={})
        """,
        "sim/reference.py": """
            def _collect():
                return SimResult(elapsed_cycles=1, core_cycles=[1],
                                 counts={})
        """,
    })
    report = check(tmp_path, "simresult-parity")
    assert len(report.findings) == 1
    assert report.findings[0].file == "sim/reference.py"
    assert "row_hits" in report.findings[0].message


def test_simresult_parity_fires_on_uncopied_mutable_field(tmp_path):
    write_tree(tmp_path, {
        "sim/stats.py": _PARITY_STATS,
        "sim/batch.py": """
            import dataclasses

            def _follower_result(leader):
                return dataclasses.replace(
                    leader,
                    core_cycles=list(leader.core_cycles),
                )
        """,
    })
    report = check(tmp_path, "simresult-parity")
    assert len(report.findings) == 1
    assert "counts" in report.findings[0].message
    assert "share one container" in report.findings[0].message


def test_simresult_parity_fires_on_json_drift(tmp_path):
    stats = _PARITY_STATS.replace('"row_hits": self.row_hits,\n', "")
    write_tree(tmp_path, {"sim/stats.py": stats})
    report = check(tmp_path, "simresult-parity")
    assert len(report.findings) == 1
    assert "to_json" in report.findings[0].message


def test_simresult_parity_suppression_counted(tmp_path):
    write_tree(tmp_path, {
        "sim/stats.py": _PARITY_STATS,
        "sim/reference.py": """
            def _collect():
                # repro: allow[simresult-parity] reference predates row_hits
                return SimResult(elapsed_cycles=1, core_cycles=[1],
                                 counts={})
        """,
    })
    report = check(tmp_path, "simresult-parity")
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- engine behaviors -------------------------------------------------------


def test_parse_error_is_a_finding_not_a_pass(tmp_path):
    write_tree(tmp_path, {"sim/broken.py": "def broken(:\n"})
    report = check(tmp_path)
    assert report.exit_code == 1
    assert [f.rule_id for f in report.findings] == [PARSE_ERROR_RULE]


def test_unused_waiver_is_reported(tmp_path):
    write_tree(tmp_path, {"sim/clean.py": """
        # repro: allow[no-wallclock-nondeterminism] nothing here needs it
        X = 1
    """})
    report = check(tmp_path)
    assert report.findings == []
    assert len(report.unused_suppressions) == 1
    assert any("unused waiver" in line for line in report.summary_lines())


def test_suppression_must_match_rule_id(tmp_path):
    write_tree(tmp_path, {"sim/engine.py": """
        class Simulator:  # repro: allow[no-wallclock-nondeterminism] wrong id
            pass
    """})
    report = check(tmp_path, "slots-on-hot-classes")
    assert len(report.findings) == 1        # wrong-rule waiver does not apply


def test_findings_sorted_and_json_round_trip(tmp_path):
    write_tree(tmp_path, {
        "sim/b.py": "class B:\n    pass\n",
        "sim/a.py": "class A:\n    pass\n",
    })
    report = check(tmp_path, "slots-on-hot-classes")
    assert [f.file for f in report.findings] == ["sim/a.py", "sim/b.py"]
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["counts"]["findings"] == 2
    assert payload["findings"][0]["rule"] == "slots-on-hot-classes"


# -- CLI surface ------------------------------------------------------------


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


def test_cli_json_and_exit_codes(tmp_path, capsys):
    write_tree(tmp_path, {"sim/engine.py": "class Sim:\n    pass\n"})
    code = main([str(tmp_path), "--root", str(tmp_path), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["counts"]["findings"] == 1
    (tmp_path / "sim/engine.py").write_text(
        "class Sim:\n    __slots__ = ()\n"
    )
    assert main([str(tmp_path), "--root", str(tmp_path)]) == 0


def test_cli_rule_selection_and_unknown_rule(tmp_path, capsys):
    write_tree(tmp_path, {"sim/engine.py": "class Sim:\n    pass\n"})
    args = [str(tmp_path), "--root", str(tmp_path)]
    assert main(args + ["--rule", "no-repr-key"]) == 0
    assert main(args + ["--rule", "slots-on-hot-classes"]) == 1
    capsys.readouterr()
    assert main(args + ["--rule", "no-such-rule"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_changed_files_tracks_git_diff(tmp_path):
    def git(*argv):
        subprocess.run(
            ["git", *argv], cwd=tmp_path, check=True, capture_output=True,
        )

    git("init")
    git("config", "user.email", "t@t")
    git("config", "user.name", "t")
    write_tree(tmp_path, {
        "sim/engine.py": "class Sim:\n    __slots__ = ()\n",
        "sim/other.py": "X = 1\n",
    })
    git("add", "-A")
    git("commit", "-m", "seed")
    (tmp_path / "sim/engine.py").write_text("class Sim:\n    pass\n")
    write_tree(tmp_path, {"sim/new.py": "class New:\n    pass\n"})

    changed = changed_files("HEAD", tmp_path)
    names = {path.name for path in changed}
    assert names == {"engine.py", "new.py"}      # diff + untracked

    report = run_check(changed, root=tmp_path)
    assert {f.file for f in report.findings} == {"sim/engine.py",
                                                 "sim/new.py"}


def test_changed_files_unknown_ref_raises(tmp_path):
    subprocess.run(["git", "init"], cwd=tmp_path, check=True,
                   capture_output=True)
    with pytest.raises(RuntimeError):
        changed_files("no-such-ref", tmp_path)


# -- the repo-wide gate -----------------------------------------------------


def test_repo_is_clean():
    """The CI contract: the full repo passes every rule, exit 0."""
    report = run_check(
        [REPO_ROOT / "src", REPO_ROOT / "tools"], root=REPO_ROOT,
    )
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )
    assert report.exit_code == 0
    assert report.files_checked > 50


def test_repo_has_no_waivers_in_durability_layers():
    """Zero suppressions allowed in distrib/, results/, serve/."""
    report = run_check(
        [REPO_ROOT / "src", REPO_ROOT / "tools"], root=REPO_ROOT,
    )
    banned = [
        waiver for waiver in report.suppressions
        if any(layer in waiver.file
               for layer in ("distrib/", "results/", "serve/"))
    ]
    assert banned == []
