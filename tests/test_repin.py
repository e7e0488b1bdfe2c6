"""``tools/repin.py`` names each moved pin value and rewrites only stale files.

Every case runs against copies of the pin files in ``tmp_path`` (each
module's ``PIN_PATH`` is monkeypatched), so the suite never rewrites
``tests/data`` itself.
"""

import importlib.util
import json
import os
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "repin.py"

_spec = importlib.util.spec_from_file_location("repin", SCRIPT)
repin = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(repin)


@pytest.fixture
def pins(tmp_path, monkeypatch):
    """``{file name: scratch copy}`` of every pin file, wired in."""
    copies = {}
    for module in repin.MODULES:
        copy = tmp_path / module.PIN_PATH.name
        shutil.copyfile(module.PIN_PATH, copy)
        monkeypatch.setattr(module, "PIN_PATH", copy)
        copies[copy.name] = copy
    return copies


def _plant(path, change):
    """Rewrite ``path`` with ``change(payload)`` applied; return the
    true bytes."""
    true_bytes = path.read_bytes()
    payload = json.loads(true_bytes)
    change(payload)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return true_bytes


def test_names_the_moved_leaf_and_restores_the_file(pins, capsys):
    path = pins["golden_simresults.json"]
    acts = json.loads(path.read_text())["para_no_rp"]["counts"]["demand_acts"]

    def change(payload):
        payload["para_no_rp"]["counts"]["demand_acts"] -= 1

    true_bytes = _plant(path, change)
    repin.main()
    assert capsys.readouterr().out == (
        "golden_simresults.json.para_no_rp.counts.demand_acts: "
        f"{acts - 1} -> {acts}\n"
    )
    assert path.read_bytes() == true_bytes

    os.utime(path, ns=(10**18, 10**18))
    repin.main()
    assert capsys.readouterr().out == ""
    assert path.stat().st_mtime_ns == 10**18


def test_format_only_change_is_reported(pins, capsys):
    path = pins["golden_traces.json"]
    true_bytes = path.read_bytes()
    path.write_text(json.dumps(json.loads(true_bytes), indent=2))
    repin.main()
    assert capsys.readouterr().out == "golden_traces.json: format only\n"
    assert path.read_bytes() == true_bytes


def test_a_list_of_changed_length_is_one_line(pins, capsys):
    path = pins["golden_trackers.json"]
    events = len(json.loads(path.read_text())["graphene_frac"]["log"])

    def change(payload):
        del payload["graphene_frac"]["log"][-1]

    _plant(path, change)
    repin.main()
    assert capsys.readouterr().out == (
        "golden_trackers.json.graphene_frac.log: "
        f"[{events - 1} items] -> [{events} items]\n"
    )


def test_more_than_twenty_moved_leaves_are_summarised(pins, capsys):
    def change(payload):
        for case in sorted(payload)[:25]:
            payload[case] = "0" * 64

    _plant(pins["golden_traces.json"], change)
    repin.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == repin.SHOWN + 1
    assert all(line.startswith("golden_traces.json.") for line in lines[:-1])
    assert lines[-1] == "... 5 more"
