"""Golden end-to-end SimResults pinned from the pre-kernel-rewrite tree.

``tests/test_engine_equivalence.py`` proves the fast engine matches the
reference engine *at the same commit*; these tests additionally prove
the whole simulation stack (trackers, mitigation schemes, controller,
event loop) still produces the **same numbers it produced before the
tracker-kernel/controller refactor**.  The fixture was captured from the
pre-refactor tree; any diff here means the optimization changed
simulation semantics, not just speed.  Re-pin with ``tools/repin.py``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.synthetic import rate_mode_traces

PIN_PATH = Path(__file__).parent / "data" / "golden_simresults.json"

REQUESTS = 150

#: (case name, workload, defense) — one per tracker/scheme shape the
#: simulator supports, matching the equivalence-matrix coverage.
CASES = [
    ("unprotected_mcf", "mcf", None),
    ("graphene_impress_p", "mcf",
     DefenseConfig(tracker="graphene", scheme="impress-p")),
    ("graphene_impress_n", "copy",
     DefenseConfig(tracker="graphene", scheme="impress-n")),
    ("graphene_express", "copy",
     DefenseConfig(tracker="graphene", scheme="express", alpha=1.0)),
    ("para_no_rp", "mcf",
     DefenseConfig(tracker="para", scheme="no-rp", trh=100)),
    ("mithril_no_rp", "add_copy",
     DefenseConfig(tracker="mithril", scheme="no-rp", rfmth=20)),
    ("mint_impress_n", "add_copy",
     DefenseConfig(tracker="mint", scheme="impress-n", trh=1600, rfmth=20)),
]


def _result_fields(result):
    return {
        "elapsed_cycles": result.elapsed_cycles,
        "core_cycles": list(result.core_cycles),
        "core_requests": list(result.core_requests),
        "counts": dataclasses.asdict(result.counts),
        "row_hits": result.row_hits,
        "row_misses": result.row_misses,
        "row_conflicts": result.row_conflicts,
        "rfm_mitigations": result.rfm_mitigations,
        "tmro_closures": result.tmro_closures,
    }


def _run_case(workload, defense):
    system = SystemConfig(n_cores=2, banks_per_channel=8)
    traces = rate_mode_traces(workload, 2, REQUESTS, seed=5)
    return _result_fields(SystemSimulator(system, traces, defense).run())


def _load_golden():
    return json.loads(PIN_PATH.read_text())


@pytest.mark.parametrize(
    "name,workload,defense", CASES, ids=[case[0] for case in CASES]
)
def test_golden_simresult(name, workload, defense):
    assert _run_case(workload, defense) == _load_golden()[name]


def test_fixture_covers_every_case():
    assert sorted(_load_golden()) == sorted(name for name, _, _ in CASES)


def pinned():
    return {name: _run_case(w, defense) for name, w, defense in CASES}
