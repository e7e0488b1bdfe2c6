"""Fast-engine output pinned on the configs where the engines disagree.

``tests/test_engine_equivalence.py`` proves the fast engine against the
reference engine, so it cannot vouch for a config where the two already
disagree.  The fuzzer finds four such configs (shrunk reproducers of
fuzz seeds 4, 6, 11 and 13 at a 240-candidate budget; see
perfbench/README.md).  Until the divergences are fixed, these tests pin
the fast engine's own ``SimResult.to_json()`` digest on each, captured
before the controller step became allocation-free, so an engine change
cannot silently move results that no oracle checks.  ``simulate_batch``
must produce the same bytes, since a one-point batch runs the fast
engine.

All four share one root cause: at the first differing ACT (seed 4,
candidate 206: bank 7, cycle 400; 6/116: bank 7, cycle 5419; 11/46:
bank 3, cycle 2038; 13/76: bank 6, cycle 4560) one bank queue holds the
same requests in a different cross-core order in the two engines.
Re-pin with ``tools/repin.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.results.store import canonical_json
from repro.scenarios.spec import spec_from_recipe
from repro.sim.system import simulate_workload

PIN_PATH = Path(__file__).parent / "data" / "fuzz_divergence_pins.json"

PINS = json.loads(PIN_PATH.read_text())


def _pin_id(pin):
    return f"seed{pin['fuzz_seed']}-cand{pin['candidate']}"


def _point(pin):
    spec = spec_from_recipe(pin["scenario"])
    return spec, (spec.cores, spec.defense, spec.tmro_ns)


def _digest(result):
    return hashlib.sha256(
        canonical_json(result.to_json()).encode()
    ).hexdigest()


def _fast_digest(pin):
    spec, (cores, defense, tmro_ns) = _point(pin)
    return _digest(simulate_workload(
        cores, defense, spec.system, pin["n_requests"], tmro_ns,
        pin["fuzz_seed"], engine="fast",
    ))


def test_pins_cover_the_four_divergences():
    assert [(pin["fuzz_seed"], pin["candidate"]) for pin in PINS] == [
        (4, 206), (6, 116), (11, 46), (13, 76),
    ]


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_fast_engine_matches_pin(pin):
    assert _fast_digest(pin) == pin["fast_digest"]


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_batch_engine_matches_pin(pin):
    from repro.sim.batch import simulate_batch

    spec, point = _point(pin)
    result = simulate_batch(
        [point], system=spec.system, n_requests_per_core=pin["n_requests"],
        seed=pin["fuzz_seed"],
    )[0]
    assert _digest(result) == pin["fast_digest"]


def pinned():
    return [{**pin, "fast_digest": _fast_digest(pin)} for pin in PINS]
