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

All four share one root cause, which ``first_divergence`` locates: at
the first differing demand ACT (channel 0; seed 4, candidate 206: bank
7, cycle 528; 6/116: bank 7, cycle 6059; 11/46: bank 3, cycle 2038;
13/76: bank 6, cycle 5216, each the cycle that ACT issues at) both
engines open a row from the same queued requests, held in a different
cross-core order, so they open different requests.
Re-pin with ``tools/repin.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.results.store import canonical_json
from repro.scenarios.fuzz import first_divergence
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


#: Per pin: (bank, ACT cycle, fast's opened (row, core), reference's).
FIRST_DIFFERING_ACTS = {
    "seed4-cand206": (7, 528, (17416, 0), (88, 3)),
    "seed6-cand116": (7, 6059, (136, 2), (249391, 0)),
    "seed11-cand46": (3, 2038, (2125582, 2), (1255228, 1)),
    "seed13-cand76": (6, 5216, (2186133, 2), (1209314, 1)),
}


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_first_differing_act(pin):
    spec, (cores, defense, tmro_ns) = _point(pin)
    located = first_divergence(
        spec.system, cores, defense, tmro_ns, pin["n_requests"],
        pin["fuzz_seed"],
    )
    assert (located.channel, located.kind) == (0, "queue-order")
    assert (
        located.bank, located.cycle,
        (located.fast.row, located.fast.core),
        (located.reference.row, located.reference.core),
    ) == FIRST_DIFFERING_ACTS[_pin_id(pin)]


def pinned():
    return [{**pin, "fast_digest": _fast_digest(pin)} for pin in PINS]
