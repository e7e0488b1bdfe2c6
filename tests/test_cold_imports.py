"""Cold-start guards: each entry point imports only what it runs.

The CLI, the serve daemon, a distributed worker, the scenario runner
and the fuzzer run single fast-engine points, so a fresh interpreter
importing any of them must leave NumPy, the batch tier and the
experiments layer (the paper's figure sweeps) unloaded.  A serial sweep
with more than one uncached point of a topology is what loads the batch
tier, which needs only the standard library: it loads no NumPy where
NumPy is installed and gives the same results where it is not.

Every check runs in a fresh interpreter: the test process itself has
long since imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prepended to a child script so ``import numpy`` fails as it does
#: where numpy is not installed.  A meta-path finder rather than
#: ``sys.modules["numpy"] = None``, which makes hypothesis crash on its
#: own ``import numpy.random``.
BLOCK_NUMPY = """
import sys

class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}",
                                      name=name)
        return None

sys.meta_path.insert(0, _NoNumpy())
"""

#: Defines ``heavy_modules()``: the loaded modules a cold import must
#: not pull in.
HEAVY_MODULES = """
import json

def heavy_modules():
    return sorted(
        name for name in sys.modules
        if name == "numpy" or name.startswith("numpy.")
        or name == "repro.sim.batch"
        or name == "repro.experiments"
        or name.startswith("repro.experiments.")
    )
"""

#: A three-point serial sweep; prints the heavy modules loaded and the
#: result blobs.
SWEEP = """
    from repro.experiments.common import SweepRunner
    from repro.sim.config import DefenseConfig, SystemConfig

    points = [
        ("mcf", None, None),
        ("mcf", DefenseConfig(tracker="graphene", scheme="no-rp"), None),
        ("mcf", DefenseConfig(tracker="mint", scheme="impress-p"), None),
    ]
    runner = SweepRunner(
        system=SystemConfig(n_cores=2, banks_per_channel=8),
        n_requests=40, seed=3,
    )
    results = runner.run_many(points)
    print(json.dumps([
        heavy_modules(),
        [result.to_json() for result in results],
    ]))
"""


def run_child(script: str, block_numpy: bool = False):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    prelude = BLOCK_NUMPY if block_numpy else "import sys\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + HEAVY_MODULES
         + textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def child_json(script: str, block_numpy: bool = False):
    """Run ``script`` in a fresh interpreter; the JSON of its last line."""
    proc = run_child(script, block_numpy)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", [
    "repro",
    "repro.cli",
    "repro.serve.server",
    "repro.distrib.worker",
    "repro.scenarios.run",
    "repro.scenarios.fuzz",
])
def test_entry_point_leaves_batch_tier_and_experiments_unloaded(module):
    loaded = child_json(f"""
        import {module}
        print(json.dumps(heavy_modules()))
    """)
    assert loaded == []


def test_only_a_serial_multi_point_sweep_loads_the_batch_tier():
    loaded = child_json("""
        from repro.experiments.common import SweepRunner
        from repro.sim.config import SystemConfig

        runner = SweepRunner(
            system=SystemConfig(n_cores=2, banks_per_channel=8),
            n_requests=20,
        )
        before = "repro.sim.batch" in sys.modules
        runner.run_many(["mcf"])
        single = "repro.sim.batch" in sys.modules
        runner.run_many(["copy", "add"])
        print(json.dumps([before, single, "repro.sim.batch" in sys.modules]))
    """)
    assert loaded == [False, False, True]


#: A ``run_serial_sweep`` of the first ``{n}`` of two recipes into the
#: store under ``{store}``; prints the heavy modules loaded.
SERIAL_SWEEP = """
    from pathlib import Path

    from repro.distrib.coordinator import run_serial_sweep, shard_points
    from repro.results.store import store_for
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.config import SystemConfig

    system = SystemConfig(n_cores=2, banks_per_channel=8)
    specs = [ScenarioSpec.benign(name, system=system)
             for name in ("copy", "add")]
    run_serial_sweep(shard_points(specs[:{n}], 20, 0),
                     store_for(Path({store!r})))
    print(json.dumps(heavy_modules()))
"""


def test_only_a_multi_recipe_miss_loads_the_batch_tier(tmp_path):
    def loaded(n, store):
        return child_json(SERIAL_SWEEP.format(n=n, store=str(tmp_path / store)))

    assert loaded(1, "one") == []
    assert loaded(2, "two") == ["repro.sim.batch"]
    assert loaded(2, "two") == []    # the same sweep, every recipe a hit


class TestWithoutNumpy:
    def test_batched_sweep_loads_no_numpy(self):
        loaded, blobs = child_json(SWEEP)
        assert "repro.sim.batch" in loaded
        assert not [name for name in loaded if name.startswith("numpy")]
        # Same blobs where NumPy cannot be imported at all.
        assert blobs == child_json(SWEEP, block_numpy=True)[1]
