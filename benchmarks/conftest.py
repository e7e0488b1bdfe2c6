"""Benchmark harness configuration.

Every benchmark regenerates one table or figure of the paper and prints
the rows/series the paper reports.  Simulation-backed benchmarks run a
single round (the workload sweep itself is the benchmark); analytic
benchmarks let pytest-benchmark time them normally.
"""

import pytest

from repro.experiments.common import SweepRunner
from repro.experiments.registry import RunContext
from repro.sim.config import SystemConfig

#: Requests per core for benchmark-scale simulations (see the
#: DEFAULT_REQUESTS note in repro.experiments.common for why this stays
#: in the contention-heavy window).
BENCH_REQUESTS = 800


@pytest.fixture(scope="session")
def runner() -> SweepRunner:
    """Shared sweep runner so benchmarks reuse cached baselines."""
    return SweepRunner(system=SystemConfig(), n_requests=BENCH_REQUESTS)


@pytest.fixture(scope="session")
def quick(runner) -> RunContext:
    """The quick workload set, on the shared runner."""
    return RunContext(quick=True, n_requests=BENCH_REQUESTS, _runner=runner)


@pytest.fixture(scope="session")
def full(runner) -> RunContext:
    """Every SPEC and STREAM workload, on the shared runner."""
    return RunContext(quick=False, n_requests=BENCH_REQUESTS, _runner=runner)


def run_once(benchmark, fn, *args, **kwargs):
    """Time one execution of an expensive sweep."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              iterations=1, rounds=1)
