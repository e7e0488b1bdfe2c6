"""The benchmark's four workloads: set up, run the timed work, check it.

Each workload is built from the workload seed alone and runs inside one
fresh interpreter (see ``child.py``).  ``prepare`` is the set-up a user
waits for before the first operation can be issued; ``execute`` is the
timed unit of work; ``check`` verifies the outputs outside the timed
window and counts every mismatch as a failed operation.

Output checks: at the default seed (0, full size) digests are compared
with ``pins.json``, which ``pin.py`` computes through the oracle path
(per-point fast-engine runs, never the batch tier being timed).  At any
other seed a seeded sample of points is recomputed through
``simulate_workload(engine="fast")``.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

#: The seed whose outputs are pinned in ``pins.json``.
PINNED_SEED = 0

#: Points recomputed through the fast engine when no pin applies.
SAMPLE_POINTS = 4

#: Work per iteration.  ``small`` is the self-test's reduced size.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "paper_quick": {"n_requests": 800, "only": None},
        "attack_sweep": {"n_requests": 800, "presets": None},
        "serve_mix": {"n_requests": 400, "misses": 50, "hits_per_miss": 3,
                      "dup_every": 5},
        "fuzz_budget": {"walks": 20, "budget": 8, "n_requests": 160},
    },
    "small": {
        "paper_quick": {"n_requests": 40,
                        "only": ["fig4", "table1", "fig13"]},
        "attack_sweep": {"n_requests": 40, "presets": 1},
        "serve_mix": {"n_requests": 40, "misses": 4, "hits_per_miss": 2,
                      "dup_every": 2},
        "fuzz_budget": {"walks": 1, "budget": 2, "n_requests": 40},
    },
}


def digest(value: Any) -> str:
    """Short sha256 of a value's canonical JSON (sorted keys, compact)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pins(workload: str, seed: int, size: str) -> Optional[Any]:
    """The pinned digests for this run, or None when none apply."""
    if seed != PINNED_SEED or size != "full" or not PINS_PATH.is_file():
        return None
    return json.loads(PINS_PATH.read_text()).get(workload)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Check:
    """Outcome of one output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.extras: Dict[str, Any] = {}

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(note)


def recompute_fast(workload, defense, system, n_requests, tmro_ns, seed):
    """One point through the fast engine, as the result's JSON blob."""
    from repro.sim.system import simulate_workload

    return simulate_workload(
        workload, defense=defense, system=system,
        n_requests_per_core=n_requests, tmro_ns=tmro_ns, seed=seed,
        engine="fast",
    ).to_json()


class Workload:
    """Base: one workload instance for one seed and size."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path,
                 traced: bool = False) -> None:
        self.seed = seed
        self.size = size
        self.cfg = SIZES[size][self.name]
        self.workdir = workdir
        self.traced = traced
        #: Set by workloads whose set-up is not the interpreter start.
        self.setup_s: Optional[float] = None

    def prepare(self) -> None:
        raise NotImplementedError

    def execute(self) -> Any:
        raise NotImplementedError

    def check(self, outputs: Any) -> Check:
        raise NotImplementedError

    def close(self) -> None:
        """Stop anything ``prepare`` started."""

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def layer_counts(self, outputs: Any) -> Dict[str, float]:
        """Per-layer counts read from this workload's own outputs."""
        return {}


class SweepRecorder:
    """Keeps each ``SweepRunner.run_many`` call's points and results.

    Installed in every paper_quick run (traced or not) so the sampled
    check can recompute points the experiments actually evaluated; it
    only stores references, so it costs nothing measurable.
    """

    def __init__(self) -> None:
        from repro.experiments.common import SweepRunner

        self.calls: List[Tuple[Any, list, list]] = []
        original = SweepRunner.run_many
        calls = self.calls

        def run_many(runner, points, *args, **kwargs):
            points = list(points)
            results = original(runner, points, *args, **kwargs)
            calls.append((runner, points, results))
            return results

        SweepRunner.run_many = run_many

    def sample(self, rng: random.Random, k: int):
        """Up to ``k`` distinct recorded ``(runner, point, result)``."""
        from repro.experiments.common import _normalize_point

        seen = {}
        for runner, points, results in self.calls:
            for point, result in zip(points, results):
                key = _normalize_point(point)
                seen.setdefault(key, (runner, key, result))
        keys = sorted(seen, key=repr)
        return [seen[key] for key in rng.sample(keys, min(k, len(keys)))]


class PaperQuick(Workload):
    """``Orchestrator(jobs=1, quick=True).run()`` into an empty dir."""

    name = "paper_quick"

    def prepare(self) -> None:
        from repro.experiments import registry
        from repro.experiments.orchestrator import Orchestrator

        registry.ensure_loaded()
        self.recorder = SweepRecorder()
        self.orchestrator = Orchestrator(
            results_dir=self.workdir / "paper", jobs=1, quick=True,
            n_requests=self.cfg["n_requests"], seed=self.seed,
        )

    def execute(self):
        return self.orchestrator.run(only=self.cfg["only"])

    def check(self, report) -> Check:
        check = Check()
        digests = {o.name: digest(o.result) for o in report.outcomes}
        check.attempted = len(digests)
        pins = load_pins(self.name, self.seed, self.size)
        if pins is not None:
            for name, pinned in sorted(pins.items()):
                if digests.get(name) != pinned:
                    check.fail(1, f"{name}: result digest "
                                  f"{digests.get(name)} != pinned {pinned}")
        else:
            rng = random.Random(self.seed)
            for runner, key, result in self.recorder.sample(
                rng, SAMPLE_POINTS
            ):
                check.attempted += 1
                workload, defense, tmro_ns = key
                expected = recompute_fast(
                    workload, defense, runner.system, runner.n_requests,
                    tmro_ns, runner.seed,
                )
                if result.to_json() != expected:
                    check.fail(1, f"sweep point {key!r} differs from "
                                  "its fast-engine recomputation")
        check.extras["paper_err"] = paper_error(report)
        check.extras["digest"] = digest(sorted(digests.items()))
        return check


def paper_error(report) -> Optional[float]:
    """Mean |measured - paper| / |paper| over the registry's paper values."""
    errors = [
        abs(row["measured"] - row["paper"]) / abs(row["paper"])
        for row in report.comparison_rows()
        if row["paper"] not in (None, 0)
    ]
    return sum(errors) / len(errors) if errors else None


def attack_points(presets: Optional[int] = None):
    """Co-located attacker presets x trackers x schemes, plus baselines.

    Per preset: every (tracker, scheme) defense, the undefended attack,
    and the undefended victim-only baseline.
    """
    from repro.scenarios import get_scenario, scenario_names
    from repro.sim.config import SCHEME_NAMES, TRACKER_NAMES, DefenseConfig

    specs = [get_scenario(name) for name in scenario_names()]
    attacked = [spec for spec in specs if not spec.is_benign()]
    points = []
    for spec in attacked[:presets]:
        points.append(spec.with_defense(None))
        points.append(spec.baseline().with_defense(None))
        for tracker in TRACKER_NAMES:
            if tracker == "none":
                continue
            for scheme in SCHEME_NAMES:
                points.append(spec.with_defense(
                    DefenseConfig(tracker=tracker, scheme=scheme)
                ))
    return points


class AttackSweep(Workload):
    """One ``SweepRunner.run_many`` over the attacker x defense grid."""

    name = "attack_sweep"

    def prepare(self) -> None:
        from repro.experiments.common import SweepRunner

        self.points = attack_points(self.cfg["presets"])
        self.runner = SweepRunner(
            n_requests=self.cfg["n_requests"], seed=self.seed
        )

    def execute(self):
        return self.runner.run_many(self.points)

    def check(self, results) -> Check:
        check = Check()
        check.attempted = len(self.points)
        blobs = [result.to_json() for result in results]
        digests = [digest(blob) for blob in blobs]
        pins = load_pins(self.name, self.seed, self.size)
        if pins is not None:
            if len(pins) != len(digests):
                check.fail(len(self.points),
                           f"{len(digests)} points, {len(pins)} pinned")
            else:
                for index, (got, pinned) in enumerate(zip(digests, pins)):
                    if got != pinned:
                        check.fail(1, f"point {index} "
                                      f"({self.points[index].defense_summary()})"
                                      f" digest {got} != pinned {pinned}")
        else:
            rng = random.Random(self.seed)
            for index in sorted(rng.sample(range(len(self.points)),
                                           min(SAMPLE_POINTS,
                                               len(self.points)))):
                spec = self.points[index]
                expected = recompute_fast(
                    spec.cores, spec.defense, spec.system,
                    self.cfg["n_requests"], spec.tmro_ns, self.seed,
                )
                check.attempted += 1
                if blobs[index] != expected:
                    check.fail(1, f"point {index} differs from its "
                                  "fast-engine recomputation")
        check.extras["digest"] = digest(digests)
        return check


def clean_fuzz_seeds(seed: int, size: str, walks: int) -> List[int]:
    """The fuzz seeds of a benchmark seed's run (every iteration's).

    At full size they are a seeded sample of the fuzz seeds ``pin.py``
    verified to find nothing at the pinned budget: some seeds find a
    real engine divergence at this commit (see README), and a benchmark
    input must not fail.  ``fuzz`` draws its candidates in order from
    the seed alone, so a seed clean at the pinned budget is clean at any
    smaller one.  The reduced self-test size uses the seed as is.
    """
    if size != "full":
        return [seed + walk for walk in range(walks)]
    pinned = json.loads(PINS_PATH.read_text())["fuzz_budget"]
    if pinned["budget"] < SIZES["full"]["fuzz_budget"]["budget"]:
        raise RuntimeError("pins.json was made for a smaller fuzz budget; "
                           "rerun perfbench/pin.py")
    return random.Random(seed).sample(pinned["clean_seeds"], walks)


class FuzzBudget(Workload):
    """``scenarios.fuzz.fuzz(s, budget)`` for several seeds ``s`` with no
    fault injected.

    One fuzz seed random-walks a region of scenario space, so its cost
    depends on the seed: 8-candidate walks of 64 seeds differ by 20%
    (standard deviation over mean).  Twenty short walks per iteration
    average that out to about 5% between benchmark seeds.
    """

    name = "fuzz_budget"

    def prepare(self) -> None:
        from repro.scenarios import fuzz as fuzz_mod
        from repro.security import faults

        if faults.active_faults():
            raise RuntimeError("a fault is injected; fuzz_budget runs clean")
        self.fuzz = fuzz_mod
        self.fuzz_seeds = clean_fuzz_seeds(self.seed, self.size,
                                           self.cfg["walks"])

    def execute(self):
        return [
            self.fuzz.fuzz(fuzz_seed, self.cfg["budget"],
                           n_requests=self.cfg["n_requests"])
            for fuzz_seed in self.fuzz_seeds
        ]

    def check(self, reports) -> Check:
        check = Check()
        budget = self.cfg["budget"]
        check.attempted = budget * len(self.fuzz_seeds)
        for report in reports:
            if report.candidates != budget:
                check.fail(budget - report.candidates,
                           f"fuzz seed {report.seed}: {report.candidates} "
                           f"of {budget} candidates checked")
            for failure in report.failures:
                check.fail(1, f"fuzz seed {report.seed} candidate "
                              f"{failure.candidate}: "
                              + "+".join(failure.signature))
        check.extras["fuzz_seeds"] = self.fuzz_seeds
        check.extras["digest"] = digest([
            [report.seed, report.candidates,
             [[f.candidate, list(f.signature)] for f in report.failures]]
            for report in reports
        ])
        return check

    def layer_counts(self, reports) -> Dict[str, float]:
        return {"fuzz.candidates": sum(r.candidates for r in reports)}


def serve_stream(seed: int, cfg: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The seeded ``POST /request`` bodies, in send order.

    Every preset gets an equal share of first-time recipes (each a fresh
    request seed, so a store miss); every fifth one is sent twice in a
    row (a concurrent duplicate the daemon coalesces); each first-time
    recipe is followed by repeats of earlier ones (store hits).
    """
    from repro.scenarios import scenario_names

    rng = random.Random(seed)
    presets = scenario_names()
    seeds = rng.sample(range(1, 1 << 20), cfg["misses"])
    firsts = [
        {"scenario": presets[index % len(presets)],
         "n_requests": cfg["n_requests"], "seed": request_seed}
        for index, request_seed in enumerate(seeds)
    ]
    rng.shuffle(firsts)
    stream: List[Dict[str, Any]] = []
    for index, body in enumerate(firsts):
        stream.append(body)
        if index % cfg["dup_every"] == cfg["dup_every"] - 1:
            stream.append(body)
        for _ in range(cfg["hits_per_miss"]):
            if index >= 2:
                stream.append(firsts[rng.randrange(index - 1)])
    return stream


def serve_recipe(body: Dict[str, Any]) -> Dict[str, Any]:
    """The task recipe the daemon builds for one request body."""
    from repro.distrib.worker import sweep_task_recipe
    from repro.scenarios import get_scenario

    return sweep_task_recipe(
        get_scenario(body["scenario"]).recipe(),
        body["n_requests"], body["seed"],
    )


class ServeMix(Workload):
    """A ``repro serve`` daemon driven by 2 closed-loop client threads.

    Untraced, the daemon is a ``python -m repro serve`` subprocess with
    shipped defaults and set-up runs until it answers ``/healthz``.
    Traced, it is hosted in-process so its public methods can be timed.
    """

    name = "serve_mix"
    clients = 2

    def prepare(self) -> None:
        from repro.results.store import content_key
        from repro.serve.client import ServeClient

        self.stream = serve_stream(self.seed, self.cfg)
        self.keys = [content_key(serve_recipe(b)) for b in self.stream]
        results_dir = self.workdir / "serve"
        self.process = None
        self.daemon = None
        started = time.monotonic()
        if self.traced:
            from repro.serve.server import ServeDaemon

            self.daemon = ServeDaemon(results_dir)
            self.daemon.start()
            self.daemon.serve_in_thread()
            host, port = self.daemon.address
        else:
            host, port = self._spawn(results_dir)
        self.client_factory = lambda: ServeClient(host, port)
        self.client_factory().healthz()
        self.setup_s = time.monotonic() - started

    def _spawn(self, results_dir: Path) -> Tuple[str, int]:
        from repro.serve.server import read_endpoint

        results_dir.mkdir(parents=True, exist_ok=True)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--results-dir", str(results_dir), "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            endpoint = read_endpoint(results_dir)
            if endpoint is not None:
                return endpoint["host"], int(endpoint["port"])
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.close()
        raise RuntimeError("repro serve did not advertise an endpoint")

    def execute(self):
        from repro.serve.client import ServeError

        lock = threading.Lock()
        cursor = iter(range(len(self.stream)))
        samples: List[Tuple[int, str, float, Optional[str], Any]] = []

        def client_loop() -> None:
            client = self.client_factory()
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                started = time.perf_counter()
                try:
                    outcome = client.request(self.stream[index])
                except ServeError as exc:
                    samples.append((index, "error",
                                    time.perf_counter() - started,
                                    None, repr(exc)))
                    continue
                source = outcome.source if not outcome.retries else "retried"
                samples.append((index, source,
                                time.perf_counter() - started,
                                outcome.key, outcome.payload))

        threads = [threading.Thread(target=client_loop)
                   for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples

    def server_stats(self) -> Dict[str, int]:
        if self.daemon is not None:
            return self.daemon.engine.stats.to_json()
        return self.client_factory().status()["stats"]

    def check(self, samples) -> Check:
        check = Check()
        check.attempted = len(samples)
        by_key: Dict[str, str] = {}
        payloads: Dict[str, Any] = {}
        latency: Dict[str, List[float]] = {}
        for index, source, seconds, key, payload in samples:
            latency.setdefault(source, []).append(seconds * 1000.0)
            if source in ("error", "retried"):
                check.fail(1, f"request {index}: {source}")
                continue
            if key != self.keys[index]:
                check.fail(1, f"request {index}: key {key} != "
                              f"{self.keys[index]}")
                continue
            got = digest(payload)
            if by_key.setdefault(key, got) != got:
                check.fail(1, f"request {index}: payload differs from an "
                              f"earlier answer for {key}")
            payloads.setdefault(key, payload)
        pins = load_pins(self.name, self.seed, self.size)
        if pins is not None:
            for index, source, _, key, payload in samples:
                if key is not None and pins.get(key) != digest(payload):
                    check.fail(1, f"request {index}: payload of {key} "
                                  "differs from the pinned oracle digest")
        else:
            from repro.scenarios import get_scenario

            rng = random.Random(self.seed)
            firsts = {}
            for index, key in enumerate(self.keys):
                firsts.setdefault(key, self.stream[index])
            for key in rng.sample(sorted(payloads),
                                  min(SAMPLE_POINTS, len(payloads))):
                body = firsts[key]
                spec = get_scenario(body["scenario"])
                expected = recompute_fast(
                    spec.cores, spec.defense, spec.system,
                    body["n_requests"], spec.tmro_ns, body["seed"],
                )
                check.attempted += 1
                if payloads[key] != expected:
                    check.fail(1, f"{key}: served payload differs from "
                                  "its fast-engine recomputation")
        check.extras["digest"] = digest(sorted(by_key.items()))
        check.extras["latency_ms"] = latency
        first = [seconds for index, _, seconds, _, _ in samples if index == 0]
        check.extras["first_ms"] = first[0] * 1000.0 if first else None
        check.extras["server"] = self.server_stats()
        return check

    def layer_counts(self, samples) -> Dict[str, float]:
        stats = self.server_stats()
        return {
            "serve.hits": stats["store_hits"],
            "serve.coalesced": stats["coalesced"],
            "serve.accepted": stats["accepted"],
            "serve.shed": stats["shed"],
        }

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.shutdown(drain_timeout_s=30.0)
            self.daemon = None
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            self.process = None

    def peak_rss_mb(self) -> float:
        if self.traced:
            return own_peak_rss_mb()
        # The daemon is this process's only child: its peak is ours to read.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {
    cls.name: cls for cls in (PaperQuick, AttackSweep, ServeMix, FuzzBudget)
}

