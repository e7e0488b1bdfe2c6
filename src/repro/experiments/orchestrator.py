"""Parallel experiment orchestration over the registry.

The :class:`Orchestrator` takes the registered experiments (see
:mod:`repro.experiments.registry`), schedules them costliest-first
across a :mod:`multiprocessing` pool, streams per-experiment progress,
and writes three kinds of artifacts under a results directory:

* ``<name>.json`` — one artifact per experiment: config, raw result
  (JSON-converted) and headline summary metrics;
* ``summary.json`` — the whole run: options, per-experiment status and
  timings, and the paper-vs-measured rows;
* ``REPORT.md`` — the human-readable paper-vs-measured report.

Results are also cached in the content-addressed
:class:`~repro.results.store.ResultStore` shared with the scenario
artifacts (``<results-dir>/store/``): each experiment's outcome is a
blob keyed by :func:`experiment_recipe` — the experiment name plus the
full option dict — with the experiment name as an index alias, so
re-runs with the same options skip completed work and runs with
different options coexist instead of overwriting.  ``force=True``
bypasses (and refreshes) the cache.

Every experiment in this codebase is a deterministic function of its
options (all randomness is seeded per bank from ``seed``), so a
parallel run produces identical ``result`` and ``summary`` fields to a
serial one — the pool only changes wall-clock time (and the timing
metadata recorded alongside), never results.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from . import registry
from .registry import Experiment, RunContext
from ..results.store import (
    ResultStore,
    atomic_write_text,
    content_key,
    store_for,
)

#: Schema version embedded in artifacts and cache recipes; bump when
#: the layout changes so stale cache entries are never misread (the
#: version is part of the cache recipe, so a bump changes every key).
ARTIFACT_VERSION = 1


def experiment_recipe(
    name: str, options: Mapping[str, Any]
) -> Dict[str, Any]:
    """The explicit dict one experiment outcome is content-addressed by."""
    return {
        "kind": "experiment",
        "artifact_version": ARTIFACT_VERSION,
        "experiment": name,
        "options": dict(options),
    }


def jsonify(obj: Any) -> Any:
    """Convert an experiment result into JSON-serializable form.

    Experiment results are nested dicts/lists/tuples of numbers whose
    *keys* are sometimes floats (tMRO values, thresholds) or even
    ``inf`` (fig 5's no-tMRO point), which JSON cannot represent as
    keys.  All keys become strings; non-finite floats become strings so
    the output is strict JSON.  The conversion is deterministic, so
    equality of jsonified results is equality of experiments.
    """
    if isinstance(obj, Mapping):
        return {str(key): jsonify(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


@dataclass
class Outcome:
    """What happened to one scheduled experiment."""

    name: str
    cached: bool
    duration_s: float
    summary: Dict[str, float]
    result: Any
    config_hash: str

    def artifact(self, options: Mapping[str, Any]) -> Dict[str, Any]:
        return {
            "version": ARTIFACT_VERSION,
            "experiment": self.name,
            "config": dict(options),
            "config_hash": self.config_hash,
            "cached": self.cached,
            "duration_s": round(self.duration_s, 4),
            "summary": self.summary,
            "result": self.result,
        }


@dataclass
class RunReport:
    """Aggregate outcome of one orchestrated run."""

    options: Dict[str, Any]
    jobs: int
    outcomes: List[Outcome]
    wall_s: float
    results_dir: Path
    #: Seconds the serial path's shared sweep took (0 on the pool path).
    sweep_s: float = 0.0

    @property
    def by_name(self) -> Dict[str, Outcome]:
        return {outcome.name: outcome for outcome in self.outcomes}

    def comparison_rows(self) -> List[Dict[str, Any]]:
        """Paper-vs-measured rows for every summarized metric."""
        rows: List[Dict[str, Any]] = []
        for outcome in self.outcomes:
            paper_values = registry.get(outcome.name).paper_values
            for metric, measured in outcome.summary.items():
                paper = paper_values.get(metric)
                rows.append(
                    {
                        "experiment": outcome.name,
                        "metric": metric,
                        "paper": paper,
                        "measured": measured,
                        "ratio": (
                            measured / paper
                            if paper not in (None, 0) else None
                        ),
                    }
                )
        return rows

    def to_markdown(self) -> str:
        """The REPORT.md body."""
        ran = sum(1 for o in self.outcomes if not o.cached)
        lines = [
            "# Experiment run report",
            "",
            f"- experiments: {len(self.outcomes)} "
            f"({ran} executed, {len(self.outcomes) - ran} from cache)",
            f"- jobs: {self.jobs}",
            f"- options: `{json.dumps(self.options, sort_keys=True)}`",
            f"- wall clock: {self.wall_s:.1f} s",
            "",
            "## Paper vs measured",
            "",
            "| experiment | metric | paper | measured | measured/paper |",
            "|---|---|---:|---:|---:|",
        ]
        for row in self.comparison_rows():
            paper = "—" if row["paper"] is None else f"{row['paper']:.4g}"
            ratio = "—" if row["ratio"] is None else f"{row['ratio']:.3f}"
            lines.append(
                f"| {row['experiment']} | {row['metric']} "
                f"| {paper} | {row['measured']:.4g} | {ratio} |"
            )
        lines += [
            "",
            "## Timings",
            "",
            "| experiment | source | seconds |",
            "|---|---|---:|",
        ]
        for outcome in sorted(
            self.outcomes, key=lambda o: o.duration_s, reverse=True
        ):
            source = "cache" if outcome.cached else "run"
            lines.append(
                f"| {outcome.name} | {source} | {outcome.duration_s:.2f} |"
            )
        return "\n".join(lines) + "\n"


class OrchestratorError(RuntimeError):
    """One or more experiments failed; carries their tracebacks."""


#: Per-worker-process RunContext cache so experiments executed in the
#: same worker share one SweepRunner (and therefore cached baseline
#: simulations), mirroring what the serial path does.
_WORKER_CONTEXTS: Dict[Tuple[Tuple[str, Any], ...], RunContext] = {}


def _context_for(options: Mapping[str, Any]) -> RunContext:
    key = tuple(sorted(options.items()))
    ctx = _WORKER_CONTEXTS.get(key)
    if ctx is None:
        ctx = RunContext(**dict(options))
        _WORKER_CONTEXTS[key] = ctx
    return ctx


def _execute(
    payload: Tuple[str, Dict[str, Any]],
    ctx: Optional[RunContext] = None,
) -> Dict[str, Any]:
    """Run one experiment in the current process (pool worker entry).

    Pool workers pass no ``ctx`` and share one per-process context via
    :data:`_WORKER_CONTEXTS`; the serial path passes a local context so
    nothing outlives the run.  Returns a plain dict (never raises) so
    pool communication stays picklable even when the experiment itself
    fails.
    """
    name, options = payload
    registry.ensure_loaded()
    try:
        experiment = registry.get(name)
        started = time.perf_counter()
        result = experiment.run(
            ctx if ctx is not None else _context_for(options)
        )
        duration = time.perf_counter() - started
        return {
            "name": name,
            "duration_s": duration,
            "summary": experiment.summary_of(result),
            "result": jsonify(result),
        }
    except Exception:
        return {"name": name, "error": traceback.format_exc()}


@dataclass
class Orchestrator:
    """Schedules registered experiments across a process pool.

    Parameters mirror the ``repro run`` CLI: ``jobs`` processes
    (1 = in-process serial), ``force`` bypasses the result cache, and
    ``options`` (quick/n_requests/seed) defines the run configuration
    every experiment receives — and therefore the cache key.
    """

    results_dir: Path = Path("results")
    jobs: int = 1
    force: bool = False
    quick: bool = True
    n_requests: int = 800
    seed: int = 0
    progress: Optional[Callable[[str], None]] = None
    #: Outcomes of the last ``run`` call, for programmatic access.
    last_report: Optional[RunReport] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        self.results_dir = Path(self.results_dir)

    # -- paths and cache -------------------------------------------------

    @property
    def store(self) -> ResultStore:
        """The content-addressed cache (shared with scenario artifacts)."""
        return store_for(self.results_dir)

    def options(self) -> Dict[str, Any]:
        return {
            "quick": self.quick,
            "n_requests": self.n_requests,
            "seed": self.seed,
        }

    def _load_cached(self, experiment: Experiment) -> Optional[Outcome]:
        data = self.store.fetch(
            experiment_recipe(experiment.name, self.options())
        )
        if data is None:
            return None
        config_hash = data.get("config_hash")
        if config_hash is None:
            return None
        summary = data.get("summary", {})
        return Outcome(
            name=experiment.name,
            cached=True,
            duration_s=float(data.get("duration_s", 0.0)),
            # The blob's keys are sorted: restore summarize's order.
            summary={key: summary[key]
                     for key in data.get("summary_order", summary)},
            result=data.get("result"),
            config_hash=config_hash,
        )

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    # -- execution -------------------------------------------------------

    def run(self, only: Optional[Iterable[str]] = None) -> RunReport:
        """Run the selected experiments; returns the aggregate report.

        ``only`` accepts experiment names and/or tags (``None`` runs
        everything registered).  Scheduling is costliest-first so the
        longest sweeps start immediately and short analytic experiments
        fill the remaining pool slots.

        A serial run (``jobs == 1``, or one experiment to run) first
        simulates the union of the uncached experiments' points in one
        ``run_many``, emitting ``[sweep] N points (K simulated) in
        X.XXs``.  Each ``duration_s`` then excludes that simulation;
        ``summary.json``'s ``sweep_s`` holds it (0 on the pool path,
        where each experiment batches its own points).
        """
        selected = registry.select(only=only)
        if not selected:
            raise ValueError("no experiments selected")
        scheduled = sorted(selected, key=lambda e: e.cost, reverse=True)
        started = time.perf_counter()

        outcomes: Dict[str, Outcome] = {}
        to_run: List[Experiment] = []
        for experiment in scheduled:
            cached = None if self.force else self._load_cached(experiment)
            if cached is not None:
                outcomes[experiment.name] = cached
                self._emit(f"[cache] {experiment.name}")
            else:
                to_run.append(experiment)

        failures: Dict[str, str] = {}
        payloads = [(e.name, self.options()) for e in to_run]
        ctx = None
        sweep_s = 0.0
        if payloads and (self.jobs == 1 or len(payloads) == 1):
            # One run-local context lets every experiment read the
            # shared sweep's results without pinning anything in
            # module globals.
            ctx = RunContext(**self.options())
            sweep_s = self._sweep(ctx, to_run)
        for raw in self._execute_all(payloads, ctx):
            name = raw["name"]
            if "error" in raw:
                failures[name] = raw["error"]
                self._emit(f"[fail]  {name}")
                continue
            outcomes[name] = Outcome(
                name=name,
                cached=False,
                duration_s=raw["duration_s"],
                summary=raw["summary"],
                result=raw["result"],
                # One hashing scheme throughout: the artifact's
                # config_hash IS its store content key.
                config_hash=content_key(
                    experiment_recipe(name, self.options())
                ),
            )
            self._emit(f"[done]  {name}  {raw['duration_s']:.2f}s")

        if failures:
            # Don't throw away what did complete: cache the successes
            # so the retry only recomputes the failed experiments.
            for outcome in outcomes.values():
                self._write_cache_entry(outcome, self.options())
            details = "\n\n".join(
                f"--- {name} ---\n{tb}" for name, tb in failures.items()
            )
            raise OrchestratorError(
                f"{len(failures)} experiment(s) failed: "
                f"{', '.join(sorted(failures))}\n{details}"
            )

        # Report experiments in registry order regardless of scheduling.
        ordered = [outcomes[e.name] for e in selected]
        report = RunReport(
            options=self.options(),
            jobs=self.jobs,
            outcomes=ordered,
            wall_s=time.perf_counter() - started,
            results_dir=self.results_dir,
            sweep_s=sweep_s,
        )
        self._write_artifacts(report)
        self.last_report = report
        return report

    def _sweep(self, ctx: RunContext, experiments: List[Experiment]) -> float:
        """Simulate the union of ``experiments``' points in one
        ``run_many``; returns its seconds.  A failure is charged to no
        one: each experiment's own :meth:`Experiment.run` raises it."""
        declared = [e.points for e in experiments if e.points is not None]
        if not declared:
            return 0.0
        started = time.perf_counter()
        runner = ctx.sweep_runner()
        before = runner.cache_stats()
        try:
            runner.run_many(itertools.chain.from_iterable(
                points(ctx) for points in declared
            ))
        except Exception as exc:
            self._emit(f"[sweep] failed ({type(exc).__name__}: {exc}); "
                       "each experiment evaluates its own points")
            return time.perf_counter() - started
        elapsed = time.perf_counter() - started
        after = runner.cache_stats()
        self._emit(f"[sweep] {after.size - before.size} points "
                   f"({after.misses - before.misses} simulated) "
                   f"in {elapsed:.2f}s")
        return elapsed

    def _execute_all(
        self,
        payloads: Sequence[Tuple[str, Dict[str, Any]]],
        ctx: Optional[RunContext],
    ) -> Iterable[Dict[str, Any]]:
        """Yield raw execution results as they complete: in ``ctx``
        when one is given, else across a process pool."""
        if not payloads:
            return
        if ctx is not None:
            for payload in payloads:
                self._emit(f"[start] {payload[0]}")
                yield _execute(payload, ctx)
            return
        # Workers pick payloads up asynchronously, so "[start]" would
        # misstate what is actually running; report the schedule order
        # instead and let "[done]"/"[fail]" carry the real timing.
        for name, _ in payloads:
            self._emit(f"[queued] {name}")
        processes = min(self.jobs, len(payloads))
        with multiprocessing.Pool(processes=processes) as pool:
            for raw in pool.imap_unordered(_execute, payloads):
                yield raw

    # -- artifacts -------------------------------------------------------

    def _write_cache_entry(
        self, outcome: Outcome, options: Mapping[str, Any]
    ) -> None:
        # A fresh outcome overwrites any stale blob (the --force path);
        # a cache-sourced outcome only dedups against the existing one.
        self.store.put(
            experiment_recipe(outcome.name, options),
            {**outcome.artifact(options),
             "summary_order": list(outcome.summary)},
            name=outcome.name,
            kind="experiment",
            overwrite=not outcome.cached,
        )

    def _write_artifacts(self, report: RunReport) -> None:
        self.results_dir.mkdir(parents=True, exist_ok=True)
        for outcome in report.outcomes:
            artifact = outcome.artifact(report.options)
            artifact_path = self.results_dir / f"{outcome.name}.json"
            atomic_write_text(artifact_path, json.dumps(artifact, indent=2))
            self._write_cache_entry(outcome, report.options)
        summary = {
            "version": ARTIFACT_VERSION,
            "options": report.options,
            "jobs": report.jobs,
            "wall_s": round(report.wall_s, 3),
            "sweep_s": round(report.sweep_s, 3),
            "experiments": {
                outcome.name: {
                    "cached": outcome.cached,
                    "duration_s": round(outcome.duration_s, 4),
                    "summary": outcome.summary,
                }
                for outcome in report.outcomes
            },
            "comparison": report.comparison_rows(),
        }
        atomic_write_text(
            self.results_dir / "summary.json", json.dumps(summary, indent=2)
        )
        atomic_write_text(
            self.results_dir / "REPORT.md", report.to_markdown()
        )
