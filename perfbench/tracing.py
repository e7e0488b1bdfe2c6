"""Outside-in span tracing for the benchmark's traced runs.

Spans are recorded only from here: :func:`instrument` swaps the public
entry points of each layer (class methods, and module functions in
every loaded ``repro`` module that imported them by name) for thin
wrappers that time the call and read counts from its return value.
Nothing in the program changes, and an untraced run installs none of
this.

A span is ``(id, parent, name, key, thread, start, end)``; ``parent``
is the enclosing span on the same thread and ``key`` the recipe content
key where the layer knows one (serve requests).  Spans stay in memory
and are written out as JSON lines when the run ends.  A layer's self
time is its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Experiments registered at the commit that defined the benchmark; one
#: ``experiments.<name>.s`` metric each.
EXPERIMENTS = (
    "ablation", "energy", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig18", "fig19",
    "table1", "table2", "table3", "storage",
)

#: Every per-layer metric a traced run emits, with its unit, in layer
#: order.  Layers a workload does not exercise read 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((f"experiments.{name}.s", "s") for name in EXPERIMENTS),
    ("sweep.run_many.calls", "count"),
    ("sweep.run_many.s", "s"),
    ("sweep.cache_hits", "count"),
    ("sim.run.calls", "count"),
    ("sim.run.s", "s"),
    ("sim.cycles", "count"),
    ("sim.ns_per_cycle", "ns"),
    ("batch.s", "s"),
    ("batch.self_s", "s"),
    ("batch.leaders", "count"),
    ("batch.replayed", "count"),
    ("batch.fallbacks", "count"),
    ("batch.singletons", "count"),
    ("batch.vector_replays", "count"),
    ("batch.python_replays", "count"),
    ("batch.replay_ratio", "ratio"),
    ("memctrl.demand_acts", "count"),
    ("memctrl.mitigative_acts", "count"),
    ("memctrl.rfms", "count"),
    ("memctrl.row_hit_rate", "ratio"),
    ("trackers.rfm_mitigations", "count"),
    ("workloads.compile.calls", "count"),
    ("workloads.compile.s", "s"),
    ("workloads.trace_cache_hit_rate", "ratio"),
    ("store.put.calls", "count"),
    ("store.put.s", "s"),
    ("store.get.calls", "count"),
    ("store.get.s", "s"),
    ("serve.submit.s", "s"),
    ("journal.record.s", "s"),
    ("journal.resolve.s", "s"),
    ("serve.hits", "count"),
    ("serve.coalesced", "count"),
    ("serve.accepted", "count"),
    ("serve.shed", "count"),
    ("queue.submit.s", "s"),
    ("queue.claim.s", "s"),
    ("queue.complete.s", "s"),
    ("invariants.fast.s", "s"),
    ("invariants.reference.s", "s"),
    ("fuzz.candidates", "count"),
    ("fuzz.check.s", "s"),
    ("import.repro_cli_s", "s"),
    ("import.numpy_eager", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)

#: Span name prefix -> the program layer its self time is charged to.
LAYERS = (
    ("experiments.", "experiments"),
    ("sweep.", "experiments.common"),
    ("batch", "sim.batch"),
    ("sim.reference", "sim.reference"),
    ("sim.", "sim"),
    ("workloads.", "workloads"),
    ("store.", "results"),
    ("serve.", "serve"),
    ("journal.", "serve"),
    ("queue.", "distrib"),
    ("invariants.", "security"),
    ("fuzz.", "scenarios.fuzz"),
    ("client.", "client"),
)

#: Name of the root span around a workload's timed work.
ROOT = "workload"


#: Prefixes of the spans that wrap a workload's whole unit of work.  Their
#: self time is what the inner layers do not explain, so
#: ``trace.coverage`` leaves it out.
OUTER = ("experiments.", "sweep.", "fuzz.", "client.")


def is_outer(name: str) -> bool:
    """Whether a span is the root or an outermost layer."""
    return name == ROOT or name.startswith(OUTER)


def layer_of(name: str) -> str:
    """The program layer a span name belongs to (``bench`` for the root)."""
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "bench"


class Tracer:
    """In-memory span recorder plus the counters read at span ends."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self) -> Optional[str]:
        """Name of the open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][2] if stack else None

    def begin(self, name: str, key: Optional[str] = None) -> List[Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if key is None and parent is not None:
            key = parent[3]
        if key is None:
            thread = threading.current_thread().name
            if thread.startswith("resolve-"):
                key = thread[len("resolve-"):]
        with self._lock:
            self._next_id += 1
            span = [
                self._next_id, parent[0] if parent else None, name, key,
                threading.get_ident(), time.perf_counter(), None,
            ]
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: List[Any]) -> None:
        span[6] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- wrapping --------------------------------------------------------

    def wrap_method(
        self, owner: type, attr: str, name: Callable[..., str] | str,
        after: Optional[Callable[..., None]] = None,
        skip_inside: Optional[str] = None,
        key: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        """Time ``owner.attr``; ``name`` may derive the span name from
        the call, ``after(result, *args)`` reads counts off the return
        value, and ``skip_inside`` suppresses the span when it would
        nest directly in a span of that name (re-entrant entry points).
        """
        original = getattr(owner, attr)
        wrapper = self._wrapper(original, name, after, skip_inside, key)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_function(
        self, module: str, attr: str, name: Callable[..., str] | str,
        after: Optional[Callable[..., None]] = None,
        key: Optional[Callable[..., Optional[str]]] = None,
        impl: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Time a module function everywhere it was imported by name.

        ``impl``, when given, is called in place of the original (same
        signature) — how the benchmark hands its own stats object to a
        function whose callers pass none.
        """
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrapper(original, name, after, None, key, impl)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for field, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, field, original))
                    setattr(mod, field, wrapper)

    def _wrapper(self, original, name, after, skip_inside, key, impl=None):
        tracer = self
        call = impl if impl is not None else original

        def traced(*args, **kwargs):
            if skip_inside is not None and tracer.innermost() == skip_inside:
                result = call(*args, **kwargs)
            else:
                span_name = name(*args, **kwargs) if callable(name) else name
                span = tracer.begin(
                    span_name, key(*args, **kwargs) if key else None
                )
                try:
                    result = call(*args, **kwargs)
                finally:
                    tracer.end(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = original
        return traced

    def uninstall(self) -> None:
        """Put every wrapped attribute back (reverse order)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (called once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "name", "key", "thread", "start", "end")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (duration minus child coverage)."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1] is not None and span[6] is not None:
                children[span[1]] += span[6] - span[5]
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[6] is not None:
                totals[span[2]] += span[6] - span[5] - children[span[0]]
        return dict(totals)

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``(calls, inclusive seconds)`` per span name."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if span[6] is not None:
                entry = out[span[2]]
                entry[0] += 1
                entry[1] += span[6] - span[5]
        return {name: (int(c), s) for name, (c, s) in out.items()}


def instrument(tracer: Tracer) -> Dict[str, Any]:
    """Wrap every layer's public entry points; returns live stats holders.

    Must run after the workload's imports (so by-name imports exist to
    be rebound) and before its timed work.
    """
    from repro.distrib.queue import FileWorkQueue
    from repro.experiments.common import SweepRunner
    from repro.experiments.registry import Experiment
    from repro.results.store import ResultStore, content_key
    from repro.serve.client import ServeClient
    from repro.serve.engine import RequestEngine
    from repro.serve.journal import RequestJournal
    from repro.serve.server import recipe_from_request
    from repro.sim.batch import BatchStats
    from repro.sim.reference import ReferenceSimulator
    from repro.sim.system import SystemSimulator

    counts = tracer.counts
    batch_stats = BatchStats()
    runners: Dict[int, Any] = {}

    tracer.wrap_method(
        Experiment, "run", lambda self, ctx: f"experiments.{self.name}"
    )

    def saw_runner(result, runner, *args, **kwargs):
        runners[id(runner)] = runner

    tracer.wrap_method(
        SweepRunner, "run_many", "sweep.run_many", after=saw_runner
    )

    from repro.sim.batch import simulate_batch as real_batch

    def simulate_batch(points, *args, stats=None, **kwargs):
        own = stats if stats is not None else BatchStats()
        before = {f: getattr(own, f) for f in BatchStats.__slots__}
        try:
            return real_batch(points, *args, stats=own, **kwargs)
        finally:
            for f in BatchStats.__slots__:
                setattr(batch_stats, f, getattr(batch_stats, f)
                        + getattr(own, f) - before[f])

    tracer.wrap_function(
        "repro.sim.batch", "simulate_batch", "batch", impl=simulate_batch
    )

    def finished(result, *args, **kwargs):
        counts["sim.run.calls"] += 1
        counts["sim.cycles"] += result.elapsed_cycles
        counts["memctrl.demand_acts"] += result.counts.demand_acts
        counts["memctrl.mitigative_acts"] += result.counts.mitigative_acts
        counts["memctrl.rfms"] += result.counts.rfms
        counts["memctrl.row_hits"] += result.row_hits
        counts["memctrl.row_accesses"] += (
            result.row_hits + result.row_misses + result.row_conflicts
        )
        counts["trackers.rfm_mitigations"] += result.rfm_mitigations

    for attr in ("run", "run_until"):
        tracer.wrap_method(
            SystemSimulator, attr, "sim.run", skip_inside="sim.run"
        )
        tracer.wrap_method(
            ReferenceSimulator, attr, "sim.reference",
            skip_inside="sim.reference",
        )
    tracer.wrap_method(
        SystemSimulator, "finish", "sim.run", after=finished,
        skip_inside="sim.run",
    )
    tracer.wrap_method(
        ReferenceSimulator, "finish", "sim.reference",
        skip_inside="sim.reference",
    )

    for attr in ("compiled_rate_mode_traces", "compiled_source_traces"):
        tracer.wrap_function(
            "repro.workloads.compiled", attr, "workloads.compile"
        )

    tracer.wrap_method(ResultStore, "put", "store.put",
                       key=lambda self, recipe, *a, **k: content_key(recipe))
    tracer.wrap_method(ResultStore, "get", "store.get",
                       key=lambda self, key, *a, **k: key)
    tracer.wrap_function("repro.results.store", "atomic_write_text",
                         "store.write_text")
    tracer.wrap_method(
        ServeClient, "request", "client.request",
        key=lambda self, body, *a, **k: content_key(recipe_from_request(body)),
    )
    tracer.wrap_method(RequestEngine, "submit", "serve.submit",
                       key=lambda self, recipe, *a, **k: content_key(recipe))
    tracer.wrap_method(RequestJournal, "record", "journal.record",
                       key=lambda self, key, *a, **k: key)
    tracer.wrap_method(RequestJournal, "resolve", "journal.resolve",
                       key=lambda self, key, *a, **k: key)
    tracer.wrap_method(FileWorkQueue, "submit", "queue.submit",
                       key=lambda self, recipe, *a, **k: content_key(recipe))
    tracer.wrap_method(FileWorkQueue, "claim", "queue.claim")
    tracer.wrap_method(FileWorkQueue, "complete", "queue.complete",
                       key=lambda self, task_id, *a, **k: task_id)

    def monitored_name(sim, *args, **kwargs):
        engine = (
            "reference" if isinstance(sim, ReferenceSimulator) else "fast"
        )
        return f"invariants.{engine}"

    tracer.wrap_function(
        "repro.security.invariants", "monitored_run", monitored_name
    )
    tracer.wrap_function("repro.scenarios.fuzz", "check_scenario",
                         "fuzz.check")
    return {"batch": batch_stats, "runners": runners}


def layer_metrics(
    tracer: Tracer, holders: Dict[str, Any], extra: Dict[str, float]
) -> Dict[str, float]:
    """The per-layer metrics this child can compute (all but the
    import probe and the traced-minus-untraced overhead, which the
    parent measures)."""
    from repro.workloads.compiled import compiled_cache_stats

    totals = tracer.totals()
    self_s = tracer.self_times()
    counts = tracer.counts

    def seconds(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    out: Dict[str, float] = {}
    for name in EXPERIMENTS:
        out[f"experiments.{name}.s"] = seconds(f"experiments.{name}")
    runners = holders["runners"].values()
    out["sweep.run_many.calls"] = calls("sweep.run_many")
    out["sweep.run_many.s"] = seconds("sweep.run_many")
    out["sweep.cache_hits"] = sum(r.cache_stats().hits for r in runners)
    out["sim.run.calls"] = counts["sim.run.calls"]
    out["sim.run.s"] = seconds("sim.run")
    out["sim.cycles"] = counts["sim.cycles"]
    out["sim.ns_per_cycle"] = (
        out["sim.run.s"] * 1e9 / out["sim.cycles"] if out["sim.cycles"]
        else 0.0
    )
    batch = holders["batch"]
    out["batch.s"] = seconds("batch")
    out["batch.self_s"] = self_s.get("batch", 0.0)
    for field in ("leaders", "replayed", "fallbacks", "singletons",
                  "vector_replays", "python_replays"):
        out[f"batch.{field}"] = getattr(batch, field)
    followers = batch.replayed + batch.fallbacks
    out["batch.replay_ratio"] = batch.replayed / followers if followers else 0.0
    for name in ("memctrl.demand_acts", "memctrl.mitigative_acts",
                 "memctrl.rfms", "trackers.rfm_mitigations"):
        out[name] = counts[name]
    out["memctrl.row_hit_rate"] = (
        counts["memctrl.row_hits"] / counts["memctrl.row_accesses"]
        if counts["memctrl.row_accesses"] else 0.0
    )
    cache = compiled_cache_stats()
    lookups = cache.hits + cache.misses
    out["workloads.compile.calls"] = calls("workloads.compile")
    out["workloads.compile.s"] = seconds("workloads.compile")
    out["workloads.trace_cache_hit_rate"] = (
        cache.hits / lookups if lookups else 0.0
    )
    for name in ("store.put", "store.get"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = seconds(name)
    for name in ("serve.submit", "journal.record", "journal.resolve",
                 "queue.submit", "queue.claim", "queue.complete",
                 "invariants.fast", "invariants.reference", "fuzz.check"):
        out[f"{name}.s"] = seconds(name)
    for name in ("serve.hits", "serve.coalesced", "serve.accepted",
                 "serve.shed", "fuzz.candidates"):
        out[name] = extra.get(name, 0)
    root = seconds(ROOT)
    covered = sum(s for name, s in self_s.items() if not is_outer(name))
    out["trace.coverage"] = covered / root if root else 0.0
    return out
