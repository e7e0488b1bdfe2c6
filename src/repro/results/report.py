"""Compare scenario artifacts across two result stores.

``repro scenario report A B`` diffs the latest run of every scenario
name present in both stores, security and performance metric by
metric.  Each side may be a results directory (the store lives at
``<dir>/store``) or a store root itself.

A ratio column (``B/A``) makes cross-commit drift obvious: check out
two commits, run the same presets into two results dirs, and report
them against each other.  Non-finite-free payloads are guaranteed by
the store, so the report never chokes on ``Infinity`` artifacts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .store import ResultStore, store_for

#: Index kinds the report treats as scenario runs.
SCENARIO_KIND = "scenario"


def resolve_store(path: Path) -> ResultStore:
    """A store from a results dir or a store root.

    ``<path>/aliases`` or ``<path>/objects`` marks ``path`` as the
    store itself; otherwise the conventional ``<path>/store`` is used.
    """
    path = Path(path)
    if (path / "aliases").is_dir() or (path / "objects").is_dir():
        return ResultStore(path)
    return store_for(path)


def latest_runs(store: ResultStore) -> Dict[str, Dict[str, Any]]:
    """Latest scenario report payload per name in ``store``, rebuilt
    from its two legs (:func:`~repro.scenarios.run.stored_report`);
    names without both ``sweep-task`` legs (an older store) are skipped.
    """
    from ..scenarios.run import stored_report

    runs: Dict[str, Dict[str, Any]] = {}
    for entry in store.entries(kind=SCENARIO_KIND):
        report = stored_report(store, entry["key"], entry["name"])
        if report is not None:
            runs[entry["name"]] = {"entry": entry, "payload": report.to_json()}
    return runs


def _numeric(value: Any) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def compare_stores(
    store_a: ResultStore, store_b: ResultStore
) -> Tuple[
    List[Dict[str, Any]], List[str], List[str], List[Dict[str, Any]]
]:
    """Metric rows for every scenario present in both stores.

    Returns ``(rows, only_a, only_b, mismatched)``.  A row carries
    ``a``/``b`` values (None when that side recorded null, e.g. a
    stalled victim's slowdown) and ``ratio`` (``b / a`` when both are
    finite and ``a`` is non-zero).  ``mismatched`` flags shared names
    whose two sides were run with different shapes (the index entries'
    ``meta``: ``n_requests``/``seed``) — their ratios mix run-shape
    differences with real drift, so the report calls them out.
    """
    runs_a, runs_b = latest_runs(store_a), latest_runs(store_b)
    shared = [name for name in runs_a if name in runs_b]
    only_a = [name for name in runs_a if name not in runs_b]
    only_b = [name for name in runs_b if name not in runs_a]
    rows: List[Dict[str, Any]] = []
    mismatched: List[Dict[str, Any]] = []
    for name in shared:
        meta_a = runs_a[name]["entry"].get("meta")
        meta_b = runs_b[name]["entry"].get("meta")
        if meta_a != meta_b:
            mismatched.append(
                {"scenario": name, "meta_a": meta_a, "meta_b": meta_b}
            )
        metrics_a = runs_a[name]["payload"].get("metrics", {})
        metrics_b = runs_b[name]["payload"].get("metrics", {})
        for metric in metrics_a:
            if metric not in metrics_b:
                continue
            a = _numeric(metrics_a[metric])
            b = _numeric(metrics_b[metric])
            if metrics_a[metric] is None and metrics_b[metric] is None:
                continue
            rows.append(
                {
                    "scenario": name,
                    "metric": metric,
                    "a": a,
                    "b": b,
                    "ratio": b / a if a not in (None, 0.0) and b is not None
                    else None,
                }
            )
    return rows, only_a, only_b, mismatched


def _fmt(value: Optional[float], width: int = 12) -> str:
    return f"{'—':>{width}}" if value is None else f"{value:>{width}.6g}"


def render_report(
    rows: List[Dict[str, Any]],
    only_a: List[str],
    only_b: List[str],
    label_a: str,
    label_b: str,
    mismatched: Optional[List[Dict[str, Any]]] = None,
) -> str:
    """The human-readable diff table."""
    lines = [
        f"A: {label_a}",
        f"B: {label_b}",
    ]
    for mismatch in mismatched or []:
        lines.append(
            f"warning: {mismatch['scenario']} run shapes differ — "
            f"A {mismatch['meta_a']} vs B {mismatch['meta_b']}; "
            f"its ratios mix run-shape changes with real drift"
        )
    lines += [
        "",
        f"{'scenario':<26} {'metric':<30} {'A':>12} {'B':>12} "
        f"{'B/A':>8}",
    ]
    for row in rows:
        ratio = "" if row["ratio"] is None else f"{row['ratio']:8.3f}"
        lines.append(
            f"{row['scenario']:<26} {row['metric']:<30} "
            f"{_fmt(row['a'])} {_fmt(row['b'])} {ratio:>8}"
        )
    compared = len({row["scenario"] for row in rows})
    summary = f"({compared} scenario(s) compared"
    if only_a:
        summary += f"; only in A: {', '.join(only_a)}"
    if only_b:
        summary += f"; only in B: {', '.join(only_b)}"
    lines.append(summary + ")")
    return "\n".join(lines)


def run_report(dir_a: Path, dir_b: Path) -> int:
    """Print the diff of two stores; exit status for the CLI.

    Exits non-zero when nothing was comparable, so a broken store path
    or an empty run cannot silently pass a CI gate.
    """
    store_a, store_b = resolve_store(dir_a), resolve_store(dir_b)
    rows, only_a, only_b, mismatched = compare_stores(store_a, store_b)
    if not rows:
        print(
            f"no comparable scenario artifacts between "
            f"{store_a.root} and {store_b.root}"
        )
        return 2
    print(render_report(rows, only_a, only_b,
                        str(store_a.root), str(store_b.root),
                        mismatched=mismatched))
    return 0
