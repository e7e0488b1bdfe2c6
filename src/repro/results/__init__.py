"""The content-addressed result-artifact store.

* :mod:`~repro.results.store` — canonical-JSON hashing
  (:func:`~repro.results.store.content_key`), deduplicated blobs under
  ``objects/``, and the name → key alias layer (one file per alias
  under ``aliases/``) shared by scenario artifacts and the experiment
  orchestrator's cache.
* :mod:`~repro.results.report` — ``repro scenario report``: diff
  scenario metrics across two stores/commits.
"""

from .report import compare_stores, render_report, resolve_store, run_report
from .store import (
    ResultStore,
    STORE_VERSION,
    canonical_json,
    content_key,
    git_sha,
    store_for,
)

__all__ = [
    "ResultStore",
    "STORE_VERSION",
    "canonical_json",
    "compare_stores",
    "content_key",
    "git_sha",
    "render_report",
    "resolve_store",
    "run_report",
    "store_for",
]
