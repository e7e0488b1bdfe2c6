"""Long-lived request serving over the queue + store stack.

``repro serve`` turns the batch machinery (:mod:`repro.distrib`,
:mod:`repro.results`) into a daemon: clients POST scenario-recipe
requests, the daemon dedupes them by store content key, and anything
not already computed flows through the same work queue a sweep uses —
external workers if any are alive, the daemon's own sticky-degraded
execution if not.

The package splits along testability lines:

* :mod:`~repro.serve.journal` — the write-ahead request journal
  (crash recovery's source of truth).
* :mod:`~repro.serve.engine` — admission control, coalescing,
  degraded execution, replay; no sockets anywhere.
* :mod:`~repro.serve.server` — the stdlib HTTP skin and the
  SIGTERM graceful-drain lifecycle.
* :mod:`~repro.serve.client` — the deadline/retry/backoff contract
  (``repro request``).

The kill/restart/byte-compare harness is :mod:`repro.chaos`, shared
with the distributed sweep's worker chaos cases.
"""

from .client import (
    DeadlineExceeded,
    RequestOutcome,
    ServeClient,
    ServeError,
    ServeUnavailable,
)
from .engine import (
    KILL_MID_REQUEST_EXIT,
    RequestEngine,
    RequestFailed,
    RequestShed,
    ServeStats,
)
from .journal import JournalEntry, RequestJournal
from .server import ServeDaemon, endpoint_path, read_endpoint, serve_dir

__all__ = [
    "DeadlineExceeded",
    "JournalEntry",
    "KILL_MID_REQUEST_EXIT",
    "RequestEngine",
    "RequestFailed",
    "RequestJournal",
    "RequestOutcome",
    "RequestShed",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ServeStats",
    "ServeUnavailable",
    "endpoint_path",
    "read_endpoint",
    "serve_dir",
]
