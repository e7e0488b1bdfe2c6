"""Client for the ``repro serve`` daemon (used by ``repro request``).

The retry contract lives here, not in the server.  Because a request's
identity is its content key, *resubmission is idempotent*: a client
that times out, hits a shed, or loses the TCP connection simply sends
the same body again, and the daemon coalesces it onto the in-flight
entry or answers from the store.  That turns every failure mode into
the same loop:

* connection refused / reset → jittered exponential backoff, resubmit;
* 429 / 503 shed → sleep the server's ``Retry-After`` (jittered), resubmit;
* 202 pending → remember the key, poll ``GET /result/<key>``;
* 404 on a poll (daemon restarted before journaling us) → resubmit;
* 200 → done; 500 → the task poisoned, raise with the server's detail.

One knob bounds the whole thing: ``deadline_s`` is the caller's total
budget.  When it expires the client raises :class:`DeadlineExceeded`
carrying the content key (when one was assigned), so the caller can
re-poll later — the daemon keeps working; a deadline bounds the *wait*,
never the work.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

#: Backoff schedule for connection errors and unannotated retries.
BACKOFF_BASE_S = 0.1
BACKOFF_MAX_S = 2.0

#: How often a client re-polls ``/result/<key>`` after a 202.
DEFAULT_POLL_S = 0.2

DEFAULT_DEADLINE_S = 120.0
DEFAULT_WAIT_S = 10.0


class ServeError(RuntimeError):
    """The daemon answered with something unrecoverable (400/500)."""


class ServeUnavailable(ServeError):
    """No daemon reachable (no endpoint file, or nothing listening)."""


class DeadlineExceeded(ServeError):
    """``deadline_s`` ran out.  Carries the key for later re-polling."""

    def __init__(self, message: str, key: Optional[str] = None) -> None:
        super().__init__(message)
        self.key = key


@dataclass
class RequestOutcome:
    """A completed request plus the effort it took."""

    key: str
    payload: Dict[str, Any]
    source: str          # "hit" | "coalesced" | "accepted" | "poll"
    submits: int = 0     # POST /request round trips
    polls: int = 0       # GET /result round trips
    retries: int = 0     # backoff sleeps (sheds + connection errors)
    elapsed_s: float = 0.0


class ServeClient:
    """One daemon endpoint plus the deadline/retry policy."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 10.0,
        poll_s: float = DEFAULT_POLL_S,
        rng: Optional[random.Random] = None,
        sleep=time.sleep,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep

    @classmethod
    def from_results_dir(
        cls, results_dir: Path, **kwargs: Any
    ) -> "ServeClient":
        """Discover the daemon via its advertised endpoint file."""
        from .server import endpoint_path, read_endpoint

        endpoint = read_endpoint(Path(results_dir))
        if endpoint is None:
            raise ServeUnavailable(
                f"no serve endpoint at {endpoint_path(Path(results_dir))} "
                "(is 'repro serve' running?)"
            )
        return cls(endpoint["host"], endpoint["port"], **kwargs)

    # -- raw HTTP --------------------------------------------------------

    def call(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One round trip; raises ``OSError`` on transport failure."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                data = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                data = {"error": raw.decode(errors="replace")}
            return response.status, data
        finally:
            conn.close()

    def healthz(self) -> Dict[str, Any]:
        code, data = self.call("GET", "/healthz")
        if code != 200:
            raise ServeError(f"/healthz returned {code}: {data}")
        return data

    def status(self) -> Dict[str, Any]:
        code, data = self.call("GET", "/status")
        if code != 200:
            raise ServeError(f"/status returned {code}: {data}")
        return data

    def result(self, key: str) -> Tuple[int, Dict[str, Any]]:
        """Poll one content key (200/202/404/500 pass through)."""
        return self.call("GET", f"/result/{key}")

    # -- the retry loop --------------------------------------------------

    def _backoff(self, attempt: int, hint: Optional[float] = None) -> float:
        base = hint if hint is not None else min(
            BACKOFF_BASE_S * (2 ** attempt), BACKOFF_MAX_S
        )
        return base * (0.5 + self._rng.random())

    def request(
        self,
        body: Dict[str, Any],
        deadline_s: float = DEFAULT_DEADLINE_S,
        wait_s: float = DEFAULT_WAIT_S,
    ) -> RequestOutcome:
        """Drive ``body`` to completion within ``deadline_s``.

        ``body`` is a ``POST /request`` payload — ``{"recipe": {...}}``
        or ``{"scenario": name, "n_requests": N, "seed": S}``.  The
        per-round-trip ``wait_s`` is forwarded to the server (and
        clipped to the remaining deadline) so one slow call can never
        eat the whole budget.
        """
        started = time.monotonic()
        outcome = RequestOutcome(key="", payload={}, source="")
        key: Optional[str] = None
        errors = 0

        def remaining() -> float:
            return deadline_s - (time.monotonic() - started)

        while True:
            budget = remaining()
            if budget <= 0:
                raise DeadlineExceeded(
                    f"request deadline ({deadline_s:.1f}s) exceeded"
                    + (f"; re-poll key {key}" if key else ""),
                    key=key,
                )
            try:
                if key is None:
                    code, data = self.call(
                        "POST", "/request",
                        {**body, "wait_s": min(wait_s, budget)},
                    )
                    outcome.submits += 1
                else:
                    code, data = self.result(key)
                    outcome.polls += 1
            except OSError:
                errors += 1
                outcome.retries += 1
                self._sleep(min(self._backoff(errors), max(0.0, remaining())))
                continue
            errors = 0
            if code == 200:
                outcome.key = data.get("key", key or "")
                outcome.payload = data["payload"]
                outcome.source = data.get("source", "poll")
                outcome.elapsed_s = time.monotonic() - started
                return outcome
            if code == 202:
                if key is None:
                    key = data.get("key")
                    outcome.source = data.get("source", "accepted")
                self._sleep(
                    min(self._backoff(0, hint=self.poll_s),
                        max(0.0, remaining()))
                )
                continue
            if code in (429, 503):
                outcome.retries += 1
                hint = float(data.get("retry_after_s", 0) or 0) or None
                self._sleep(
                    min(self._backoff(outcome.retries, hint=hint),
                        max(0.0, remaining()))
                )
                continue
            if code == 404 and key is not None:
                # The daemon restarted and never journaled us (the
                # crash landed before our journal write).  Content
                # addressing makes resubmission safe.
                key = None
                continue
            raise ServeError(
                f"serve request failed ({code}): "
                f"{data.get('error') or data}"
            )
