"""The ``repro serve`` daemon: a thin HTTP skin over the request engine.

Stdlib only (``http.server.ThreadingHTTPServer``); every robustness
property lives in :class:`~repro.serve.engine.RequestEngine`, which
this module merely translates to status codes:

====================  =====================================================
``POST /request``     admit a scenario-recipe request; 200 with the result
                      payload (store hit, coalesced, or computed), 202
                      with the content key when the caller's ``wait_s``
                      expired while the work continues, 429 + Retry-After
                      when admission control sheds, 503 + Retry-After when
                      draining, 500 when the task poisoned.
``GET /result/<key>`` re-poll by content key: 200 done / 202 pending /
                      500 failed (poison record attached) / 404 unknown.
``GET /healthz``      liveness: 200 ``{"ok": true, "draining": ...}``.
``GET /status``       the full census: in-flight set, shed counters,
                      journal depth, queue census, store stats.
====================  =====================================================

Lifecycle: :meth:`ServeDaemon.start` replays the journal *before* the
socket accepts traffic (crash recovery is not optional work that
happens if there's spare time), writes an endpoint file so clients and
harnesses can discover the bound port, and :meth:`ServeDaemon.run`
serves until SIGTERM/SIGINT — which triggers the graceful drain: stop
accepting, finish or journal in-flight work, exit 0.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..distrib.queue import FileWorkQueue, atomic_write_json
from ..distrib.worker import TASK_KIND, sweep_task_recipe
from ..results.store import store_for
from ..scenarios.spec import spec_from_recipe
from .engine import RequestEngine, RequestFailed, RequestShed
from .journal import RequestJournal

SERVE_VERSION = 1

#: Default and ceiling for how long one HTTP request blocks waiting.
DEFAULT_WAIT_S = 30.0
MAX_WAIT_S = 300.0


def serve_dir(results_dir: Path) -> Path:
    """The daemon's state directory under a results dir."""
    return Path(results_dir) / "serve"


def endpoint_path(results_dir: Path) -> Path:
    """Where a running daemon advertises its bound address."""
    return serve_dir(results_dir) / "endpoint.json"


def read_endpoint(results_dir: Path) -> Optional[Dict[str, Any]]:
    """The advertised endpoint (None when no daemon has written one)."""
    try:
        data = json.loads(endpoint_path(results_dir).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


class ServeDaemon:
    """One ``repro serve`` instance: store + queue + journal + HTTP."""

    def __init__(
        self,
        results_dir: Path,
        queue_dir: Optional[Path] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_s: float = 30.0,
        max_inflight: int = 8,
        max_waiters: int = 64,
        queue_watermark: int = 256,
        serial_grace_s: float = 2.0,
        log=None,
    ) -> None:
        self.results_dir = Path(results_dir)
        self.host = host
        self.requested_port = port
        self.log = log or (lambda message: None)
        store = store_for(self.results_dir)
        queue = FileWorkQueue(
            Path(queue_dir)
            if queue_dir is not None
            else self.results_dir / "queue",
            lease_s=lease_s,
        )
        journal = RequestJournal(serve_dir(self.results_dir) / "journal")
        self.engine = RequestEngine(
            store, queue, journal,
            max_inflight=max_inflight,
            max_waiters=max_waiters,
            queue_watermark=queue_watermark,
            serial_grace_s=serial_grace_s,
        )
        self.httpd: Optional[ThreadingHTTPServer] = None
        self._shutdown_lock = threading.Lock()
        self._shutdown_started = False
        self._shutdown_done = threading.Event()
        self._drained = False

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (only valid after :meth:`start`)."""
        assert self.httpd is not None, "daemon not started"
        return self.httpd.server_address[0], self.httpd.server_address[1]

    def start(self) -> int:
        """Replay the journal, bind the socket, advertise the endpoint.

        Returns how many journaled requests went back in flight.
        Replay happens *before* the socket exists: a recovering daemon
        is already working on its backlog when the first client
        reconnects, and ``/result/<key>`` answers for every key the
        pre-crash daemon accepted.
        """
        replayed = self.engine.replay_journal()
        handler = type(
            "_BoundHandler", (_RequestHandler,), {"daemon": self}
        )
        self.httpd = ThreadingHTTPServer(
            (self.host, self.requested_port), handler
        )
        self.httpd.daemon_threads = True
        self._write_endpoint()
        if replayed:
            self.log(f"replayed {replayed} journaled request(s)")
        return replayed

    def _write_endpoint(self) -> None:
        import os

        path = endpoint_path(self.results_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, {
            "version": SERVE_VERSION,
            "host": self.address[0],
            "port": self.address[1],
            "pid": os.getpid(),
            "started_at": time.time(),
        })

    def serve_in_thread(self) -> threading.Thread:
        """Serve from a background thread (the in-process test mode)."""
        assert self.httpd is not None, "call start() first"
        thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        return thread

    def run(
        self,
        install_signals: bool = True,
        drain_timeout_s: Optional[float] = None,
    ) -> bool:
        """Serve until SIGTERM/SIGINT, then drain; True when empty.

        The graceful-drain contract: on the first signal the daemon
        stops accepting (new submissions shed with 503), waits for the
        in-flight set to empty (bounded by ``drain_timeout_s``), and
        returns.  Anything still unfinished stays journaled, so a
        False return leaves nothing unrecoverable.
        """
        assert self.httpd is not None, "call start() first"

        def _stop(signum=None, frame=None):
            threading.Thread(
                target=self.shutdown, args=(drain_timeout_s,),
                daemon=True,
            ).start()

        if install_signals:
            signal.signal(signal.SIGTERM, _stop)
            signal.signal(signal.SIGINT, _stop)
        self.httpd.serve_forever(poll_interval=0.05)
        return self.shutdown(drain_timeout_s)

    def shutdown(self, drain_timeout_s: Optional[float] = None) -> bool:
        """Stop accepting, drain in-flight work, retire the endpoint.

        Idempotent and thread-safe: the first caller performs the
        drain, later callers (including :meth:`run`'s tail) wait for
        it and share the verdict.
        """
        with self._shutdown_lock:
            already = self._shutdown_started
            self._shutdown_started = True
        if already:
            self._shutdown_done.wait()
            return self._drained
        self.engine.draining = True
        assert self.httpd is not None
        self.httpd.shutdown()
        self._drained = self.engine.drain(drain_timeout_s)
        try:
            endpoint_path(self.results_dir).unlink()
        except OSError:
            pass
        self.httpd.server_close()
        self._shutdown_done.set()
        self.log(
            "drained clean" if self._drained
            else "drain timeout: unfinished requests remain journaled"
        )
        return self._drained


def recipe_from_request(body: Dict[str, Any]) -> Dict[str, Any]:
    """Build the task recipe one ``POST /request`` body describes.

    Two forms: ``{"recipe": {...}}`` carries an explicit sweep-task
    recipe (the idempotent resubmission path — the client round-trips
    exactly what it first sent), and ``{"scenario": "<preset>",
    "n_requests": N, "seed": S}`` names a registered preset.  Either
    way the recipe must be one a worker can run: kind ``sweep-task``, a
    scenario :func:`~repro.scenarios.spec.spec_from_recipe` accepts
    whose defense builds, a positive int ``n_requests`` and an int
    ``seed``.  Raises ``ValueError`` on anything else, before anything
    is journaled.
    """
    if "recipe" in body:
        recipe = body["recipe"]
        if not isinstance(recipe, dict):
            raise ValueError("'recipe' must be a JSON object")
    elif "scenario" in body:
        from ..scenarios import get_scenario

        try:
            spec = get_scenario(str(body["scenario"]))
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        recipe = sweep_task_recipe(
            spec.recipe(), int(body.get("n_requests", 400)),
            int(body.get("seed", 0)),
        )
    else:
        raise ValueError("request body needs 'recipe' or 'scenario'")
    if recipe.get("kind") != TASK_KIND:
        raise ValueError(
            f"recipe kind must be {TASK_KIND!r}, got {recipe.get('kind')!r}"
        )
    try:
        spec = spec_from_recipe(recipe.get("scenario"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"recipe scenario does not parse: {exc!r}") from None
    if spec.defense is not None:
        # A defense can parse and still not build (ExPress with tMRO
        # below tRAS): raise its ValueError now, not on every retry.
        # Every bank gets the same checks, so one bank shows them at
        # ~1/64 of the cost of a preset's full channel.
        spec.defense.build_scheme(spec.system.timings, 1)
    n_requests, seed = recipe.get("n_requests"), recipe.get("seed")
    for name, value in (("n_requests", n_requests), ("seed", seed)):
        # bool is an int subclass; JSON true is not a count.
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if n_requests <= 0:
        raise ValueError(f"n_requests must be positive, got {n_requests}")
    return recipe


class _RequestHandler(BaseHTTPRequestHandler):
    """Route HTTP verbs onto the engine; all bodies are JSON."""

    daemon: ServeDaemon  # bound per-daemon by ServeDaemon.start()
    server_version = "repro-serve/1"

    # -- plumbing --------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        self.daemon.log(f"{self.address_string()} {format % args}")

    def _send_json(
        self, code: int, payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up; the work (if any) continues

    def _send_shed(self, shed: RequestShed) -> None:
        code = 503 if shed.reason == "draining" else 429
        self._send_json(
            code,
            {
                "status": "shed",
                "reason": shed.reason,
                "retry_after_s": shed.retry_after_s,
            },
            headers={"Retry-After": f"{shed.retry_after_s:.0f}"},
        )

    # -- verbs -----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        """``POST /request``: admit, wait (bounded), answer."""
        if self.path != "/request":
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
            recipe = recipe_from_request(body)
            wait_s = min(
                max(0.0, float(body.get("wait_s", DEFAULT_WAIT_S))),
                MAX_WAIT_S,
            )
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        engine = self.daemon.engine
        try:
            entry, disposition = engine.submit(recipe)
        except RequestShed as shed:
            self._send_shed(shed)
            return
        try:
            payload = engine.wait(entry, wait_s)
        except RequestShed as shed:
            self._send_shed(shed)
            return
        except RequestFailed as exc:
            self._send_json(500, {
                "status": "failed", "key": entry.key,
                "error": str(exc),
            })
            return
        if payload is None:
            self._send_json(202, {
                "status": "pending", "key": entry.key,
                "source": disposition,
            })
            return
        self._send_json(200, {
            "status": "done", "key": entry.key,
            "source": disposition, "payload": payload,
        })

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        """``/healthz``, ``/status``, ``/result/<key>``."""
        engine = self.daemon.engine
        if self.path == "/healthz":
            self._send_json(200, {
                "ok": True, "draining": engine.draining,
            })
            return
        if self.path == "/status":
            self._send_json(200, engine.status())
            return
        if self.path.startswith("/result/"):
            key = self.path[len("/result/"):]
            state, payload = engine.lookup(key)
            if state == "done":
                self._send_json(200, {
                    "status": "done", "key": key, "payload": payload,
                })
            elif state == "pending":
                self._send_json(202, {"status": "pending", "key": key})
            elif state == "failed":
                self._send_json(500, {
                    "status": "failed", "key": key, "poison": payload,
                })
            else:
                self._send_json(404, {"status": "unknown", "key": key})
            return
        self._send_json(404, {"error": f"unknown path {self.path}"})
