"""Content-addressed result-artifact store.

Every run artifact in this repo — simulated points, orchestrated
experiment results, fuzz reproducers — is a deterministic
function of an explicit *recipe*: the plain-data dict of everything
that can change the numbers (spec fields, topology, defense,
``n_requests``, ``seed``, ...).  The store keys blobs by a stable
canonical-JSON hash of that recipe:

* ``<root>/objects/<key>.json`` — one blob per distinct recipe,
  holding the recipe and the result payload.  Writing the same recipe
  twice stores one blob (dedup): a scenario leg, a sweep task and a
  served request of one point are one blob.
* ``<root>/index.json`` — the human layer: append-only entries mapping
  names to content keys, with a timestamp and the git SHA of the code
  that produced them.  Names are *aliases*, never identity — two runs
  of the same preset with different seeds are two blobs and two index
  entries, so neither overwrites the other.

The hashing contract (:func:`canonical_json` / :func:`content_key`)
is deliberately boring: sorted keys, no whitespace, finite floats
only.  It must never be derived from ``repr`` of a Python object —
cosmetic dataclass changes would silently invalidate every cache.
``tests/test_scenarios.py`` pins a golden hash so a contract change
cannot land unnoticed.

Corruption is handled by construction: a blob that fails to parse (or
whose embedded key disagrees with its filename) reads as a miss and is
rewritten on the next ``put``; a corrupt index reads as empty and is
rebuilt by the next alias write (blobs stay retrievable by key).

Crash debris is handled by :meth:`ResultStore.sweep_stale_tmp` (a
writer killed between the temp write and the rename leaves a ``*.tmp``
file behind forever — swept on the first write through a store instance
and by ``gc``) and :meth:`ResultStore.gc` (blobs no index entry names
— e.g. result blobs whose alias history was pruned with
:meth:`ResultStore.unalias` — are deleted under the index lock, sparing
blobs younger than a grace age whose alias may still be in flight;
``dry_run`` only reports the reclaimable bytes).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Blob/index schema version; a bump makes every existing entry a miss
#: so stale layouts are never misread.
STORE_VERSION = 1

#: How long an orphaned ``*.tmp`` file whose writer pid cannot be
#: liveness-checked (another host, unparseable name) survives before
#: the stale sweep removes it.
STALE_TMP_GRACE_S = 3600.0

#: Default deadline for acquiring the index lock; a stalled (not dead)
#: holder must surface as an error, not an indefinite hang.
DEFAULT_LOCK_TIMEOUT_S = 10.0

#: How young an unreferenced blob must be for ``gc`` to leave it
#: alone: ``put`` writes the blob *before* recording its alias, so a
#: just-written blob is legitimately unreferenced for a moment — a
#: concurrent gc must not discard fresh work in that window.
DEFAULT_GC_BLOB_GRACE_S = 60.0


class StoreLockTimeout(TimeoutError):
    """The index lock could not be acquired before the deadline.

    Carries the lock path so the operator can find the stalled holder
    (``fuser <path>`` / the pid in any in-flight ``*.tmp`` names).
    """

    def __init__(self, lock_path: Path, timeout_s: float) -> None:
        self.lock_path = Path(lock_path)
        self.timeout_s = timeout_s
        super().__init__(
            f"could not acquire index lock {lock_path} within "
            f"{timeout_s:.1f}s; another process holds it (stalled "
            "writer?)"
        )


#: Bounds for :func:`with_lock_retry`'s jittered exponential backoff.
DEFAULT_LOCK_RETRY_ATTEMPTS = 5
DEFAULT_LOCK_RETRY_BASE_S = 0.05
DEFAULT_LOCK_RETRY_MAX_S = 1.0


def with_lock_retry(
    fn,
    attempts: int = DEFAULT_LOCK_RETRY_ATTEMPTS,
    base_s: float = DEFAULT_LOCK_RETRY_BASE_S,
    max_s: float = DEFAULT_LOCK_RETRY_MAX_S,
    rng: Optional[random.Random] = None,
    sleep=time.sleep,
):
    """Call ``fn``, retrying :class:`StoreLockTimeout` with backoff.

    One contended ``flock`` on the index must not poison a task: a
    worker's result-put or a coordinator's alias write that loses the
    lock race retries up to ``attempts`` times with jittered
    exponential delays (``base_s * 2**n``, capped at ``max_s``, scaled
    by a uniform 0.5–1.5 jitter so colliding writers decorrelate).
    The jitter never touches payload bytes — only *when* a write
    happens, never *what* is written — so determinism claims are
    unaffected.  The final attempt re-raises.
    """
    if rng is None:
        rng = random.Random()
    for attempt in range(attempts):
        try:
            return fn()
        except StoreLockTimeout:
            if attempt >= attempts - 1:
                raise
            delay = min(base_s * (2 ** attempt), max_s)
            sleep(delay * (0.5 + rng.random()))


def _check_finite(value: Any, path: str = "$") -> None:
    """Reject non-finite floats anywhere in a payload, naming the path.

    ``Infinity``/``NaN`` are not valid JSON; a payload carrying one
    (e.g. a stalled victim's infinite slowdown) must be converted by
    the caller *before* the store sees it — see
    :meth:`repro.scenarios.run.ScenarioReport.to_json`.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(
            f"non-finite float at {path}: {value!r} is not storable JSON; "
            "serialize it as null (with an explanatory flag) instead"
        )
    if isinstance(value, Mapping):
        for key, child in value.items():
            _check_finite(child, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, child in enumerate(value):
            _check_finite(child, f"{path}[{i}]")


def canonical_json(value: Any) -> str:
    """The stable canonical serialization hashes and blobs are built on.

    Sorted keys, no whitespace, finite floats only — equal recipes
    always produce byte-identical text, independent of dict insertion
    order or dataclass ``repr`` cosmetics.
    """
    _check_finite(value)
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_key(recipe: Mapping[str, Any]) -> str:
    """The content address of a recipe: sha256 of its canonical JSON."""
    return hashlib.sha256(canonical_json(recipe).encode()).hexdigest()[:16]


_GIT_SHA: Optional[str] = None


def git_sha() -> str:
    """Short SHA of the source tree producing artifacts ("unknown" if
    git is unavailable); cached per process."""
    global _GIT_SHA
    if _GIT_SHA is None:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10,
                cwd=Path(__file__).resolve().parent,
            )
            sha = proc.stdout.strip()
            _GIT_SHA = sha if proc.returncode == 0 and sha else "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA = "unknown"
    return _GIT_SHA


_TMP_COUNTER = itertools.count()

#: Test-only crash hook: when set, called after the temp write and
#: before the rename in :func:`atomic_write_text`.  The chaos harness
#: points it at ``os._exit`` to simulate a writer dying mid-``put`` —
#: the exact window that leaves an orphaned ``*.tmp`` behind.  Never
#: set in production code.
_CRASH_AFTER_TMP_WRITE = None


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a sibling temp file + rename, so a crash mid-write
    never leaves torn JSON behind (an interrupted index update would
    otherwise read back as an empty index).  The temp name is unique
    per process and call, so concurrent writers cannot race each
    other's rename.

    This is the blessed durable-write helper the ``atomic-write-only``
    static rule funnels everything through (``repro check``); callers
    outside this module use this public name.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
    )
    tmp.write_text(text)
    if _CRASH_AFTER_TMP_WRITE is not None:
        _CRASH_AFTER_TMP_WRITE()
    os.replace(tmp, path)


def _tmp_writer_pid(path: Path) -> Optional[int]:
    """The writer pid embedded in a ``*.tmp`` name, if parseable."""
    parts = path.name.split(".")
    # <original name>.<pid>.<counter>.tmp
    if len(parts) < 4 or parts[-1] != "tmp":
        return None
    try:
        return int(parts[-3])
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a live process on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but owned by someone else
    return True


class ResultStore:
    """One content-addressed store rooted at a directory.

    See the module docstring for the layout.  All read paths are
    tolerant: missing, corrupt, or version-skewed files read as misses,
    never as exceptions — the caller's contract is "recompute on miss".
    """

    def __init__(
        self,
        root: Path,
        lock_timeout_s: float = DEFAULT_LOCK_TIMEOUT_S,
    ) -> None:
        self.root = Path(root)
        self.lock_timeout_s = lock_timeout_s
        self._tmp_swept = False

    @property
    def objects_dir(self) -> Path:
        """Where blobs live (``<root>/objects``)."""
        return self.root / "objects"

    @property
    def index_path(self) -> Path:
        """The name → key alias file (``<root>/index.json``)."""
        return self.root / "index.json"

    def blob_path(self, key: str) -> Path:
        """The on-disk path of the blob addressed by ``key``."""
        return self.objects_dir / f"{key}.json"

    # -- blobs -----------------------------------------------------------

    def put(
        self,
        recipe: Mapping[str, Any],
        payload: Mapping[str, Any],
        name: Optional[str] = None,
        kind: str = "result",
        meta: Optional[Mapping[str, Any]] = None,
        overwrite: bool = False,
    ) -> Tuple[str, Path, bool]:
        """Store ``payload`` under ``recipe``'s content key.

        Returns ``(key, blob_path, created)``.  An existing readable
        blob for the same key is left untouched (``created=False``) —
        that is the dedup guarantee — unless ``overwrite`` forces a
        rewrite (``--force`` re-runs).  A corrupt blob is always
        rewritten.  ``name`` additionally records an index alias with
        ``kind`` and optional ``meta`` fields.
        """
        key = content_key(recipe)
        blob = {
            "version": STORE_VERSION,
            "key": key,
            "kind": kind,
            "recipe": recipe,
            "payload": payload,
        }
        _check_finite(blob)
        self._sweep_on_open()
        path = self.blob_path(key)
        created = overwrite or self._load_blob(key) is None
        if created:
            self.objects_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, json.dumps(
                blob, indent=2, sort_keys=True, allow_nan=False
            ) + "\n")
        if name is not None:
            self.alias(name, key, kind, meta)
        return key, path, created

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key`` (None on miss/corruption)."""
        blob = self._load_blob(key)
        return None if blob is None else blob.get("payload")

    def fetch(self, recipe: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """The payload stored for ``recipe`` (None on miss/corruption)."""
        return self.get(content_key(recipe))

    def recipe(self, key: str) -> Optional[Dict[str, Any]]:
        """The recipe stored under ``key`` (None on miss/corruption).

        Blobs are self-describing: the recipe rides inside, so a
        consumer holding only a content key (a fuzz reproducer, a
        scenario's ``scenario`` alias) can rebuild the exact run that
        produced the payload.
        """
        blob = self._load_blob(key)
        return None if blob is None else blob.get("recipe")

    def _load_blob(self, key: str) -> Optional[Dict[str, Any]]:
        path = self.blob_path(key)
        if not path.is_file():
            return None
        try:
            blob = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(blob, dict)
            or blob.get("version") != STORE_VERSION
            or blob.get("key") != key
        ):
            return None
        return blob

    # -- index -----------------------------------------------------------

    def entries(
        self, name: Optional[str] = None, kind: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Index entries, oldest first, optionally filtered."""
        entries = self._load_index()["entries"]
        if name is not None:
            entries = [e for e in entries if e.get("name") == name]
        if kind is not None:
            entries = [e for e in entries if e.get("kind") == kind]
        return entries

    def latest(self, name: str) -> Optional[Dict[str, Any]]:
        """The most recently recorded entry for ``name`` (None if none)."""
        entries = self.entries(name=name)
        return entries[-1] if entries else None

    def names(self, kind: Optional[str] = None) -> List[str]:
        """Distinct aliased names (of one ``kind``), first-seen order."""
        return list(dict.fromkeys(
            e["name"] for e in self.entries(kind=kind) if "name" in e
        ))

    def _load_index(self) -> Dict[str, Any]:
        try:
            data = json.loads(self.index_path.read_text())
        except (OSError, json.JSONDecodeError):
            return {"version": STORE_VERSION, "entries": []}
        if (
            not isinstance(data, dict)
            or data.get("version") != STORE_VERSION
            or not isinstance(data.get("entries"), list)
        ):
            return {"version": STORE_VERSION, "entries": []}
        return data

    def alias(
        self,
        name: str,
        key: str,
        kind: str,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a name → key entry (re-recording refreshes in place).

        Cache-hit paths call this too, so a lost or corrupt index is
        rebuilt incrementally by ordinary re-runs — blobs are the
        durable layer, the index is always reconstructible.
        """
        entry: Dict[str, Any] = {
            "name": name,
            "key": key,
            "kind": kind,
            "timestamp": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "git_sha": git_sha(),
        }
        if meta:
            entry["meta"] = dict(meta)
        with self._index_lock():
            index = self._load_index()
            index["entries"] = [
                e for e in index["entries"]
                if not (e.get("name") == name and e.get("key") == key)
            ]
            index["entries"].append(entry)
            atomic_write_text(
                self.index_path, json.dumps(index, indent=2) + "\n"
            )

    def unalias(self, name: str) -> int:
        """Drop every index entry for ``name``; returns how many.

        The blob(s) stay on disk — they merely become unreferenced, so
        the next :meth:`gc` collects them.
        """
        with self._index_lock():
            index = self._load_index()
            before = len(index["entries"])
            index["entries"] = [
                e for e in index["entries"] if e.get("name") != name
            ]
            removed = before - len(index["entries"])
            if removed:
                atomic_write_text(
                    self.index_path, json.dumps(index, indent=2) + "\n"
                )
        return removed

    @contextmanager
    def _index_lock(self) -> Iterator[None]:
        """Serialize index read-modify-writes across processes.

        Concurrent writers into one results dir (``repro run`` next to
        ``repro scenario run``) would otherwise lose each other's
        alias entries.  POSIX advisory lock on a sidecar file; a no-op
        where ``fcntl`` is unavailable (blobs are unaffected either
        way, and a lost alias self-heals on the next re-run).

        The acquisition polls with a deadline
        (:attr:`lock_timeout_s`): a *stalled* holder — alive but stuck,
        so the lock never drops — surfaces as a
        :class:`StoreLockTimeout` naming the lock path instead of
        blocking every other writer indefinitely.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = self.root / "index.lock"
        with open(lock_path, "w") as handle:
            deadline = time.monotonic() + self.lock_timeout_s
            while True:
                try:
                    fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise StoreLockTimeout(
                            lock_path, self.lock_timeout_s
                        ) from None
                    time.sleep(0.02)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # -- introspection ---------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """A cheap census for monitors: blob count/bytes, index size.

        Consumed by the serve daemon's ``/status`` endpoint and usable
        by anything watching store growth; one directory scan plus one
        index read, no blob parsing.
        """
        blobs = 0
        blob_bytes = 0
        if self.objects_dir.is_dir():
            for path in self.objects_dir.glob("*.json"):
                try:
                    blob_bytes += path.stat().st_size
                except OSError:
                    continue
                blobs += 1
        return {
            "blobs": blobs,
            "blob_bytes": blob_bytes,
            "index_entries": len(self._load_index()["entries"]),
        }

    # -- garbage collection ----------------------------------------------

    def _sweep_on_open(self) -> None:
        """Once per store instance, clear crash debris before writing."""
        if not self._tmp_swept:
            self._tmp_swept = True
            self.sweep_stale_tmp()

    def sweep_stale_tmp(
        self,
        grace_s: float = STALE_TMP_GRACE_S,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> List[Path]:
        """Find (and unless ``dry_run``, delete) orphaned temp files.

        A writer killed between the temp write and the rename in
        :func:`atomic_write_text` leaves its ``*.tmp`` file behind forever.
        A temp file is stale when its embedded writer pid is dead on
        this host, or — when the pid cannot be judged (other host,
        foreign name) — when it is older than ``grace_s``.  Live
        writers are never swept: their pid probes alive and their files
        are seconds old.
        """
        if now is None:
            now = time.time()
        stale: List[Path] = []
        for directory in (self.root, self.objects_dir):
            if not directory.is_dir():
                continue
            for path in directory.glob("*.tmp"):
                pid = _tmp_writer_pid(path)
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue  # already gone
                if pid is not None and not _pid_alive(pid):
                    stale.append(path)
                elif age > grace_s:
                    stale.append(path)
        if not dry_run:
            for path in stale:
                try:
                    path.unlink()
                except OSError:
                    pass
        return stale

    def referenced_keys(self) -> set:
        """Every content key an index entry names: the live set, since
        every artifact (each scenario leg included) is indexed directly.

        Callers that act on the answer (like :meth:`gc`) should hold
        :meth:`_index_lock` so the index cannot change between the scan
        and the action.
        """
        return {
            e["key"] for e in self.entries() if isinstance(e.get("key"), str)
        }

    def gc(
        self,
        dry_run: bool = False,
        tmp_grace_s: float = STALE_TMP_GRACE_S,
        blob_grace_s: float = DEFAULT_GC_BLOB_GRACE_S,
        now: Optional[float] = None,
    ) -> "GCReport":
        """Delete blobs unreferenced by the index, plus stale temp files.

        Returns a :class:`GCReport`; with ``dry_run`` nothing is
        removed and the report shows what *would* be reclaimed.  Every
        blob an index entry names survives.  Typical garbage: result
        blobs whose alias history was pruned with :meth:`unalias`, and
        blobs a writer killed between blob and alias write left behind.

        Safe next to live writers: the index lock is held across the
        reference scan and the deletions, so no alias can land between
        "unreferenced" being decided and the blob being removed — and
        because ``put`` writes a blob *before* its alias (outside the
        lock), unreferenced blobs younger than ``blob_grace_s`` are
        kept, never mistaking an in-flight write for garbage.
        """
        if now is None:
            now = time.time()
        unreferenced: List[Tuple[str, int]] = []
        with self._index_lock():
            live = self.referenced_keys()
            if self.objects_dir.is_dir():
                for path in sorted(self.objects_dir.glob("*.json")):
                    key = path.stem
                    if key in live:
                        continue
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    if now - stat.st_mtime < blob_grace_s:
                        continue  # writer may not have aliased it yet
                    unreferenced.append((key, stat.st_size))
                    if not dry_run:
                        try:
                            path.unlink()
                        except OSError:
                            pass
        stale = self.sweep_stale_tmp(
            grace_s=tmp_grace_s, dry_run=True
        )
        stale_sized: List[Tuple[Path, int]] = []
        for path in stale:
            try:
                stale_sized.append((path, path.stat().st_size))
            except OSError:
                continue
        if not dry_run:
            for path, _size in stale_sized:
                try:
                    path.unlink()
                except OSError:
                    pass
        return GCReport(
            dry_run=dry_run,
            unreferenced_blobs=unreferenced,
            stale_tmp=stale_sized,
            live_blobs=len(live),
        )


@dataclass
class GCReport:
    """What one :meth:`ResultStore.gc` pass found (and maybe removed)."""

    dry_run: bool
    unreferenced_blobs: List[Tuple[str, int]]
    stale_tmp: List[Tuple[Path, int]]
    live_blobs: int

    @property
    def reclaimable_bytes(self) -> int:
        """Total size of unreferenced blobs plus stale temp files."""
        return sum(size for _key, size in self.unreferenced_blobs) + sum(
            size for _path, size in self.stale_tmp
        )

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable report for ``repro results gc --json``."""
        return {
            "dry_run": self.dry_run,
            "unreferenced_blobs": [
                {"key": key, "bytes": size}
                for key, size in self.unreferenced_blobs
            ],
            "stale_tmp": [
                {"path": path.name, "bytes": size}
                for path, size in self.stale_tmp
            ],
            "live_blobs": self.live_blobs,
            "reclaimable_bytes": self.reclaimable_bytes,
        }

    def summary_lines(self) -> List[str]:
        """Human-readable report for ``repro results gc``."""
        verb = "reclaimable" if self.dry_run else "reclaimed"
        lines = [
            f"{len(self.unreferenced_blobs)} unreferenced blob(s), "
            f"{len(self.stale_tmp)} stale temp file(s): "
            f"{self.reclaimable_bytes} bytes {verb} "
            f"({self.live_blobs} referenced blob(s) kept)"
        ]
        for key, size in self.unreferenced_blobs:
            lines.append(f"  blob {key} ({size} bytes)")
        for path, size in self.stale_tmp:
            lines.append(f"  tmp  {path.name} ({size} bytes)")
        return lines


def store_for(results_dir: Path) -> ResultStore:
    """The shared store under a results directory (``<dir>/store``).

    Scenario artifacts and the experiment orchestrator's cache live in
    this one store; their recipes carry distinct ``kind`` tags, so keys
    cannot collide across subsystems.
    """
    return ResultStore(Path(results_dir) / "store")
