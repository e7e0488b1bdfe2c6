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
* ``<root>/aliases/<key>.<name id>.json`` — the human layer: one small
  file per ``(name, key)`` alias (the name id is the first 16 hex
  chars of the name's sha256), holding the name, key, kind, a
  timestamp, the git SHA of the code that produced the blob and a
  ``recorded_ns`` sort field.  Names are *aliases*, never identity —
  two runs of the same preset with different seeds are two blobs and
  two alias files, so neither overwrites the other.  Each alias is its
  own atomic write, so concurrent writers never lose each other's
  entries and a named put costs the same however large the store is.

The hashing contract (:func:`canonical_json` / :func:`content_key`)
is deliberately boring: sorted keys, no whitespace, finite floats
only.  It must never be derived from ``repr`` of a Python object —
cosmetic dataclass changes would silently invalidate every cache.
``tests/test_scenarios.py`` pins a golden hash so a contract change
cannot land unnoticed.

Corruption is handled by construction: a blob that fails to parse (or
whose embedded key disagrees with its filename) reads as a miss and is
rewritten on the next ``put``; a corrupt alias file reads as absent
(hiding no other alias) and is rewritten by the next alias of that
name and key (blobs stay retrievable by key).  A store still holding
the single ``index.json`` of older versions is folded into alias files
on first use.

Crash debris is handled by :meth:`ResultStore.sweep_stale_tmp` (a
writer killed between the temp write and the rename leaves a ``*.tmp``
file behind forever — swept on the first write through a store instance
and by ``gc``) and :meth:`ResultStore.gc` (blobs no alias names —
e.g. result blobs whose alias history was pruned with
:meth:`ResultStore.unalias` — are deleted, sparing blobs younger than
a grace age whose alias may still be in flight; ``dry_run`` only
reports the reclaimable bytes).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Blob schema version; a bump makes every existing entry a miss
#: so stale layouts are never misread.
STORE_VERSION = 1

#: How long an orphaned ``*.tmp`` file whose writer pid cannot be
#: liveness-checked (another host, unparseable name) survives before
#: the stale sweep removes it.
STALE_TMP_GRACE_S = 3600.0

#: How young an unreferenced blob must be for ``gc`` to leave it
#: alone: ``put`` writes the blob *before* recording its alias, so a
#: just-written blob is legitimately unreferenced for a moment — a
#: concurrent gc must not discard fresh work in that window.
DEFAULT_GC_BLOB_GRACE_S = 60.0


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
    never leaves torn JSON behind (an interrupted blob or alias write
    would otherwise read back as a miss).  The temp name is unique
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


def _name_id(name: str) -> str:
    """The fixed-length stand-in for ``name`` in alias file names."""
    return hashlib.sha256(name.encode()).hexdigest()[:16]


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

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._tmp_swept = False
        self._legacy_folded = False

    @property
    def objects_dir(self) -> Path:
        """Where blobs live (``<root>/objects``)."""
        return self.root / "objects"

    @property
    def aliases_dir(self) -> Path:
        """Where the name → key alias files live (``<root>/aliases``)."""
        return self.root / "aliases"

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
        rewritten.  ``name`` additionally records an alias with
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

    # -- aliases ---------------------------------------------------------

    def entries(
        self, name: Optional[str] = None, kind: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Alias entries, oldest first, optionally filtered.

        Ordered by ``(recorded_ns, file name)``; with ``name`` only that
        name's files are read.  An unreadable file is skipped.
        """
        pattern = "*.json" if name is None else f"*.{_name_id(name)}.json"
        found = []
        for path in self._alias_files(pattern):
            try:
                entry = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if (
                isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and isinstance(entry.get("key"), str)
                and isinstance(entry.get("recorded_ns"), int)
            ):
                found.append((entry["recorded_ns"], path.name, entry))
        found.sort(key=lambda item: item[:2])
        entries = [entry for _ns, _file, entry in found]
        if name is not None:
            entries = [e for e in entries if e["name"] == name]
        if kind is not None:
            entries = [e for e in entries if e.get("kind") == kind]
        return entries

    def latest(self, name: str) -> Optional[Dict[str, Any]]:
        """The most recently recorded entry for ``name`` (None if none)."""
        entries = self.entries(name=name)
        return entries[-1] if entries else None

    def names(self, kind: Optional[str] = None) -> List[str]:
        """Distinct aliased names (of one ``kind``), first-seen order."""
        return list(dict.fromkeys(e["name"] for e in self.entries(kind=kind)))

    def alias(
        self,
        name: str,
        key: str,
        kind: str,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a name → key entry in its own alias file.

        Re-recording the same pair overwrites that file, refreshing the
        entry and moving it to the end of the order.  Cache-hit paths
        call this too, so lost or corrupt aliases are rebuilt by
        ordinary re-runs — blobs are the durable layer, the aliases are
        always reconstructible.
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
        entry["recorded_ns"] = time.time_ns()
        self._fold_legacy_index()
        self._write_alias(entry)

    def unalias(self, name: str) -> int:
        """Drop every alias of ``name``; returns how many.

        The blob(s) stay on disk — they merely become unreferenced, so
        the next :meth:`gc` collects them.
        """
        removed = 0
        for path in self._alias_files(f"*.{_name_id(name)}.json"):
            try:
                path.unlink()
            except FileNotFoundError:
                continue  # a concurrent unalias got there first
            removed += 1
        return removed

    def _write_alias(self, entry: Mapping[str, Any]) -> None:
        self.aliases_dir.mkdir(parents=True, exist_ok=True)
        path = self.aliases_dir / (
            f"{entry['key']}.{_name_id(entry['name'])}.json"
        )
        atomic_write_text(path, json.dumps(entry, indent=2) + "\n")

    def _alias_files(self, pattern: str = "*.json") -> List[Path]:
        """The alias files matching ``pattern`` (a legacy index folded
        first)."""
        self._fold_legacy_index()
        return list(self.aliases_dir.glob(pattern))

    def _fold_legacy_index(self) -> None:
        """Once per instance, rewrite the single ``index.json`` of older
        store versions as alias files, then delete it.

        Each entry's ``recorded_ns`` is its position in the old index,
        so the folded entries keep their order and sort before anything
        aliased since.  Two processes folding at once write identical
        files, and the later unlink finds nothing to remove.  A store
        that cannot be written keeps its ``index.json`` for the next
        writer to fold.
        """
        if self._legacy_folded:
            return
        self._legacy_folded = True
        legacy = self.root / "index.json"
        try:
            text = legacy.read_text()
        except OSError:
            return  # no legacy index: the common case
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = None
        entries = []
        if isinstance(data, dict) and data.get("version") == STORE_VERSION:
            entries = data.get("entries")
        try:
            for position, entry in enumerate(
                entries if isinstance(entries, list) else []
            ):
                if (
                    isinstance(entry, dict)
                    and isinstance(entry.get("name"), str)
                    and isinstance(entry.get("key"), str)
                ):
                    self._write_alias({**entry, "recorded_ns": position})
            legacy.unlink(missing_ok=True)
        except OSError:
            pass

    # -- introspection ---------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """A cheap census for monitors: blob count/bytes, alias count.

        Consumed by the serve daemon's ``/status`` endpoint and usable
        by anything watching store growth; two directory scans, no file
        parsing.
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
            "index_entries": len(self._alias_files()),
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
        for directory in (self.root, self.objects_dir, self.aliases_dir):
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
        """Every content key an alias names: the live set, since every
        artifact (each scenario leg included) is aliased directly.
        Read from the alias file names alone."""
        return {path.name.split(".", 1)[0] for path in self._alias_files()}

    def gc(
        self,
        dry_run: bool = False,
        tmp_grace_s: float = STALE_TMP_GRACE_S,
        blob_grace_s: float = DEFAULT_GC_BLOB_GRACE_S,
        now: Optional[float] = None,
    ) -> "GCReport":
        """Delete blobs no alias names, plus stale temp files.

        Returns a :class:`GCReport`; with ``dry_run`` nothing is
        removed and the report shows what *would* be reclaimed.  Every
        blob an alias names survives.  Typical garbage: result blobs
        whose alias history was pruned with :meth:`unalias`, and blobs
        a writer killed between blob and alias write left behind.

        Safe next to live writers: ``put`` writes a blob *before* its
        alias, so unreferenced blobs younger than ``blob_grace_s`` are
        kept, never mistaking an in-flight write for garbage.  An alias
        that lands for an old blob after the scan decided to delete it
        leaves a dangling alias, which reads as a miss and is
        recomputed.
        """
        if now is None:
            now = time.time()
        unreferenced: List[Tuple[str, int]] = []
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
