"""Crash-consistency tests for the content-addressed result store.

Child processes are killed (via the ``_CRASH_AFTER_TMP_WRITE`` hook
calling ``os._exit``) inside the two atomic-write windows — a blob
``put`` and an alias write — and the parent asserts the store reads
clean afterwards: the interrupted artifact is simply a miss
(retriable), nothing is torn, and ``gc`` sweeps the debris.  Also
covers the dead-pid/live-pid/aged rules of the stale-temp sweep.
"""

import os
import subprocess
import sys
import textwrap
import time

from repro.results.store import content_key, store_for


def child_env():
    env = dict(os.environ)
    src = str(
        (os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )
    env["PYTHONPATH"] = os.path.join(src, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def run_child(script):
    """Run a crashing store operation in a child; returns exit code."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )


RECIPE = {"kind": "crash-test", "n": 1}


class TestKillMidPut:
    def test_store_reads_clean_and_gc_sweeps_debris(self, tmp_path):
        root = tmp_path / "results"
        proc = run_child(f"""
            import os
            from repro.results import store as store_mod
            from repro.results.store import store_for
            store = store_for({str(root)!r})
            store_mod._CRASH_AFTER_TMP_WRITE = lambda: os._exit(97)
            store.put({RECIPE!r}, {{"value": 1}}, name="crash/one")
        """)
        assert proc.returncode == 97, proc.stderr

        store = store_for(root)
        key = content_key(RECIPE)
        # The blob never landed: a clean miss, so the work is simply
        # retriable — no torn JSON, no exception.
        assert store.get(key) is None
        assert store.fetch(RECIPE) is None
        # The child's temp file is debris with a dead writer pid.
        dry = store.gc(dry_run=True, tmp_grace_s=1e9)
        assert dry.stale_tmp
        assert dry.reclaimable_bytes > 0
        store.gc(tmp_grace_s=1e9)
        assert not list(store.objects_dir.glob("*.tmp"))
        # Retrying the put succeeds and is readable.
        retry_key, _path, created = store.put(
            RECIPE, {"value": 1}, name="crash/one"
        )
        assert retry_key == key
        assert created
        assert store.get(key) == {"value": 1}


class TestKillMidIndexUpdate:
    def test_index_survives_and_blob_stays_live(self, tmp_path):
        root = tmp_path / "results"
        # First, a healthy put with an alias (the index has content).
        store = store_for(root)
        key, _path, _created = store.put(
            RECIPE, {"value": 1}, name="crash/kept"
        )
        proc = run_child(f"""
            import os
            from repro.results import store as store_mod
            from repro.results.store import store_for
            store = store_for({str(root)!r})
            store_mod._CRASH_AFTER_TMP_WRITE = lambda: os._exit(98)
            store.alias("crash/second", {key!r}, "result")
        """)
        assert proc.returncode == 98, proc.stderr

        fresh = store_for(root)
        # The interrupted alias never landed, the prior index content
        # is intact, and the blob is still fetchable.
        assert fresh.latest("crash/second") is None
        assert fresh.latest("crash/kept")["key"] == key
        assert fresh.get(key) == {"value": 1}
        # gc sweeps the orphaned index temp file but keeps the
        # still-referenced blob.
        report = fresh.gc(tmp_grace_s=1e9)
        assert report.stale_tmp
        assert fresh.get(key) == {"value": 1}


class TestGcBlobGrace:
    def test_fresh_unreferenced_blob_survives_the_grace(self, tmp_path):
        store = store_for(tmp_path)
        key, path, _created = store.put(
            {"kind": "gc-grace", "n": 1}, {"value": 1}
        )
        # No alias yet: unreferenced, but seconds old.  ``put`` writes
        # the blob before its alias, so a concurrent gc must treat it
        # as an in-flight write and keep it under the default grace.
        report = store.gc()
        assert key not in [k for k, _size in report.unreferenced_blobs]
        assert path.is_file()
        # Past the grace it is ordinary garbage.
        report = store.gc(blob_grace_s=0.0)
        assert key in [k for k, _size in report.unreferenced_blobs]
        assert not path.is_file()


class TestStaleTmpSweep:
    def test_dead_pid_swept_live_pid_kept(self, tmp_path):
        store = store_for(tmp_path)
        store.objects_dir.mkdir(parents=True)
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True,
        )
        dead_pid = int(probe.stdout)
        dead = store.objects_dir / f"blob.json.{dead_pid}.0.tmp"
        live = store.objects_dir / f"blob.json.{os.getpid()}.1.tmp"
        dead.write_text("{}")
        live.write_text("{}")
        swept = store.sweep_stale_tmp(grace_s=1e9)
        assert dead in swept
        assert not dead.exists()
        assert live.exists()   # a live writer is never swept

    def test_unjudgeable_tmp_swept_only_after_grace(self, tmp_path):
        store = store_for(tmp_path)
        store.objects_dir.mkdir(parents=True)
        # No parseable pid in the name: age is the only signal.
        odd = store.objects_dir / "foreign.tmp"
        odd.write_text("{}")
        assert store.sweep_stale_tmp(grace_s=3600.0) == []
        stamp = time.time() - 7200.0
        os.utime(odd, (stamp, stamp))
        assert odd in store.sweep_stale_tmp(grace_s=3600.0)
        assert not odd.exists()

    def test_first_write_sweeps_stale_debris(self, tmp_path):
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True,
        )
        dead_pid = int(probe.stdout)
        store = store_for(tmp_path)
        store.objects_dir.mkdir(parents=True)
        debris = store.objects_dir / f"old.json.{dead_pid}.0.tmp"
        debris.write_text("{}")
        store.put(RECIPE, {"value": 1})
        assert not debris.exists()
