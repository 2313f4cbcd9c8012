"""Shared-memory artifact fabric: store lifecycle, subsystem
restorers, and the pool-initializer hoisting it rides on."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import ExecContext, SweepTask, run_sweep, task_fn
from repro.exec.shm import (
    SEG_PREFIX,
    SharedArtifactStore,
    attach_manifests,
    shutdown_shared_store,
    sweep_orphans,
)

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="needs a POSIX shm filesystem"
)


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join(SHM_DIR, name))


@pytest.fixture
def store():
    s = SharedArtifactStore()
    yield s
    s.unlink_all()


def _arrays():
    return {
        "ints": np.arange(12, dtype=np.int64).reshape(3, 4),
        "floats": np.linspace(0.0, 1.0, 7),
        "flags": np.array([True, False, True]),
    }


class TestStoreLifecycle:
    def test_publish_attach_roundtrip(self, store):
        manifest = store.publish("trace", "k1", _arrays(), {"note": "hi"})
        assert manifest.segment.startswith(f"{SEG_PREFIX}-{os.getpid()}-")
        assert _segment_exists(manifest.segment)

        attacher = SharedArtifactStore()
        views, meta = attacher.attach(manifest)
        assert meta == {"note": "hi"}
        for name, arr in _arrays().items():
            assert np.array_equal(views[name], arr)
            assert not views[name].flags.writeable
        attacher.release("trace", "k1")
        # A non-owner release closes its mapping but never unlinks.
        assert _segment_exists(manifest.segment)

    def test_publish_is_idempotent(self, store):
        m1 = store.publish("trace", "k2", _arrays())
        m2 = store.publish("trace", "k2", {"other": np.zeros(3)})
        assert m2 is m1
        assert store.refcount("trace", "k2") == 1

    def test_refcounted_release(self, store):
        manifest = store.publish("trace", "k3", _arrays())
        store.attach(manifest)
        store.attach(manifest)
        assert store.refcount("trace", "k3") == 3
        store.release("trace", "k3")
        store.release("trace", "k3")
        assert store.refcount("trace", "k3") == 1
        assert _segment_exists(manifest.segment)
        store.release("trace", "k3")
        # The owning pid unlinks at zero references.
        assert store.refcount("trace", "k3") == 0
        assert not _segment_exists(manifest.segment)

    def test_unlink_all_reaps_every_owned_segment(self, store):
        names = [
            store.publish("trace", f"k4-{i}", _arrays()).segment for i in range(3)
        ]
        store.unlink_all()
        assert not any(_segment_exists(n) for n in names)
        # Idempotent: a second pass has nothing to do.
        store.unlink_all()

    def test_empty_artifact_is_rejected(self, store):
        with pytest.raises(ConfigurationError, match="no arrays"):
            store.publish("trace", "k5", {})

    def test_manifests_lists_only_own_publications(self, store):
        store.publish("trace", "k6", _arrays())
        foreign = SharedArtifactStore()
        foreign.attach(store.manifests()[0])
        assert len(store.manifests()) == 1
        assert foreign.manifests() == ()
        foreign.release("trace", "k6")

    def test_stale_same_pid_segment_is_replaced(self, store):
        # Simulate a previous incarnation of this pid dying after
        # creating the segment: publish, forget the entry, re-publish.
        m1 = store.publish("trace", "k7", _arrays())
        store._entries.clear()  # lose the bookkeeping, keep the segment
        m2 = store.publish("trace", "k7", _arrays())
        assert m2.segment == m1.segment
        assert _segment_exists(m2.segment)
        store.release("trace", "k7")

    def test_attach_missing_segment_falls_back(self, store):
        manifest = store.publish("trace", "k8", _arrays())
        store.release("trace", "k8")  # unlinked; manifest now dangling
        fresh = SharedArtifactStore()
        with pytest.raises(FileNotFoundError):
            fresh.attach(manifest)
        # attach_manifests swallows it: the worker rebuilds from spec.
        assert attach_manifests([manifest]) == 0


class TestSweeper:
    def test_dead_owner_segment_is_reaped(self, store):
        # A child process creates a fabric-named segment and dies
        # without cleanup — the canonical orphan.
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                "import os\n"
                "from multiprocessing import shared_memory, resource_tracker\n"
                "shm = shared_memory.SharedMemory(\n"
                f"    name=f'{SEG_PREFIX}-{{os.getpid()}}-deadbeefcafebabe',\n"
                "    create=True, size=64)\n"
                "resource_tracker.unregister(shm._name, 'shared_memory')\n"
                "print(shm.name)\n"
                "os._exit(0)\n",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        orphan = child.stdout.strip()
        assert _segment_exists(orphan)

        live = store.publish("trace", "k9", _arrays())
        removed = sweep_orphans()
        assert orphan in removed
        assert not _segment_exists(orphan)
        # A live owner's segment is never touched.
        assert _segment_exists(live.segment)

    def test_foreign_names_are_ignored(self, store, tmp_path):
        path = os.path.join(SHM_DIR, f"{SEG_PREFIX}-notapid-x")
        with open(path, "w") as fh:
            fh.write("x")
        try:
            assert f"{SEG_PREFIX}-notapid-x" not in sweep_orphans()
            assert os.path.exists(path)
        finally:
            os.unlink(path)

    def test_own_pid_untracked_segment_is_reaped(self, store):
        """Pid-reuse orphan: a segment named with *our* pid that no
        live store tracks was left by a dead incarnation of this pid
        (e.g. a run whose pool initializer failure escalated to a hard
        kill) — the sweeper must reap it while sparing tracked ones."""
        from multiprocessing import resource_tracker, shared_memory

        name = f"{SEG_PREFIX}-{os.getpid()}-feedfacefeedface"
        shm = shared_memory.SharedMemory(name=name, create=True, size=64)
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        shm.close()
        assert _segment_exists(name)

        live = store.publish("trace", "k11", _arrays())
        removed = sweep_orphans()
        assert name in removed
        assert not _segment_exists(name)
        # The tracked own-pid segment is never touched.
        assert _segment_exists(live.segment)


class TestWorkerCrashSafety:
    def test_attacher_death_cannot_unlink_owner_segment(self, store, tmp_path):
        """bpo-39959 regression: a foreign process attaches, then dies;
        its resource tracker must not tear the owner's segment down."""
        manifest = store.publish("trace", "k10", _arrays(), {"fingerprint": "x"})
        blob = tmp_path / "manifest.pkl"
        blob.write_bytes(pickle.dumps(manifest))
        script = (
            "import pickle, sys\n"
            "from repro.exec.shm import SharedArtifactStore\n"
            f"manifest = pickle.loads(open({str(blob)!r}, 'rb').read())\n"
            "store = SharedArtifactStore()\n"
            "views, meta = store.attach(manifest)\n"
            "assert views['ints'][0, 0] == 0\n"
            "sys.exit(0)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        # The attacher exited (tracker cleanup and all); segment lives.
        assert _segment_exists(manifest.segment)
        fresh = SharedArtifactStore()
        views, _ = fresh.attach(manifest)
        assert np.array_equal(views["ints"], _arrays()["ints"])
        fresh.release("trace", "k10")

    def test_restorer_failure_releases_attached_reference(
        self, store, monkeypatch
    ):
        """Chaos: a pool initializer whose restorer raises must drop the
        reference its attach took — a respawning pool would otherwise
        pile up half-initialized mappings — and keep restoring the
        remaining artifacts."""
        from repro.exec import shm as shm_mod
        from repro.workloads import traceio

        bad = store.publish("trace", "k12-bad", _arrays(), {"poison": True})
        good = store.publish("trace", "k12-good", _arrays(), {"poison": False})

        calls = []

        def exploding_restore(arrays, meta):
            calls.append(meta)
            if meta and meta.get("poison"):
                raise RuntimeError("initializer blew up")

        monkeypatch.setattr(traceio, "_shm_restore", exploding_restore)
        worker = shm_mod.shared_store()
        before_bad = worker.refcount("trace", "k12-bad")
        before_good = worker.refcount("trace", "k12-good")
        try:
            assert attach_manifests([bad, good]) == 1
            assert len(calls) == 2
            # The failed artifact's reference was released...
            assert worker.refcount("trace", "k12-bad") == before_bad
            # ...while the successful one is held as usual.
            assert worker.refcount("trace", "k12-good") == before_good + 1
            # The owner's segments are untouched either way.
            assert _segment_exists(bad.segment)
            assert _segment_exists(good.segment)
        finally:
            worker.release("trace", "k12-good")


# -- subsystem restorers -------------------------------------------------------


class TestVpTableSeed:
    def test_seeded_engine_matches_built_tables(self, store):
        from repro.exec.ops import workload_for
        from repro.server.dvfs import XEON_LADDER
        from repro.simfast.tables import (
            clear_shared_engines,
            publish_shared_tables,
            shared_table_engine,
        )

        svc = workload_for(4).service_model
        clear_shared_engines()
        engine = shared_table_engine(svc, XEON_LADDER)
        stack = engine.stack(None, 16)
        reference = stack.tables.copy()
        manifests = publish_shared_tables(store=store)
        assert len(manifests) == 1

        clear_shared_engines()
        assert attach_manifests(manifests) == 1
        seeded = shared_table_engine(svc, XEON_LADDER)
        assert seeded is not engine
        seeded_stack = seeded.stack(None, 16)
        assert np.array_equal(seeded_stack.tables, reference)
        assert not seeded_stack.tables.flags.writeable
        # Growth past the seeded rows rebuilds writable tables and
        # extends them bit-identically with the from-scratch path.
        grown = seeded.stack(None, 24)
        clear_shared_engines()
        rebuilt = shared_table_engine(svc, XEON_LADDER).stack(None, 24)
        assert np.array_equal(grown.tables, rebuilt.tables)
        clear_shared_engines()


class TestTraceRoundtrip:
    def test_publish_and_resolve(self, store):
        from repro.workloads.diurnal import DiurnalTrace
        from repro.workloads import traceio

        trace = DiurnalTrace(
            minutes=np.arange(5.0),
            search_load=np.linspace(0.2, 1.0, 5),
            background_utilization=np.linspace(0.1, 0.5, 5),
        )
        key, manifest = traceio.publish_shared_trace(trace, store=store)
        assert traceio.trace_fingerprint(trace) == key
        resolved = traceio.shared_trace(key)
        assert resolved is not None
        assert np.array_equal(resolved.search_load, trace.search_load)

        traceio._SHM_TRACES.clear()
        assert traceio.shared_trace(key) is None
        assert attach_manifests([manifest]) == 1
        restored = traceio.shared_trace(key)
        assert np.array_equal(restored.minutes, trace.minutes)
        assert np.array_equal(
            restored.background_utilization, trace.background_utilization
        )
        traceio._SHM_TRACES.clear()


# -- pool-initializer hoisting -------------------------------------------------


@task_fn("test/worker-metrics")
def _worker_metrics(*, x):
    from repro.exec import executor, registry

    return {
        "pid": os.getpid(),
        "inits": executor._WORKER_INIT_COUNT,
        "preloads": registry.PRELOAD_PASSES,
        "executed": executor._TASKS_EXECUTED,
    }


class TestPoolInitHoisting:
    def test_worker_initializes_once_for_many_tasks(self, tmp_path):
        """Regression for the per-task startup waste: registry import
        and context/cache setup must run once per worker process, not
        once per task."""
        tasks = [SweepTask.make("test/worker-metrics", x=x) for x in range(8)]
        ctx = ExecContext(jobs=2, cache=False, cache_dir=str(tmp_path))
        outs = run_sweep(tasks, ctx=ctx)
        reports = [o.unwrap() for o in outs]

        by_pid: dict[int, list[dict]] = {}
        for rep in reports:
            by_pid.setdefault(rep["pid"], []).append(rep)
        assert by_pid, "no worker reports collected"
        for pid, reps in by_pid.items():
            # The initializer ran exactly once in this worker...
            assert {r["inits"] for r in reps} == {1}, f"worker {pid} re-inited"
            # ...and op-module preloading never re-ran per task.
            assert len({r["preloads"] for r in reps}) == 1
        # Every task actually executed (the counter is per-process).
        total = sum(max(r["executed"] for r in reps) for reps in by_pid.values())
        assert total == len(tasks)

    def test_executor_ships_manifests_to_workers(self, tmp_path):
        """End-to-end: a published artifact is visible inside pool
        workers without being pickled into any task."""
        from repro.workloads.diurnal import DiurnalTrace
        from repro.workloads import traceio

        trace = DiurnalTrace(
            minutes=np.arange(4.0),
            search_load=np.full(4, 0.5),
            background_utilization=np.full(4, 0.25),
        )
        key, _ = traceio.publish_shared_trace(trace)
        try:
            tasks = [
                SweepTask.make("test/resolve-trace", fingerprint=key, x=x)
                for x in range(3)
            ]
            ctx = ExecContext(jobs=2, cache=False, cache_dir=str(tmp_path))
            outs = run_sweep(tasks, ctx=ctx)
            assert all(o.ok for o in outs)
            assert all(o.unwrap() == pytest.approx(2.0) for o in outs)
        finally:
            shutdown_shared_store()

    def test_no_shm_context_skips_attach(self, tmp_path):
        from repro.workloads.diurnal import DiurnalTrace
        from repro.workloads import traceio

        trace = DiurnalTrace(
            minutes=np.arange(4.0),
            search_load=np.full(4, 0.5),
            background_utilization=np.full(4, 0.25),
        )
        key, _ = traceio.publish_shared_trace(trace)
        try:
            # Resolution relies on the *inherited* parent mapping under
            # fork; scrub it so only the manifest path could serve it.
            traceio._SHM_TRACES.clear()
            tasks = [
                SweepTask.make("test/resolve-trace", fingerprint=key, x=x)
                for x in range(2)
            ]
            ctx = ExecContext(jobs=2, cache=False, cache_dir=str(tmp_path), shm=False)
            outs = run_sweep(tasks, ctx=ctx)
            assert all(o.ok for o in outs)
            assert all(o.unwrap() is None for o in outs)
        finally:
            shutdown_shared_store()


@task_fn("test/resolve-trace")
def _resolve_trace(*, fingerprint, x):
    """Sum the shared trace's search load, or None if it never arrived."""
    from repro.workloads.traceio import shared_trace

    trace = shared_trace(fingerprint)
    if trace is None:
        return None
    return float(trace.search_load.sum())
