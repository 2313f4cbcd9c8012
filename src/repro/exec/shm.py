"""Zero-pickle shared-memory artifact store (the sweep fabric's heap).

Sweep workers rebuild, per process, the same large read-only artifacts
the parent (or the first worker) already derived: the
:class:`~repro.simfast.tables.VPTableEngine` CCDF table stacks and
workload trace arrays.  Those artifacts are pure functions of content
that already has a fingerprint (the simfast ``_fingerprint``, a trace
digest) — which makes them shareable by key rather than by pickle.

:class:`SharedArtifactStore` places each artifact's numpy arrays into
one ``multiprocessing.shared_memory`` segment and describes the layout
in a tiny picklable :class:`ShmManifest` (dtype/shape/offset per array
plus a small ``meta`` payload).  The parent publishes before a pool
spins up; the executor passes the manifests to every worker's pool
initializer, which attaches the segments and hands the arrays — as
zero-copy, read-only views — to the owning subsystem's restorer
(``repro.simfast.tables`` and ``repro.workloads.traceio`` each
export a module-level ``_shm_restore``).  Workers therefore never receive rebuilt or pickled
copies of the big matrices; they map the parent's pages.

Lifecycle is refcounted and crash-safe:

* the creating process owns its segments and unlinks them at
  :func:`shutdown_shared_store` or interpreter exit (``atexit``);
* a forked worker inherits the store but never unlinks (ownership is
  pid-checked), and spawn-attached segments are unregistered from the
  worker's ``resource_tracker`` so a worker death cannot tear down the
  parent's segments;
* :func:`sweep_orphans` is the parent-side sweeper: segments named by a
  dead owner pid (a previous run killed before its atexit) are
  unlinked on sight.

Setting ``ExecContext(shm=False)`` (the CLI's ``--no-shm``) disables
publish *and* attach, restoring the rebuild-from-spec reference path
bit for bit — artifact restoration only ever skips recomputation of
content-identical data.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "ShmManifest",
    "SharedArtifactStore",
    "shared_store",
    "shutdown_shared_store",
    "attach_manifests",
    "sweep_orphans",
]

#: Prefix of every segment this store creates; the sweeper only ever
#: touches names matching it.
SEG_PREFIX = "repro-shm"

#: Array starts are aligned so typed views stay naturally aligned.
_ALIGN = 64

#: kind -> module exporting ``_shm_restore(arrays, meta)``.  Resolved
#: lazily on attach (the same late-import idiom as the task registry),
#: so the store itself depends on no simulator code.
_RESTORER_MODULES = {
    "vp-tables": "repro.simfast.tables",
    "trace": "repro.workloads.traceio",
}


@dataclass(frozen=True)
class _ArraySpec:
    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ShmManifest:
    """Everything a process needs to attach one published artifact."""

    kind: str
    key: str
    segment: str
    total_bytes: int
    arrays: tuple[_ArraySpec, ...]
    #: Small picklable side-channel (pair tables, service models, ...);
    #: the *big* data lives in the segment.
    meta: object = None


class _Entry:
    __slots__ = ("shm", "manifest", "views", "refs", "owner_pid")

    def __init__(self, shm, manifest, views, owner_pid):
        self.shm = shm
        self.manifest = manifest
        self.views = views
        self.refs = 1
        self.owner_pid = owner_pid


def _segment_name(kind: str, key: str, pid: int) -> str:
    digest = hashlib.sha256(f"{kind}:{key}".encode()).hexdigest()[:16]
    return f"{SEG_PREFIX}-{pid}-{digest}"


def _layout(arrays: dict[str, np.ndarray]) -> tuple[tuple[_ArraySpec, ...], int]:
    specs = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        specs.append(_ArraySpec(name, arr.dtype.str, tuple(arr.shape), offset))
        offset += arr.nbytes
    return tuple(specs), max(offset, 1)


def _views(shm, specs: tuple[_ArraySpec, ...]) -> dict[str, np.ndarray]:
    out = {}
    for spec in specs:
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                          buffer=shm.buf, offset=spec.offset)
        view.flags.writeable = False
        out[spec.name] = view
    return out


def _untrack(shm) -> None:
    """Undo the resource tracker's attach-side registration.

    On CPython < 3.13 merely *attaching* registers the segment with the
    attaching process's resource tracker, whose exit would then unlink
    a segment it never owned (bpo-39959) — exactly the failure mode a
    crashing worker must not trigger.
    """
    try:  # pragma: no cover - registry internals differ across versions
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


#: Every live store in this process — :func:`sweep_orphans` consults
#: them to tell a tracked own-pid segment from one leaked by a previous
#: incarnation of the same pid.
_LIVE_STORES: "weakref.WeakSet[SharedArtifactStore]" = weakref.WeakSet()


class SharedArtifactStore:
    """Process-local registry of published/attached shm artifacts."""

    def __init__(self):
        self._entries: dict[tuple[str, str], _Entry] = {}
        self._atexit_armed = False
        _LIVE_STORES.add(self)

    # -- publishing (owner side) ------------------------------------------------

    def publish(self, kind: str, key: str, arrays: dict[str, np.ndarray],
                meta: object = None) -> ShmManifest:
        """Place ``arrays`` into one shared segment; idempotent per key.

        A second publish of the same ``(kind, key)`` returns the
        existing manifest unchanged — publish everything an artifact
        will ever need before the first pool attaches it.
        """
        entry = self._entries.get((kind, key))
        if entry is not None:
            return entry.manifest
        if not arrays:
            raise ConfigurationError(f"artifact {kind}:{key} has no arrays")
        specs, total = _layout(arrays)
        name = _segment_name(kind, key, os.getpid())
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        except FileExistsError:
            # A leftover from a previous (killed) incarnation of this
            # pid — stale by construction; replace it.
            stale = shared_memory.SharedMemory(name=name)
            stale.close()
            stale.unlink()
            shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        for spec, arr in zip(specs, arrays.values()):
            src = np.ascontiguousarray(arr)
            dst = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                             buffer=shm.buf, offset=spec.offset)
            dst[...] = src
        manifest = ShmManifest(kind=kind, key=key, segment=name,
                               total_bytes=total, arrays=specs, meta=meta)
        self._entries[(kind, key)] = _Entry(shm, manifest, _views(shm, specs),
                                            owner_pid=os.getpid())
        if not self._atexit_armed:
            atexit.register(self.unlink_all)
            self._atexit_armed = True
        return manifest

    # -- attaching (worker side) ------------------------------------------------

    def attach(self, manifest: ShmManifest) -> tuple[dict[str, np.ndarray], object]:
        """Map a published artifact; refcounted, zero-copy.

        A forked worker that inherited the publishing entry reuses the
        inherited mapping (the fork shares the physical pages already);
        only a genuinely foreign process opens the segment — and is
        immediately unregistered from its resource tracker so its death
        can never unlink the owner's segment.
        """
        ident = (manifest.kind, manifest.key)
        entry = self._entries.get(ident)
        if entry is not None:
            entry.refs += 1
            return entry.views, entry.manifest.meta
        shm = shared_memory.SharedMemory(name=manifest.segment)
        _untrack(shm)
        entry = _Entry(shm, manifest, _views(shm, manifest.arrays),
                       owner_pid=None)
        self._entries[ident] = entry
        return entry.views, manifest.meta

    def get(self, kind: str, key: str):
        """``(arrays, meta)`` of a held artifact, or ``None``."""
        entry = self._entries.get((kind, key))
        if entry is None:
            return None
        return entry.views, entry.manifest.meta

    def release(self, kind: str, key: str) -> None:
        """Drop one reference; the segment is closed (and, for the
        owning pid, unlinked) when the count reaches zero."""
        ident = (kind, key)
        entry = self._entries.get(ident)
        if entry is None:
            return
        entry.refs -= 1
        if entry.refs > 0:
            return
        del self._entries[ident]
        self._close_entry(entry)

    def refcount(self, kind: str, key: str) -> int:
        entry = self._entries.get((kind, key))
        return 0 if entry is None else entry.refs

    # -- lifecycle ---------------------------------------------------------------

    def _close_entry(self, entry: _Entry) -> None:
        entry.views = {}
        try:
            entry.shm.close()
        except Exception:
            pass
        if entry.owner_pid == os.getpid():
            try:
                entry.shm.unlink()
            except FileNotFoundError:
                pass

    def manifests(self) -> tuple[ShmManifest, ...]:
        """Manifests of every artifact this process published (what the
        executor ships to worker initializers)."""
        return tuple(
            e.manifest for e in self._entries.values()
            if e.owner_pid == os.getpid()
        )

    def unlink_all(self) -> None:
        """Close everything; unlink what this pid owns.

        Safe in forked children: inherited entries carry the parent's
        pid, so a worker only ever closes its mapping — unlinking is
        the owner's job (or the sweeper's, if the owner died hard).
        """
        entries, self._entries = self._entries, {}
        for entry in entries.values():
            self._close_entry(entry)


_STORE: SharedArtifactStore | None = None


def shared_store() -> SharedArtifactStore:
    """The process-wide artifact store."""
    global _STORE
    if _STORE is None:
        _STORE = SharedArtifactStore()
    return _STORE


def shutdown_shared_store() -> None:
    """Close + unlink everything this process owns (idempotent)."""
    global _STORE
    if _STORE is not None:
        _STORE.unlink_all()
        _STORE = None


def attach_manifests(manifests) -> int:
    """Worker-side: attach every manifest and hand each artifact to its
    subsystem restorer.  Returns the number of artifacts restored; an
    artifact whose segment vanished (owner shut down mid-flight) or
    whose restorer raised (initializer failure) is skipped — the worker
    falls back to rebuilding from spec.  A failed restore releases the
    reference its attach took, so a worker that keeps re-running its
    initializer (pool respawn loops) never accumulates half-initialized
    mappings."""
    import importlib

    store = shared_store()
    restored = 0
    for manifest in manifests:
        module_name = _RESTORER_MODULES.get(manifest.kind)
        if module_name is None:
            continue
        try:
            arrays, meta = store.attach(manifest)
        except FileNotFoundError:
            continue
        try:
            importlib.import_module(module_name)._shm_restore(arrays, meta)
        except Exception:
            store.release(manifest.kind, manifest.key)
            continue
        restored += 1
    return restored


def _shm_dir() -> str:
    return "/dev/shm"


def sweep_orphans() -> list[str]:
    """Unlink segments whose owner pid is dead (parent-side sweeper).

    A run killed before its atexit handler leaves its segments behind;
    every segment name carries its creator's pid, so any later run can
    tell an orphan from a live sibling's segment.  Segments carrying
    *this* pid are orphans too when no live store tracks them: the pid
    was recycled from an incarnation that died hard (e.g. a pool
    initializer failure escalating to a kill).  No-op on platforms
    without a POSIX shm filesystem.
    """
    try:
        names = os.listdir(_shm_dir())
    except OSError:
        return []
    tracked = {
        entry.manifest.segment
        for store in list(_LIVE_STORES)
        for entry in list(store._entries.values())
    }
    removed = []
    for name in names:
        if not name.startswith(SEG_PREFIX + "-"):
            continue
        parts = name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        if pid == os.getpid():
            if name in tracked:
                continue
        elif _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_shm_dir(), name))
            removed.append(name)
        except OSError:
            pass
    return removed


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
