"""Parallel sweep executor.

Fans a list of :class:`~repro.exec.tasks.SweepTask` out over a
``concurrent.futures.ProcessPoolExecutor`` (``jobs > 1``) or runs them
serially in-process (``jobs == 1``), and reassembles results **in task
order** regardless of completion order — which, combined with task
functions being pure functions of their spec, makes sweep output
bit-identical at any parallelism level.

Each task yields a :class:`TaskOutcome` that distinguishes the ways a
sweep point can end:

* ``ok`` — the task function's return value;
* ``infeasible`` — it raised :class:`~repro.errors.InfeasibleError`
  (an operating point the paper's optimizer legitimately rejects, e.g.
  "aggregation 3 cannot support a tail latency constraint < 29 ms");
* ``timeout`` — it blew its :class:`~repro.exec.journal.RetryPolicy`
  wall-clock budget and the parent cut it loose (pool runs only);
* ``error`` — it crashed; the traceback is captured so one bad point
  does not take down a 200-point sweep, and :meth:`TaskOutcome.unwrap`
  re-raises loudly for callers that want fail-fast behavior.

The executor is self-healing on three axes, all off by default:

* **retries** — ``error``/``timeout`` outcomes are re-dispatched up to
  ``policy.max_retries`` times with deterministic exponential backoff
  (``infeasible`` is an answer, not a failure — never retried);
* **timeouts** — a hung worker is detected at collection, its pool torn
  down, and the casualties retried on a fresh pool;
* **journal** — with ``journal_path`` set, every finished task is
  appended (fsynced) to a :class:`~repro.exec.journal.RunJournal`;
  ``resume=True`` serves journaled terminal outcomes without re-running
  them, so a sweep killed at task 173 of 200 restarts at 174.

Two fabric optimizations are on by default and value-transparent:

* **pool-initializer hoisting + shm attach** — workers set up their
  ambient context, cache handle and op registry **once** per process
  (not per task), and attach the parent's published shared-memory
  artifacts (:mod:`repro.exec.shm`) so VP tables and trace arrays
  are mapped, not rebuilt; ``ctx.shm=False`` reverts to
  rebuild-from-spec.
* **batch fusion** — cache-missing tasks of a batchable op
  (:func:`~repro.exec.registry.register_batchable`) that agree on
  their shared params are dispatched as one fused batch call, which
  hoists the shared work (consolidation solve, traffic build) out of
  the per-point loop.  Outcomes are scattered back to the original
  indices; the cache records per-point entries and the journal per-
  point digests, so warm runs and ``--resume`` are indistinguishable
  from scalar dispatch.  A fused unit that fails wholesale is retried
  member-by-member as scalars.

Results are memoized through :mod:`repro.exec.cache`; fully warm sweeps
never spin up a process pool at all.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from time import perf_counter, sleep

from ..errors import InfeasibleError, SimulationError
from .cache import STATUS_INFEASIBLE, STATUS_OK, ResultCache
from .context import ExecContext, get_context, set_context, use_context
from .journal import RetryPolicy, RunJournal
from .registry import batchable_for, op_is_cached, preload_ops, resolve_task_fn
from .tasks import BatchTask, SweepTask

__all__ = ["TaskOutcome", "SweepExecutionError", "run_sweep", "sweep_stats"]


class SweepExecutionError(SimulationError):
    """A sweep task crashed (non-infeasibility failure)."""


@dataclass(frozen=True)
class TaskOutcome:
    """Result envelope for one executed (or cache/journal-served) task."""

    task: SweepTask
    status: str  # "ok" | "infeasible" | "timeout" | "error"
    value: object = None
    error: str = ""
    error_type: str = ""
    tb: str = ""
    duration_s: float = 0.0
    cached: bool = False
    #: Retry rounds this task consumed before settling (0 = first try).
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def infeasible(self) -> bool:
        return self.status == "infeasible"

    @property
    def timed_out(self) -> bool:
        return self.status == "timeout"

    @property
    def retried(self) -> bool:
        return self.retries > 0

    def unwrap(self):
        """The value, or the task's failure re-raised."""
        if self.status == "ok":
            return self.value
        if self.status == "infeasible":
            raise InfeasibleError(self.error)
        raise SweepExecutionError(
            f"task {self.task} failed: {self.error_type}: {self.error}\n{self.tb}"
        )


# -- worker-process state ----------------------------------------------------------

#: Per-process state prepared once by the pool initializer; ``None``
#: means "serial / uninitialized" and tasks fall back to the ambient
#: context per call.
_WORKER: dict | None = None

#: Times the pool initializer ran in this process (regression metric:
#: exactly 1 per worker, however many tasks it executes).
_WORKER_INIT_COUNT = 0

#: Tasks this process executed via :func:`_execute_task`.
_TASKS_EXECUTED = 0


def _worker_init(ctx: ExecContext, manifests: tuple = ()) -> None:
    """Pool-worker initializer: the once-per-process setup that
    ``_execute_task`` used to redo per task.

    Installs the worker's ambient context (``jobs=1`` so nested sweeps
    stay in-process), builds the cache handle, imports/registers every
    op module, and attaches the parent's shared-memory artifacts.
    """
    global _WORKER, _WORKER_INIT_COUNT, _TASKS_EXECUTED
    _WORKER_INIT_COUNT += 1
    # Forked workers inherit the parent's task counter (serial-mode
    # sweeps execute in-process); a fresh worker starts from zero.
    _TASKS_EXECUTED = 0
    set_context(ctx)
    preload_ops()
    if manifests and ctx.shm:
        from .shm import attach_manifests

        attach_manifests(manifests)
    _WORKER = {"cache": ResultCache(ctx.resolved_cache_dir(), enabled=ctx.cache)}


def _worker_context(ctx: ExecContext) -> ExecContext:
    """The context a task runs under inside a worker: serial, same
    cache/fabric flags, journal and retry fields dropped (journaling
    and retrying are the parent's job)."""
    return ExecContext(
        jobs=1,
        cache=ctx.cache,
        cache_dir=ctx.resolved_cache_dir(),
        shm=ctx.shm,
        batch=ctx.batch,
    )


def _execute_task(task: SweepTask) -> TaskOutcome:
    """Run one task (worker side); never raises."""
    global _TASKS_EXECUTED
    _TASKS_EXECUTED += 1
    if _WORKER is not None:
        cache = _WORKER["cache"]
    else:
        ctx = get_context()
        cache = ResultCache(ctx.resolved_cache_dir(), enabled=ctx.cache)
    cacheable = op_is_cached(task.fn)
    start = perf_counter()
    try:
        fn = resolve_task_fn(task.fn)
        value = fn(**task.kwargs)
    except InfeasibleError as err:
        if cacheable:
            cache.store(task.fn, task.kwargs, STATUS_INFEASIBLE, str(err))
        return TaskOutcome(
            task=task,
            status="infeasible",
            error=str(err),
            error_type=type(err).__name__,
            duration_s=perf_counter() - start,
        )
    except Exception as err:  # noqa: BLE001 — worker must not die on task crash
        return TaskOutcome(
            task=task,
            status="error",
            error=str(err),
            error_type=type(err).__name__,
            tb=traceback.format_exc(),
            duration_s=perf_counter() - start,
        )
    if cacheable:
        cache.store(task.fn, task.kwargs, STATUS_OK, value)
    return TaskOutcome(
        task=task, status="ok", value=value, duration_s=perf_counter() - start
    )


# -- batch fusion ------------------------------------------------------------------


@dataclass(frozen=True)
class _DispatchUnit:
    """One pool submission: a scalar task, or a fused batch."""

    wire: SweepTask
    members: tuple[int, ...]
    batch: BatchTask | None = None

    @property
    def fused(self) -> bool:
        return self.batch is not None


def _fuse_round(
    tasks: list[SweepTask], indices: list[int], descoped: set[int]
) -> list[_DispatchUnit]:
    """Group pending indices into dispatch units.

    Tasks of a batchable op that (a) carry exactly the declared param
    set and (b) agree on every shared param are fused into one unit;
    everything else — unknown shape, singleton groups, members that
    already failed a fused attempt (``descoped``) — dispatches scalar.
    Unit order follows first-member order, and members keep task order
    within a unit, so journals and outcomes are reproducible.
    """
    from .tasks import canonical_json

    units: list[_DispatchUnit] = []
    groups: dict[tuple[str, str], list[int]] = {}
    group_order: list[tuple[str, str]] = []
    for i in indices:
        task = tasks[i]
        spec = batchable_for(task.fn)
        kw = task.kwargs
        if i in descoped or spec is None or set(kw) != spec.all_params:
            units.append(_DispatchUnit(wire=task, members=(i,)))
            continue
        gkey = (
            spec.batch_fn,
            canonical_json({k: kw[k] for k in spec.shared}),
        )
        if gkey not in groups:
            groups[gkey] = []
            group_order.append(gkey)
        groups[gkey].append(i)
    for gkey in group_order:
        members = groups[gkey]
        if len(members) == 1:
            units.append(_DispatchUnit(wire=tasks[members[0]], members=(members[0],)))
            continue
        spec = batchable_for(tasks[members[0]].fn)
        batch = BatchTask.fuse(gkey[0], spec.shared, tasks, tuple(members))
        units.append(_DispatchUnit(wire=batch.to_sweep_task(), members=batch.members, batch=batch))
    return units


_POINT_DEFAULTS = {
    "value": None,
    "error": "",
    "error_type": "",
    "tb": "",
    "duration_s": 0.0,
    "cached": False,
}


def _check_batch_payload(unit: _DispatchUnit, out: TaskOutcome) -> TaskOutcome:
    """Demote a fused outcome whose payload violates the batch contract
    (not a list, wrong length) to a wholesale error — the members are
    then descoped and retried as scalars like any poisoned group."""
    if not out.ok:
        return out
    payloads = out.value
    if not isinstance(payloads, (list, tuple)) or len(payloads) != len(unit.members):
        return replace(
            out,
            status="error",
            value=None,
            error=(
                f"batch op {unit.wire.fn!r} returned "
                f"{type(payloads).__name__} instead of "
                f"{len(unit.members)} point payloads"
            ),
            error_type="SweepExecutionError",
        )
    return out


def _scatter_unit(
    unit: _DispatchUnit, tasks: list[SweepTask], out: TaskOutcome
) -> dict[int, TaskOutcome]:
    """Map one unit's outcome back to per-task outcomes."""
    if not unit.fused:
        return {unit.members[0]: out}
    payloads = out.value if out.ok else None
    if payloads is None:
        # Wholesale failure (crash, timeout, broken pool): every member
        # inherits the unit's failure and will retry as a scalar.
        return {
            i: TaskOutcome(
                task=tasks[i],
                status=out.status,
                error=out.error,
                error_type=out.error_type,
                tb=out.tb,
                duration_s=out.duration_s / len(unit.members),
            )
            for i in unit.members
        }
    results: dict[int, TaskOutcome] = {}
    for position, i in enumerate(unit.members):
        payload = {**_POINT_DEFAULTS, **payloads[position]}
        results[i] = TaskOutcome(
            task=tasks[i],
            status=payload["status"],
            value=payload["value"],
            error=payload["error"],
            error_type=payload["error_type"],
            tb=payload["tb"],
            duration_s=payload["duration_s"],
            cached=payload["cached"],
        )
    return results


# -- rounds ------------------------------------------------------------------------


def _run_round(
    tasks: list[SweepTask],
    units: list[_DispatchUnit],
    ctx: ExecContext,
    timeout_s: float | None,
) -> tuple[dict[int, TaskOutcome], set[int]]:
    """Dispatch one attempt at every unit; never raises.

    Returns per-index outcomes plus the set of indices whose *fused*
    unit failed wholesale (candidates for scalar descoping on retry).
    The wall-clock budget is enforced at collection: the parent waits
    at most ``timeout_s`` per scalar task (× members for a fused unit)
    for each future in submission order, and the first timeout tears
    the whole pool down — a hung worker wedges every task queued behind
    it, so the casualties come back as retryable ``error``/``timeout``
    outcomes rather than blocking the sweep.  Serial runs cannot
    preempt themselves; the budget is ignored there.
    """
    results: dict[int, TaskOutcome] = {}
    fused_failed: set[int] = set()
    n_tasks = sum(len(u.members) for u in units)
    if ctx.jobs > 1 and n_tasks > 1:
        worker_ctx = _worker_context(ctx)
        if ctx.shm:
            from .shm import shared_store

            manifests = shared_store().manifests()
        else:
            manifests = ()
        pool = ProcessPoolExecutor(
            max_workers=min(ctx.jobs, len(units)),
            initializer=_worker_init,
            initargs=(worker_ctx, manifests),
        )
        try:
            futures = [
                (unit, pool.submit(_execute_task, unit.wire)) for unit in units
            ]
            for unit, future in futures:
                budget = None if timeout_s is None else timeout_s * len(unit.members)
                try:
                    out = future.result(timeout=budget)
                except FuturesTimeoutError:
                    out = TaskOutcome(
                        task=unit.wire,
                        status="timeout",
                        error=f"exceeded the {budget}s wall-clock budget",
                        error_type="TimeoutError",
                        duration_s=float(budget),
                    )
                    for proc in list(pool._processes.values()):
                        proc.terminate()
                except BrokenProcessPool as err:
                    # A worker died hard (OOM kill, segfault, os._exit)
                    # and took the pool with it; every still-pending
                    # future raises this.  Convert each affected task to
                    # an error outcome — a sweep must never return None
                    # entries or let one dead worker raise past a
                    # 200-point run.
                    out = TaskOutcome(
                        task=unit.wire,
                        status="error",
                        error=str(err) or "process pool terminated abruptly",
                        error_type="BrokenProcessPool",
                    )
                if unit.fused:
                    out = _check_batch_payload(unit, out)
                    if not out.ok:
                        fused_failed.update(unit.members)
                results.update(_scatter_unit(unit, tasks, out))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    else:
        with use_context(_worker_context(ctx)):
            for unit in units:
                out = _execute_task(unit.wire)
                if unit.fused:
                    out = _check_batch_payload(unit, out)
                    if not out.ok:
                        fused_failed.update(unit.members)
                results.update(_scatter_unit(unit, tasks, out))
    return results, fused_failed


def run_sweep(
    tasks: list[SweepTask],
    ctx: ExecContext | None = None,
    policy: RetryPolicy | None = None,
    journal_path: str | None = None,
    resume: bool = False,
) -> list[TaskOutcome]:
    """Execute every task; outcomes are returned in task order.

    Cache hits are resolved in the parent process first; only misses are
    dispatched, so a warm sweep costs one cache probe per task.  With a
    ``journal_path``, every settled task is appended to a crash-safe
    :class:`~repro.exec.journal.RunJournal`; pass ``resume=True`` to
    serve previously journaled terminal outcomes instead of re-running
    them.  ``policy`` bounds per-task retries and wall-clock budgets
    (the default :class:`~repro.exec.journal.RetryPolicy` reproduces the
    historical single-shot behaviour exactly).

    Misses of batchable ops are fused into vectorized batch calls when
    ``ctx.batch`` is set (see module docstring); cache entries, journal
    records and outcomes stay per-point, so this is invisible to
    everything downstream.
    """
    ctx = ctx or get_context()
    if policy is None:
        policy = RetryPolicy(
            max_retries=ctx.max_retries,
            backoff_base_s=ctx.backoff_base_s,
            timeout_s=ctx.timeout_s,
        )
    cache_dir = ctx.resolved_cache_dir()
    cache = ResultCache(cache_dir, enabled=ctx.cache)
    if ctx.shm:
        # Reap segments orphaned by previously killed runs before
        # creating any of our own.
        from .shm import sweep_orphans

        sweep_orphans()

    if journal_path is None and ctx.journal_dir:
        # One journal file per task list, named by the list's content
        # digest: re-invoking the same sweep (the --resume workflow)
        # lands on the same file without callers naming it.
        digest = hashlib.sha256(
            "\n".join(t.digest for t in tasks).encode()
        ).hexdigest()[:16]
        journal_path = os.path.join(ctx.journal_dir, f"sweep-{digest}.jsonl")
        resume = resume or ctx.resume
    journal = RunJournal(journal_path, resume=resume) if journal_path else None
    served = journal.completed() if journal is not None else {}

    try:
        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        misses: list[int] = []
        for i, task in enumerate(tasks):
            record = served.get(task.digest)
            if record is not None:
                if record["status"] == STATUS_INFEASIBLE:
                    outcomes[i] = TaskOutcome(
                        task=task, status="infeasible", error=record["error"],
                        error_type="InfeasibleError", cached=True,
                        retries=record.get("retries", 0),
                    )
                else:
                    outcomes[i] = TaskOutcome(
                        task=task, status="ok", value=journal.value_of(record),
                        cached=True, retries=record.get("retries", 0),
                    )
                continue
            hit, status, value = cache.lookup(task.fn, task.kwargs)
            if not hit:
                misses.append(i)
            elif status == STATUS_INFEASIBLE:
                outcomes[i] = TaskOutcome(
                    task=task, status="infeasible", error=value,
                    error_type="InfeasibleError", cached=True,
                )
                _journal_record(journal, outcomes[i])
            else:
                outcomes[i] = TaskOutcome(
                    task=task, status="ok", value=value, cached=True
                )
                _journal_record(journal, outcomes[i])

        pending = misses
        descoped: set[int] = set()
        attempt = 0
        if ctx.batch:
            # Batchable specs register when their op module imports;
            # load them so fusion never depends on what the caller
            # happened to import first.
            preload_ops()
        while pending:
            if ctx.batch:
                units = _fuse_round(tasks, pending, descoped)
            else:
                units = [
                    _DispatchUnit(wire=tasks[i], members=(i,)) for i in pending
                ]
            round_results, fused_failed = _run_round(
                tasks, units, ctx, policy.timeout_s
            )
            next_pending: list[int] = []
            for i in pending:
                out = round_results[i]
                if policy.retryable(out.status) and attempt < policy.max_retries:
                    next_pending.append(i)
                    if i in fused_failed:
                        # A poisoned group proves nothing about its
                        # members — retry them individually.
                        descoped.add(i)
                    continue
                out = replace(out, retries=attempt)
                outcomes[i] = out
                _journal_record(journal, out)
            pending = next_pending
            if pending:
                backoff = policy.backoff_s(attempt)
                if backoff > 0:
                    sleep(backoff)
                attempt += 1
    finally:
        if journal is not None:
            journal.close()
    return outcomes  # type: ignore[return-value]


def _journal_record(journal: RunJournal | None, out: TaskOutcome) -> None:
    if journal is None:
        return
    journal.record(
        out.task.digest,
        out.task.fn,
        out.status,
        value=out.value,
        error=out.error,
        error_type=out.error_type,
        tb=out.tb,
        duration_s=out.duration_s,
        retries=out.retries,
    )


def sweep_stats(outcomes: list[TaskOutcome]) -> str:
    """One-line summary: counts, cache hits, failure taxonomy, retries."""
    n = len(outcomes)
    cached = sum(1 for o in outcomes if o.cached)
    infeasible = sum(1 for o in outcomes if o.infeasible)
    errors = sum(1 for o in outcomes if o.status == "error")
    timeouts = sum(1 for o in outcomes if o.status == "timeout")
    retried = sum(1 for o in outcomes if o.retried)
    total_retries = sum(o.retries for o in outcomes)
    worker_s = sum(o.duration_s for o in outcomes)
    parts = [f"{n} tasks", f"{cached} cached", f"{worker_s:.1f}s task time"]
    if infeasible:
        parts.append(f"{infeasible} infeasible")
    if timeouts:
        parts.append(f"{timeouts} timeouts")
    if errors:
        parts.append(f"{errors} errors")
    if retried:
        parts.append(f"{retried} retried ({total_retries} retries)")
    return ", ".join(parts)
