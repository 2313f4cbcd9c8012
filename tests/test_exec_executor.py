"""Sweep executor: ordering, failure capture, cache integration."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.errors import InfeasibleError
from repro.exec import (
    ExecContext,
    SweepExecutionError,
    SweepTask,
    run_sweep,
    sweep_stats,
    task_fn,
    use_context,
)


@task_fn("test/double")
def _double(*, x):
    return 2 * x


@task_fn("test/flaky")
def _flaky(*, x):
    if x < 0:
        raise InfeasibleError("negative load")
    if x > 100:
        raise ValueError("boom")
    return x


@task_fn("test/hard-exit")
def _hard_exit(*, x):
    if x == 13:
        os._exit(1)  # die without cleanup: breaks the process pool
    return x


@task_fn("test/worker-metrics")
def _worker_metrics(*, x):
    from repro.exec import executor, registry

    return {
        "pid": os.getpid(),
        "inits": executor._WORKER_INIT_COUNT,
        "preloads": registry.PRELOAD_PASSES,
        "executed": executor._TASKS_EXECUTED,
    }


@task_fn("test/tables-inherited")
def _tables_inherited(*, arity, x):
    """Whether this process already holds warm VP tables for the
    workload, checked before anything could build them."""
    from repro.exec.ops import workload_for
    from repro.server.dvfs import XEON_LADDER
    from repro.simfast import tables

    service_model = workload_for(arity).service_model
    return tables._fingerprint(service_model, XEON_LADDER) in tables._SHARED


def _ctx(tmp_path, **kw):
    kw.setdefault("jobs", 1)
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return ExecContext(**kw)


class TestRunSweep:
    def test_results_in_task_order(self, tmp_path):
        tasks = [SweepTask.make("test/double", x=i) for i in (5, 1, 9, 3)]
        outcomes = run_sweep(tasks, ctx=_ctx(tmp_path))
        assert [o.unwrap() for o in outcomes] == [10, 2, 18, 6]
        assert [o.task for o in outcomes] == tasks

    def test_infeasible_captured_not_raised(self, tmp_path):
        outcomes = run_sweep(
            [SweepTask.make("test/flaky", x=-1)], ctx=_ctx(tmp_path)
        )
        (o,) = outcomes
        assert o.infeasible and not o.ok
        with pytest.raises(InfeasibleError, match="negative load"):
            o.unwrap()

    def test_crash_captured_with_traceback(self, tmp_path):
        good = SweepTask.make("test/flaky", x=1)
        bad = SweepTask.make("test/flaky", x=101)
        outcomes = run_sweep([good, bad], ctx=_ctx(tmp_path))
        assert outcomes[0].unwrap() == 1  # one crash doesn't sink the sweep
        assert outcomes[1].status == "error"
        assert outcomes[1].error_type == "ValueError"
        assert "boom" in outcomes[1].tb
        with pytest.raises(SweepExecutionError, match="boom"):
            outcomes[1].unwrap()

    def test_warm_run_served_from_cache(self, tmp_path):
        ctx = _ctx(tmp_path)
        tasks = [SweepTask.make("test/double", x=i) for i in range(3)]
        cold = run_sweep(tasks, ctx=ctx)
        warm = run_sweep(tasks, ctx=ctx)
        assert not any(o.cached for o in cold)
        assert all(o.cached for o in warm)
        assert [o.value for o in warm] == [o.value for o in cold]

    def test_infeasible_outcome_cached(self, tmp_path):
        ctx = _ctx(tmp_path)
        task = SweepTask.make("test/flaky", x=-1)
        run_sweep([task], ctx=ctx)
        (warm,) = run_sweep([task], ctx=ctx)
        assert warm.cached and warm.infeasible

    def test_crash_never_cached(self, tmp_path):
        ctx = _ctx(tmp_path)
        task = SweepTask.make("test/flaky", x=101)
        run_sweep([task], ctx=ctx)
        (again,) = run_sweep([task], ctx=ctx)
        assert not again.cached and again.status == "error"

    def test_no_cache_context_recomputes(self, tmp_path):
        ctx = _ctx(tmp_path, cache=False)
        tasks = [SweepTask.make("test/double", x=7)]
        run_sweep(tasks, ctx=ctx)
        (o,) = run_sweep(tasks, ctx=ctx)
        assert not o.cached

    def test_parallel_matches_serial(self, tmp_path):
        tasks = [SweepTask.make("test/double", x=i) for i in range(6)]
        serial = run_sweep(tasks, ctx=_ctx(tmp_path, jobs=1, cache=False))
        fanned = run_sweep(tasks, ctx=_ctx(tmp_path, jobs=3, cache=False))
        assert [o.value for o in fanned] == [o.value for o in serial]

    def test_ambient_context_used(self, tmp_path):
        with use_context(_ctx(tmp_path)):
            (o,) = run_sweep([SweepTask.make("test/double", x=4)])
        assert o.unwrap() == 8

    def test_unknown_fn_is_error_outcome(self, tmp_path):
        (o,) = run_sweep(
            [SweepTask.make("test/not-registered", x=1)], ctx=_ctx(tmp_path)
        )
        assert o.status == "error"

    def test_dead_worker_breaks_pool_into_error_outcomes(self, tmp_path):
        """Regression: a worker dying hard (OOM kill, segfault) used to
        raise BrokenProcessPool out of ``run_sweep`` with the outcome
        list half-filled with ``None``; affected tasks must surface as
        error outcomes instead."""
        tasks = [SweepTask.make("test/hard-exit", x=x) for x in (13, 1, 2, 3)]
        outcomes = run_sweep(tasks, ctx=_ctx(tmp_path, jobs=2, cache=False))
        assert all(o is not None for o in outcomes)
        assert [o.task for o in outcomes] == tasks
        assert all(o.status in ("ok", "error") for o in outcomes)
        broken = [o for o in outcomes if o.error_type == "BrokenProcessPool"]
        assert broken  # the dead worker's task, at minimum
        with pytest.raises(SweepExecutionError):
            broken[0].unwrap()


class TestSweepStats:
    def test_summary_counts(self, tmp_path):
        ctx = _ctx(tmp_path)
        tasks = [
            SweepTask.make("test/double", x=1),
            SweepTask.make("test/flaky", x=-1),
            SweepTask.make("test/flaky", x=101),
        ]
        line = sweep_stats(run_sweep(tasks, ctx=ctx))
        assert "3 tasks" in line
        assert "1 infeasible" in line
        assert "1 errors" in line
        warm_line = sweep_stats(run_sweep(tasks[:2], ctx=ctx))
        assert "2 cached" in warm_line


class TestWorkerSetup:
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

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the parent's registries only under fork",
    )
    @pytest.mark.parametrize("shm", [True, False])
    def test_forked_workers_inherit_prewarmed_tables(self, tmp_path, shm):
        """The joint-sweep drivers prewarm VP tables in the parent when
        ``ctx.shm`` is set; forked workers must find them warm rather
        than build their own."""
        from repro.exec.ops import publish_joint_artifacts
        from repro.simfast.tables import clear_shared_engines

        ctx = _ctx(tmp_path, jobs=2, cache=False, shm=shm)
        tasks = [
            SweepTask.make("test/tables-inherited", arity=4, x=x) for x in range(4)
        ]
        clear_shared_engines()
        try:
            if ctx.shm:  # what fig13 / datacenter-scale do before fanning out
                publish_joint_artifacts(4, (0.2,))
            outs = run_sweep(tasks, ctx=ctx)
        finally:
            clear_shared_engines()
        assert [o.unwrap() for o in outs] == [shm] * len(tasks)
