"""Benchmark: parent-side prewarm + fused batch dispatch for joint sweeps.

Times the two joint-sweep experiment drivers end to end (``--jobs``, default 8)
in two executor configurations:

* **reference** — ``shm=False, batch=False``: every sweep point is an
  independent scalar task; each pool worker rebuilds the VP tables
  from spec and re-solves the per-group consolidation its siblings
  already solved.
* **fabric** — ``shm=True, batch=True``: the parent builds the VP
  tables once before the pool forks
  (:func:`repro.exec.ops.publish_joint_artifacts`), so every worker
  inherits them warm, and cache-miss points that share (background,
  level, …) are fused into one batch call that hoists the
  consolidation solve and traffic build out of the per-point loop.

The fabric mode also changes the DES: a fused batch runs each
utilization's whole (constraint, governor) grid as one lockstep
:func:`repro.simfast.run_multipoint_simulation` pass, while the
reference mode replays one tabulated event loop per point.

Both configurations must produce **bit-identical** experiment rows —
asserted here over a SHA-256 of every row of both figures; the fabric
only ever skips recomputation of content-identical data.  Reference
runs are timed *before* any fabric run so forked workers cannot
inherit warm parent-side registries.

Honest accounting (Amdahl): a joint sweep is fabric overhead (task
dispatch, worker artifact rebuilds, redundant per-point consolidation
solves) *plus* the DES simulations.  At the paper-default 15 s
simulation windows the sweep is DES-bound, so the whole-driver gain
comes mostly from the lockstep DES.  This benchmark therefore reports,
per experiment:

* whole-driver wall-clock in both modes at the **paper-default** grid,
* the same at a **fine-grain** grid (1 s windows — the online
  evaluation regime the fabric targets),
* the inline **DES floors** of each mode at the fine-grain grid (the
  same simulations run hoisted and serial, no dispatch at all:
  per-point scalar loops vs one lockstep pass per fused group).  They
  are serial, so they bound the drivers' wall-clock only on one core,
* structural fabric metrics: fused dispatch units vs scalar tasks,
  and the per-worker VP-table rebuild time the prewarm saves.

The persistent result cache is disabled throughout: the benchmark
measures computation, not disk reads.  The fabric total *includes* the
parent-side prewarm (timed explicitly, reported as
``prewarm_s``) — the speedup is work deduplication (shared solves,
one event pass per fused group), not deferral.

Run as a module (repository root on ``sys.path``, ``src`` on
``PYTHONPATH``)::

    PYTHONPATH=src python -m benchmarks.bench_joint
    PYTHONPATH=src python -m benchmarks.bench_joint --quick   # CI smoke

Emits ``BENCH_joint.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import time

from repro.core.joint import (
    JointSimParams,
    evaluate_operating_point,
    evaluate_operating_points,
)
from repro.exec import ExecContext, use_context
from repro.exec.executor import _fuse_round
from repro.experiments import datacenter_scale, fig13_joint_power

from benchmarks.bench_control import host_description

JOBS = 8
SEED = 1

REFERENCE_CTX = dict(cache=False, shm=False, batch=False)
FABRIC_CTX = dict(cache=False, shm=True, batch=True)

#: The online/fine-grain operating point: short windows, where the
#: sweep fabric rather than the DES bounds wall-clock.
FINE_PARAMS = JointSimParams(sim_cores=1, duration_s=1.0, warmup_s=0.25)


def rows_digest(result) -> str:
    """SHA-256 over every row the experiment would print/plot."""
    payload = {
        "figure": result.figure,
        "columns": list(result.columns),
        "rows": [[repr(v) for v in row] for row in result.rows],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def grids(quick: bool):
    """(experiment, grid label, run fn, spec, task-builder spec) rows."""
    if quick:
        fig_spec = dict(
            backgrounds=(0.2,),
            constraints_ms=(25.0, 31.0, 40.0),
            params=JointSimParams(sim_cores=1, duration_s=4.0, warmup_s=1.0),
            seed=SEED,
        )
        return [
            ("fig13", "quick", fig13_joint_power.run, fig_spec),
            ("datacenter_scale", "quick", datacenter_scale.run,
             dict(arities=(4,), duration_s=4.0, seed=SEED)),
        ]
    return [
        ("fig13", "default", fig13_joint_power.run, dict(seed=SEED)),
        ("datacenter_scale", "default", datacenter_scale.run, dict(seed=SEED)),
        ("fig13", "fine-grain", fig13_joint_power.run,
         dict(params=FINE_PARAMS, seed=SEED)),
        ("datacenter_scale", "fine-grain", datacenter_scale.run,
         dict(duration_s=1.0, seed=SEED)),
    ]


def run_mode(run_fn, spec: dict, mode_kwargs: dict, jobs: int):
    """One timed end-to-end driver run under a fresh executor context."""
    ctx = ExecContext(jobs=jobs, **mode_kwargs)
    with use_context(ctx):
        t0 = time.perf_counter()
        result = run_fn(**spec)
        elapsed = time.perf_counter() - t0
    return result, elapsed


def measure_prewarm(name: str, spec: dict) -> float:
    """Parent-side prewarm cost, timed explicitly and added
    into the fabric total so nothing escapes the stopwatch."""
    from repro.exec.ops import publish_joint_artifacts

    t0 = time.perf_counter()
    if name == "fig13":
        backgrounds = spec.get("backgrounds", fig13_joint_power.DEFAULT_BACKGROUNDS)
        publish_joint_artifacts(4, backgrounds, traffic_seed=spec.get("seed", SEED))
    else:
        arities = spec.get("arities", (4, 6))
        background = spec.get("background", 0.2)
        for k in arities:
            publish_joint_artifacts(k, (background,), traffic_seed=spec.get("seed", SEED))
    return time.perf_counter() - t0


def measure_des_floors() -> dict:
    """The fig13 fine-grain simulations run hoisted, serial and inline:
    no pool, no dispatch, consolidation/traffic solved once per group
    outside the timers.  ``scalar_s`` replays one tabulated event loop
    per point (the reference mode's DES cost); ``lockstep_s`` prices
    each fused group in one :func:`evaluate_operating_points` pass (the
    fabric mode's DES cost)."""
    from repro.errors import InfeasibleError
    from repro.exec.ops import _cached_consolidation, governor_factory, workload_for
    from repro.topology import AGGREGATION_LEVELS

    utilization = 0.3
    with use_context(ExecContext(jobs=1, **REFERENCE_CTX)):
        base = workload_for(4)
        groups = []  # (consolidation, traffic, [(workload, governor)])
        for bg in fig13_joint_power.DEFAULT_BACKGROUNDS:
            traffic = base.traffic(bg, seed_or_rng=SEED)
            for level in AGGREGATION_LEVELS:
                try:
                    cons = _cached_consolidation(
                        arity=4, scheme="aggregation", level=level,
                        background=bg, traffic_seed=SEED,
                    )
                except InfeasibleError:
                    continue  # infeasible group — the drivers skip these too
                govs = ("eprons-server", "no-pm") if level == 0 else ("eprons-server",)
                members = [
                    (workload_for(4, L_ms), gov)
                    for L_ms in fig13_joint_power.DEFAULT_CONSTRAINTS_MS
                    for gov in govs
                ]
                groups.append((cons, traffic, members))

        t0 = time.perf_counter()
        for cons, traffic, members in groups:
            for w, gov in members:
                evaluate_operating_point(
                    w, traffic, cons, utilization,
                    governor_factory(gov, w), params=FINE_PARAMS,
                )
        scalar_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        for cons, traffic, members in groups:
            evaluate_operating_points(
                base, traffic, cons,
                [
                    (w.latency_constraint_s, utilization, governor_factory(gov, w), None)
                    for w, gov in members
                ],
                params=FINE_PARAMS,
            )
        lockstep_s = time.perf_counter() - t0
    return {
        "scalar_s": scalar_s,
        "lockstep_s": lockstep_s,
        "points": sum(len(members) for _, _, members in groups),
    }


def dispatch_counts() -> dict:
    """Scalar tasks vs fused dispatch units for the full fig13 grid —
    the structural IPC reduction, independent of machine timing."""
    import repro.exec.ops  # noqa: F401 — populates the batchable registry

    tasks = fig13_joint_power.build_tasks(seed=SEED)
    units = _fuse_round(tasks, list(range(len(tasks))), set())
    return {
        "fig13_tasks": len(tasks),
        "fig13_dispatches_fused": len(units),
        "dispatch_reduction": len(tasks) / len(units),
    }


def measure_worker_warmup() -> dict:
    """Per-worker VP-table build time — what each worker pays when the
    parent did not prewarm (``--no-shm``) — timed in a fresh subprocess
    with imports preloaded (forked pool workers inherit imports, so
    import time is excluded)."""
    import os
    import subprocess
    import sys

    rebuild_code = (
        "import time\n"
        "from repro.exec.ops import workload_for\n"
        "from repro.simfast.tables import shared_table_engine\n"
        "from repro.server.dvfs import XEON_LADDER\n"
        "t0 = time.perf_counter()\n"
        "wl = workload_for(4)\n"
        "eng = shared_table_engine(wl.service_model, XEON_LADDER)\n"
        "eng.stack(None, 32)\n"
        "print(time.perf_counter() - t0)\n"
    )

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")

    def timed(code):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
        )
        if out.returncode != 0:
            raise RuntimeError(f"warmup probe failed: {out.stderr}")
        return float(out.stdout.strip().splitlines()[-1])

    return {"rebuild_s": min(timed(rebuild_code) for _ in range(3))}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=JOBS)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: reduced grids + durations"
    )
    parser.add_argument("--out", default="BENCH_joint.json")
    args = parser.parse_args(argv)

    grid_rows = grids(args.quick)

    # Phase 1: every reference run, while this process is still cold —
    # a fabric prewarm would otherwise leak warm registries into the
    # reference workers through fork.
    reference: dict[tuple, tuple] = {}
    for name, grid, run_fn, spec in grid_rows:
        result, elapsed = run_mode(run_fn, spec, REFERENCE_CTX, args.jobs)
        reference[(name, grid)] = (rows_digest(result), len(result.rows), elapsed)
        print(f"{name}/{grid}: reference {elapsed:7.2f}s  ({len(result.rows)} rows)")

    fabric_metrics = dispatch_counts()

    # Phase 2: fabric runs (the drivers prewarm the parent themselves;
    # we time an explicit prewarm and fold it into the fabric total).
    rows = []
    for name, grid, run_fn, spec in grid_rows:
        prewarm_s = measure_prewarm(name, spec)
        result, run_s = run_mode(run_fn, spec, FABRIC_CTX, args.jobs)
        fabric_s = prewarm_s + run_s
        digest, n_rows, ref_s = reference[(name, grid)]
        fabric_digest = rows_digest(result)
        if fabric_digest != digest:
            raise AssertionError(
                f"{name}/{grid}: fabric rows diverged from the reference "
                f"mode ({fabric_digest[:16]} != {digest[:16]}) — the "
                "fabric must be bit-identical"
            )
        row = {
            "experiment": name,
            "grid": grid,
            "n_rows": n_rows,
            "reference_s": ref_s,
            "fabric_s": fabric_s,
            "prewarm_s": prewarm_s,
            "speedup": ref_s / fabric_s,
            "rows_digest": digest,
            "bit_identical": True,
        }
        print(
            f"{name}/{grid}: fabric    {fabric_s:7.2f}s  "
            f"(prewarm {prewarm_s:.2f}s, speedup {row['speedup']:5.1f}x, "
            f"digest ok)"
        )
        rows.append(row)

    # Phase 3 (strictly after every timed run — measuring the floor
    # inline warms the parent's in-process memo, and forked workers
    # would inherit it and corrupt the fabric timings):
    if not args.quick:
        floors = measure_des_floors()
        fabric_metrics["fig13_fine_grain_des_floor"] = floors
        warmup = measure_worker_warmup()
        fabric_metrics["worker_warmup"] = warmup
        print(
            f"structural: {fabric_metrics['fig13_tasks']} tasks -> "
            f"{fabric_metrics['fig13_dispatches_fused']} fused dispatches; "
            f"DES floor {floors['scalar_s']:.2f}s scalar vs "
            f"{floors['lockstep_s']:.2f}s lockstep / {floors['points']} sims; "
            f"worker VP-table rebuild {warmup['rebuild_s'] * 1e3:.1f}ms "
            "(saved by the prewarm)"
        )

    payload = {
        "benchmark": "bench_joint",
        "jobs": args.jobs,
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "host": host_description(),
        "fabric_metrics": fabric_metrics,
        "results": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if not args.quick:  # tiny smoke grids can't amortize the dedup
        for row in rows:
            if "speedup" in row and row["speedup"] < 5.0:
                print(
                    f"NOTE: {row['experiment']}/{row['grid']} wall-clock "
                    f"speedup {row['speedup']:.1f}x < 5x — the sweep is "
                    "DES-bound at this grid (see fig13_fine_grain_des_floor)"
                )


if __name__ == "__main__":
    main()
