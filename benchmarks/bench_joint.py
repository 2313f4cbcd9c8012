"""Benchmark: zero-pickle shm fabric + fused batch dispatch for joint sweeps.

Times the two joint-sweep experiment drivers end to end at ``--jobs 8``
in two executor configurations:

* **reference** — ``shm=False, batch=False``: every sweep point is an
  independent scalar task; each pool worker rebuilds the VP tables
  from spec and re-solves the per-group consolidation its siblings
  already solved.
* **fabric** — ``shm=True, batch=True``: the parent publishes the
  compiled artifacts into ``multiprocessing.shared_memory`` once
  (:func:`repro.exec.ops.publish_joint_artifacts`), workers attach by
  content key, and cache-miss points that share (background, level, …)
  are fused into one batch call that hoists the consolidation solve
  and traffic build out of the per-point loop.

A third configuration — **fabric + multipoint** — keeps the fused
dispatch but runs each fused batch's whole constraint grid as one
lockstep :func:`repro.simfast.run_multipoint_simulation` pass
(``server_engine="multipoint"``), attacking the DES floor itself; its
row reports ``des_speedup_vs_fabric`` (same overheads, only the DES
changes) alongside the reference comparison.

All configurations must produce **bit-identical** experiment rows —
asserted here over a SHA-256 of every row of both figures; the fabric
only ever skips recomputation of content-identical data.  Reference
runs are timed *before* any fabric run so forked workers cannot
inherit warm parent-side registries.

Honest accounting (Amdahl): a joint sweep is fabric overhead (task
dispatch, worker artifact rebuilds, redundant per-point consolidation
solves) *plus* the per-point DES simulations, which are irreducible
per point and identical in both modes.  At the paper-default 15 s
simulation windows the sweep is DES-bound, so whole-driver wall-clock
gains are bounded no matter how good the fabric is.  This benchmark
therefore reports, per experiment:

* whole-driver wall-clock in both modes at the **paper-default** grid,
* the same at a **fine-grain** grid (1 s windows — the online
  evaluation regime the fabric targets),
* the inline **DES floor** (the same simulations run hoisted and
  serial, no dispatch at all) and the derived **fabric-overhead
  speedup** = (reference − floor) / (fabric − floor),
* structural fabric metrics: fused dispatch units vs scalar tasks,
  and per-worker artifact attach vs rebuild time.

The persistent result cache is disabled throughout: the benchmark
measures computation, not disk reads.  The fabric total *includes* the
parent-side prewarm/publish (timed explicitly, reported as
``prewarm_s``) — the speedup is work deduplication, not deferral.

Run as a module (repository root on ``sys.path``, ``src`` on
``PYTHONPATH``)::

    PYTHONPATH=src python -m benchmarks.bench_joint
    PYTHONPATH=src python -m benchmarks.bench_joint --quick   # CI smoke

Emits ``BENCH_joint.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import time

from repro.core.joint import JointSimParams, evaluate_operating_point
from repro.exec import ExecContext, shutdown_shared_store, use_context
from repro.exec.executor import _fuse_round
from repro.experiments import datacenter_scale, fig13_joint_power

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
    """Parent-side prewarm + publish cost, timed explicitly and added
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


def measure_des_floor() -> tuple[float, int]:
    """The fig13 fine-grain simulations run hoisted, serial and inline:
    no pool, no dispatch, consolidation/traffic solved once per group.
    This is the irreducible DES cost both executor modes must pay."""
    from repro.exec.ops import _cached_consolidation, governor_factory, workload_for
    from repro.topology import AGGREGATION_LEVELS

    with use_context(ExecContext(jobs=1, **REFERENCE_CTX)):
        workload = workload_for(4)
        for bg in fig13_joint_power.DEFAULT_BACKGROUNDS:
            workload.traffic(bg, seed_or_rng=SEED)  # warm outside the timer

        t0 = time.perf_counter()
        n = 0
        for bg in fig13_joint_power.DEFAULT_BACKGROUNDS:
            for level, gov in [(lvl, "eprons-server") for lvl in AGGREGATION_LEVELS] + [
                (0, "no-pm")
            ]:
                try:
                    cons = _cached_consolidation(
                        arity=4, scheme="aggregation", level=level,
                        background=bg, traffic_seed=SEED,
                    )
                except Exception:
                    continue  # infeasible group — the drivers skip these too
                traffic = None
                for L_ms in fig13_joint_power.DEFAULT_CONSTRAINTS_MS:
                    w = workload_for(4, L_ms)
                    if traffic is None:
                        traffic = w.traffic(bg, seed_or_rng=SEED)
                    try:
                        evaluate_operating_point(
                            w, traffic, cons, 0.3,
                            governor_factory(gov, w), params=FINE_PARAMS,
                        )
                        n += 1
                    except Exception:
                        pass
        return time.perf_counter() - t0, n


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
    """Per-worker artifact readiness: rebuild-from-spec vs shm attach,
    each in a fresh subprocess with imports preloaded (forked pool
    workers inherit imports, so import time is excluded)."""
    import os
    import pickle
    import subprocess
    import sys
    import tempfile

    from repro.exec.ops import publish_joint_artifacts

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
    attach_code = (
        "import pickle, sys, time\n"
        "from repro.exec.shm import attach_manifests\n"
        "import repro.simfast.tables\n"
        "with open(sys.argv[1], 'rb') as fh:\n"
        "    manifests = pickle.load(fh)\n"
        "t0 = time.perf_counter()\n"
        "n = attach_manifests(manifests)\n"
        "assert n >= 1, f'only {n} manifests attached'\n"
        "print(time.perf_counter() - t0)\n"
    )

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")

    def timed(code, *args):
        out = subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True, text=True, env=env,
        )
        if out.returncode != 0:
            raise RuntimeError(f"warmup probe failed: {out.stderr}")
        return float(out.stdout.strip().splitlines()[-1])

    manifests = publish_joint_artifacts(
        4, fig13_joint_power.DEFAULT_BACKGROUNDS, traffic_seed=SEED
    )
    with tempfile.NamedTemporaryFile(suffix=".pkl", delete=False) as fh:
        pickle.dump(manifests, fh)
        mpath = fh.name
    try:
        rebuild_s = min(timed(rebuild_code) for _ in range(3))
        attach_s = min(timed(attach_code, mpath) for _ in range(3))
    finally:
        os.unlink(mpath)
    return {"rebuild_s": rebuild_s, "attach_s": attach_s}


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

    # Phase 2: fabric runs (the drivers publish artifacts themselves;
    # we time an explicit prewarm and fold it into the fabric total).
    rows = []
    fabric_totals: dict[tuple, float] = {}
    try:
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
            fabric_totals[(name, grid)] = fabric_s

        # Phase 2.5: fabric + lockstep multipoint DES.  Same fused
        # dispatch, but each fused batch hands its whole constraint
        # grid to one run_multipoint_simulation pass instead of a
        # per-point tabulated loop — this is the DES-side reduction on
        # top of the fabric's dispatch-side one, so it is compared
        # against the fabric mode (both warm, identical overheads).
        for name, grid, run_fn, spec in grid_rows:
            mp_spec = dict(spec)
            if "params" in mp_spec:
                mp_spec["params"] = dataclasses.replace(
                    mp_spec["params"], server_engine="multipoint"
                )
            else:
                mp_spec["server_engine"] = "multipoint"
            prewarm_s = measure_prewarm(name, spec)
            result, run_s = run_mode(run_fn, mp_spec, FABRIC_CTX, args.jobs)
            mp_s = prewarm_s + run_s
            digest, n_rows, ref_s = reference[(name, grid)]
            mp_digest = rows_digest(result)
            if mp_digest != digest:
                raise AssertionError(
                    f"{name}/{grid}: multipoint rows diverged from the "
                    f"reference mode ({mp_digest[:16]} != {digest[:16]}) — "
                    "the lockstep engine must be bit-identical"
                )
            fabric_s = fabric_totals[(name, grid)]
            row = {
                "experiment": name,
                "grid": grid,
                "engine": "multipoint",
                "n_rows": n_rows,
                "reference_s": ref_s,
                "fabric_s": fabric_s,
                "multipoint_s": mp_s,
                "prewarm_s": prewarm_s,
                "speedup_vs_reference": ref_s / mp_s,
                "des_speedup_vs_fabric": fabric_s / mp_s,
                "rows_digest": digest,
                "bit_identical": True,
            }
            print(
                f"{name}/{grid}: multipoint{mp_s:7.2f}s  "
                f"(vs fabric {row['des_speedup_vs_fabric']:.2f}x, "
                f"vs reference {row['speedup_vs_reference']:.2f}x, digest ok)"
            )
            rows.append(row)

        # Phase 3 (strictly after every timed run — measuring the floor
        # inline warms the parent's in-process memo, and forked workers
        # would inherit it and corrupt the fabric timings):
        if not args.quick:
            floor_s, floor_n = measure_des_floor()
            fabric_metrics["fig13_fine_grain_des_floor_s"] = floor_s
            fabric_metrics["fig13_fine_grain_des_floor_points"] = floor_n
            warmup = measure_worker_warmup()
            fabric_metrics["worker_warmup"] = warmup
            print(
                f"structural: {fabric_metrics['fig13_tasks']} tasks -> "
                f"{fabric_metrics['fig13_dispatches_fused']} fused dispatches; "
                f"DES floor {floor_s:.2f}s/{floor_n} sims; "
                f"worker warmup rebuild {warmup['rebuild_s'] * 1e3:.1f}ms vs "
                f"attach {warmup['attach_s'] * 1e3:.1f}ms"
            )
            for row in rows:
                if "engine" in row:
                    continue  # floor split applies to the fabric-mode row
                if row["experiment"] == "fig13" and row["grid"] == "fine-grain":
                    row["des_floor_s"] = floor_s
                    row["overhead_reference_s"] = max(0.0, row["reference_s"] - floor_s)
                    row["overhead_fabric_s"] = max(1e-9, row["fabric_s"] - floor_s)
                    row["overhead_speedup"] = (
                        row["overhead_reference_s"] / row["overhead_fabric_s"]
                    )
    finally:
        shutdown_shared_store()

    payload = {
        "benchmark": "bench_joint",
        "jobs": args.jobs,
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
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
                    "DES-bound at this grid (see des_floor_s); the fabric "
                    "can only remove dispatch/rebuild/solve overhead"
                )


if __name__ == "__main__":
    main()
