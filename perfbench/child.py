"""One pass of a benchmark workload, run in a process of its own.

A fresh interpreter per pass makes every pass pay the imports, the
cold caches and the pool start-up a command-line run pays, and gives
each pass its own peak-RSS reading.  The pass prints one JSON object as
the last line of its standard output; ``perfbench/run.py`` collects it.

    python -m perfbench.child WORKLOAD --seed N [--jobs J] [--trace] [--check]
                              [--epochs E] [--smoke]

``--check`` runs the configuration the measured rows are compared
against (fig13: a reduced grid, serial, no shared memory, no fusion;
adversarial: one scenario at ``--jobs``).  ``--epochs`` cuts the
diurnal day short: with ``--epochs 1`` the pass is the cold set-up
alone, one more ``setup_s`` sample.  ``--smoke`` shrinks every workload
to a few seconds for the benchmark's own tests.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402

#: Driver keyword arguments per (workload, size, pass kind).
SWEEP_ARGS = {
    ("fig13_sweep", "full", "measure"): {},
    ("fig13_sweep", "full", "check"): dict(backgrounds=(0.2,), constraints_ms=(28.0, 31.0)),
    ("fig13_sweep", "smoke", "measure"): dict(backgrounds=(0.2,), constraints_ms=(28.0, 31.0)),
    ("fig13_sweep", "smoke", "check"): dict(backgrounds=(0.2,), constraints_ms=(31.0,)),
    ("adversarial_replay", "full", "measure"): {},
    ("adversarial_replay", "full", "check"): dict(scenarios=("flash-crowd",)),
    ("adversarial_replay", "smoke", "measure"): dict(scenarios=("flash-crowd",), n_epochs=6),
    ("adversarial_replay", "smoke", "check"): dict(scenarios=("flash-crowd",), n_epochs=6),
}
#: Reference-loop timings (about 5 ms each) taken between dispatch
#: units of a serial sweep.
REF_SAMPLES = 4


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def plain_rows(rows) -> list:
    """Rows as JSON-native lists (floats keep every digit)."""
    return json.loads(json.dumps([list(r) for r in rows], default=lambda o: o.item()))


def fig13_sim(rows) -> dict:
    """Mean over (background, constraint) cells of the cheapest scheme
    meeting the SLA."""
    best: dict = {}
    for bg, constraint, _scheme, total_w, *_rest, sla_met in rows:
        if sla_met:
            cell = (bg, constraint)
            best[cell] = min(best.get(cell, total_w), total_w)
    return {"joint_power_w": sum(best.values()) / len(best), "joint_cells": len(best)}


def adversarial_sim(rows) -> dict:
    """Adaptive regret and violated epochs summed over scenarios."""
    regret = sum(r[7] for r in rows if r[1] in ("hysteresis", "bandit"))
    violations = sum(r[4] for r in rows if r[1] in ("guardrail-only", "hysteresis", "bandit"))
    return {"regret_mj": regret, "violation_epochs": violations}


def diurnal_pass(seed: int, trace: bool, epochs: int | None, smoke: bool) -> dict:
    from perfbench import diurnal
    from perfbench.layers import traced

    arity, n_epochs = (8, 6) if smoke else (diurnal.ARITY, None)
    traffic = diurnal.day_traffic(seed, arity, epochs or n_epochs)
    with traced() if trace else nullcontext() as layers:
        out = diurnal.run_pass(traffic, arity)
    out["peak_rss_mb"] = peak_rss_mb()
    out["layers"] = layers.metrics() if trace else None
    return out


def sweep_pass(workload: str, seed: int, jobs: int, trace: bool, check: bool, smoke: bool) -> dict:
    from repro.core.joint import JointSimParams
    from repro.exec import ExecContext, set_context
    from repro.exec.registry import preload_ops
    from repro.experiments import adversarial, fig13_joint_power

    from perfbench.layers import observe_exec, traced
    from perfbench.reference import Gauge

    preload_ops()
    kwargs = dict(SWEEP_ARGS[(workload, "smoke" if smoke else "full", "check" if check else "measure")])
    if workload == "fig13_sweep":
        driver, summarize = fig13_joint_power.run, fig13_sim
        # The seed drives the server DES (arrivals, service times); the
        # background traffic keeps the paper's seed, so every seed packs
        # the same 96 feasible cells.  Seed 0 is the CLI's exact run.
        kwargs["params"] = JointSimParams(sim_cores=2, duration_s=15.0, warmup_s=3.0, seed=seed)
        ctx = ExecContext(jobs=jobs, cache=False)
        if check:
            ctx = ctx.with_(jobs=1, shm=False, batch=False)
    else:
        driver, summarize = adversarial.run, adversarial_sim
        kwargs.update(scenario_seed=seed, seed=seed)
        ctx = ExecContext(jobs=jobs, cache=False)
    set_context(ctx)
    setup_s = perf_counter() - T0

    gauge = Gauge(REF_SAMPLES)
    setup_ref_s = gauge.setup_s(setup_s)
    if ctx.jobs > 1:
        gauge = None  # pool workers run the units; nothing to time between
    with observe_exec(gauge) as seen, (traced() if trace else nullcontext()) as layers:
        t0 = perf_counter()
        result = driver(**kwargs)
        run_s = perf_counter() - t0 - (gauge.overhead_s if gauge else 0.0)
    outcomes = seen["outcomes"]
    busy_s = sum(o.duration_s for o in outcomes)
    rows = plain_rows(result.rows)
    return {
        "setup_s": setup_ref_s,
        "setup_wall_s": setup_s,
        "run_s": run_s,
        "ref_ms": 1e3 * statistics.median(gauge.samples) if gauge else None,
        "run_ref": gauge.run_ref(run_s) if gauge else None,
        "peak_rss_mb": peak_rss_mb(),
        "rows": rows,
        "sim": summarize(rows),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.status in ("error", "timeout")),
        "infeasible": sum(1 for o in outcomes if o.infeasible),
        "exec": {
            "exec.tasks": len(outcomes),
            "exec.dispatch_units": seen["dispatch_units"],
            "exec.publish_s": seen["publish_s"],
            "exec.parallel_eff": busy_s / (ctx.jobs * run_s),
        },
        "layers": layers.metrics() if trace else None,
        "problems": [],
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "diurnal_k16":
        out = diurnal_pass(args.seed, args.trace, args.epochs, args.smoke)
    else:
        out = sweep_pass(args.workload, args.seed, args.jobs, args.trace, args.check, args.smoke)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
