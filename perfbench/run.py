"""The repository benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``diurnal_k16`` -- one day (144 ten-minute epochs) of the delta-mode
  SDN controller with an SLA guardrail on a k=16 fat-tree;
* ``fig13_sweep`` -- the Fig. 13 joint-power driver at paper defaults
  (120 tasks) through the sweep executor;
* ``adversarial_replay`` -- the adaptive-control driver over the four
  adversarial scenarios (36 tasks) through the same executor.

Each pass runs in a fresh interpreter (``perfbench/child.py``); the
measured sweep passes run serially (``jobs=1``).  Every workload
repeats its pass (a sweep's driver call, or a diurnal day) until
``--seconds`` of run time have been measured and reports medians; at
``--seconds 15`` that is one diurnal day and one or two sweep passes.
Each pass times a fixed reference loop between its units of work
(``perfbench/reference.py``) and reports its run time also in
multiples of the loop (``run_ref``), which cancels the host's drift.
``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced pass.  Every
metric is printed by name with its unit, outputs are checked, the run
is appended to ``perfbench/history.jsonl``, and the last line of
standard output is the JSON result.  A failed check exits with 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HISTORY = ROOT / "perfbench" / "history.jsonl"

#: Workload and metric names and units come from ``BENCHMARK.json``.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
#: End-to-end metrics printed and kept in the history but not listed
#: in BENCHMARK.json: the raw wall-clock times, which follow the host's
#: drift, and the workload-specific ones (BENCHMARK.json's metrics must
#: be reported by every workload, with a value that is never 0).
COMMON = (("run_s", "s"), ("setup_wall_s", "s"), ("ref_ms", "ms"), ("failed_frac", "ratio"))
SPECIFIC = {
    "diurnal_k16": (("epoch_p50_ms", "ms"), ("epoch_p90_ms", "ms"),
                    ("net_energy_mj", "MJ"), ("rule_updates", "count")),
    "fig13_sweep": (("joint_power_w", "W"),),
    "adversarial_replay": (("regret_mj", "MJ"), ("violation_epochs", "count")),
}

#: A run must finish within this many seconds of starting.
DEADLINE_S = 170.0
#: ``setup_s`` is the median of at least this many set-ups per run,
#: each in a fresh process.
SETUP_SAMPLES = 3
#: Rows the full-size sweeps produce (fig13: 24 of its 120 cells are
#: the paper's "cannot support" results).
EXPECTED_ROWS = {"fig13_sweep": 96, "adversarial_replay": 36}


class BenchError(RuntimeError):
    """A pass crashed or timed out."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_child(workload: str, seed: int, deadline: float, *flags: str, jobs: int = 1) -> dict:
    """One pass in a fresh interpreter; its process group is killed if
    it overruns the run's deadline."""
    cmd = [sys.executable, "-m", "perfbench.child", workload, "--seed", str(seed),
           "--jobs", str(jobs), *flags]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[2:])} overran the {DEADLINE_S:.0f} s deadline") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # reap pool workers a crash left behind
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[2:])} exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def stamp() -> dict:
    """Where and on what code the run happened."""
    import numpy

    try:
        # The ceiling keeps git from reporting an enclosing repository
        # when the checkout is not one itself.
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                             ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "key": sha or "src-" + digest.hexdigest()[:16],
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "machine": f"{platform.node()} {platform.machine()} {platform.system()} {platform.release()}",
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def repeat(workload: str, seed: int, seconds: int, trace: bool, deadline: float, *flags: str,
           jobs: int = 1) -> list[dict]:
    """Measured passes until ``seconds`` of run time are measured; one
    when tracing, whose layers come from a pass of their own."""
    passes = []
    while True:
        started = time.monotonic()
        passes.append(run_child(workload, seed, deadline, *flags, jobs=jobs))
        if trace or sum(p["run_s"] for p in passes) >= seconds:
            return passes
        # Leave room for one more pass and the passes after it.
        if time.monotonic() + 2.0 * (time.monotonic() - started) > deadline:
            return passes


def diurnal(seed: int, seconds: int, trace: bool, smoke: bool, deadline: float):
    smoke_flag = ["--smoke"] * smoke
    days = repeat("diurnal_k16", seed, seconds, trace, deadline, *smoke_flag)
    # More cold set-ups if needed, each in a fresh process as a day's own is.
    setups = days + [run_child("diurnal_k16", seed, deadline, "--epochs", "1", *smoke_flag)
                     for _ in range(SETUP_SAMPLES - len(days))]
    problems = [problem for s in setups for problem in s["problems"]]
    for day in days[1:]:
        if day["sim"] != days[0]["sim"]:
            problems.append("simulated metrics differ between repeated days at one seed")
    attempted = sum(s["attempted"] for s in setups)
    failed = sum(s["failed"] for s in setups)
    metrics = {k: statistics.median(d[k] for d in days)
               for k in ("run_s", "run_ref", "ref_ms", "peak_rss_mb",
                         "epoch_p50_ms", "epoch_p90_ms")}
    for k in ("setup_s", "setup_wall_s"):
        metrics[k] = statistics.median(s[k] for s in setups)
    metrics.update(days[0]["sim"])
    metrics["failed_frac"] = failed / attempted
    notes = [f"run_s, run_ref, peak_rss_mb and the epoch percentiles are medians of "
             f"{len(days)} day(s) of {days[0]['epoch_samples']} warm epochs; setup_s is the "
             f"median of {len(setups)} cold set-ups, one per process"]
    layers = None
    if trace:
        traced = run_child("diurnal_k16", seed, deadline, "--trace", *smoke_flag)
        problems += traced["problems"]
        layers = dict(traced["layers"])
        layers.update({"exec.tasks": 0, "exec.dispatch_units": 0, "exec.publish_s": 0.0,
                       "exec.parallel_eff": 0.0})
        layers["trace.overhead_s"] = traced["run_s"] - metrics["run_s"]
        if traced["sim"] != days[0]["sim"]:
            problems.append("traced pass changed the simulated metrics: "
                            f"{traced['sim']} != {days[0]['sim']}")
        notes.append("layer times come from a second, traced pass in a fresh process")
    return metrics, layers, attempted, failed, problems, notes


def sweep(workload: str, seed: int, seconds: int, trace: bool, smoke: bool, deadline: float):
    jobs = nproc()
    smoke_flag = ["--smoke"] * smoke
    # Measured passes run serially: one process makes the load, and the
    # reference loop can be timed between its dispatch units.
    passes = repeat(workload, seed, seconds, trace, deadline, *smoke_flag)
    check = run_child(workload, seed, deadline, "--check", *smoke_flag, jobs=jobs)
    problems = []
    rows = passes[0]["rows"]
    for p in passes[1:]:
        if p["rows"] != rows:
            problems.append("rows differ between repeated passes at one seed")
    if not smoke and len(rows) != EXPECTED_ROWS[workload]:
        problems.append(f"{len(rows)} rows, expected {EXPECTED_ROWS[workload]}")
    if workload == "fig13_sweep":
        key = {(r[0], r[1], r[2]) for r in check["rows"]}
        subset = [r for r in rows if (r[0], r[1], r[2]) in key]
        what = "the serial no-shm/no-batch reduced grid"
    else:
        names = {r[0] for r in check["rows"]}
        subset = [r for r in rows if r[0] in names]
        what = f"the jobs={jobs} replay of {sorted(names)}"
    if not check["rows"] or subset != check["rows"]:
        problems.append(f"rows of the serial passes differ from {what}")

    # Every pass sets up the same way before its driver call, so each
    # gives a set-up sample.
    setups = passes + [check]
    layers = None
    if trace:
        pooled = run_child(workload, seed, deadline, *smoke_flag, jobs=jobs)
        traced = run_child(workload, seed, deadline, "--trace", *smoke_flag)
        setups += [pooled, traced]
        layers = dict(traced["layers"])
        layers.update(pooled["exec"])
        layers["trace.overhead_s"] = traced["run_s"] - passes[0]["run_s"]
        for name, p in ((f"jobs={jobs}", pooled), ("traced", traced)):
            if p["rows"] != rows:
                problems.append(f"{name} pass rows differ from the serial rows")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {k: statistics.median(p[k] for p in passes)
               for k in ("run_s", "run_ref", "ref_ms", "peak_rss_mb")}
    for k in ("setup_s", "setup_wall_s"):
        metrics[k] = statistics.median(p[k] for p in setups)
    metrics.update(passes[0]["sim"])
    metrics["failed_frac"] = failed / attempted
    notes = [f"run_s, run_ref and peak_rss_mb are medians of {len(passes)} serial pass(es), "
             f"setup_s of {len(setups)} passes; {passes[0]['infeasible']} infeasible cells "
             "per pass count as results"]
    if trace:
        notes.append(f"layer times come from a traced serial pass, exec.* from a pass at "
                     f"jobs={jobs}; trace.overhead_s compares the traced pass with the first "
                     "untraced one")
    return metrics, layers, attempted, failed, problems, notes


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    deadline = start + DEADLINE_S
    trace = bool(args.trace)
    try:
        if args.workload == "diurnal_k16":
            result = diurnal(args.seed, args.seconds, trace, args.smoke, deadline)
        else:
            result = sweep(args.workload, args.seed, args.seconds, trace, args.smoke, deadline)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    metrics, layers, attempted, failed, problems, notes = result
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    units = dict(END_TO_END + COMMON + SPECIFIC[args.workload])
    info = stamp()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"sha={info['git_sha']} python={info['python']} numpy={info['numpy']} "
          f"nproc={info['nproc']} machine={info['machine']}")
    for note in notes:
        print(f"  note: {note}")
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>16.6g} {unit}")
    if layers is not None:
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {layers[name]:>16.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems

    with HISTORY.open("a") as fh:
        fh.write(json.dumps({**info, "workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "smoke": args.smoke, "correct": correct,
                             "attempted": attempted, "failed": failed,
                             "metrics": metrics, "layers": layers, "problems": problems}) + "\n")

    reported = PER_LAYER if trace else END_TO_END
    values = layers if trace else metrics
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
