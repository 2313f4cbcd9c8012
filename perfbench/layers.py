"""Per-layer timing from outside: wrappers around the public calls into
each ``repro`` layer.

Nothing under ``src/`` is instrumented.  :func:`traced` patches the
entry points listed in :data:`TIMED` (class methods on their class,
module functions on every ``repro`` module that imported them by name)
with wrappers that add the call's wall-clock time to its layer and
count what the call did, then restores the originals.

A layer's time counts only its *outermost* calls: a full solve nested in
``DeltaConsolidator.consolidate`` is not counted twice.  Times are
inclusive of other layers called underneath (``consolidation.solve_s``
contains ``netfast.path_compile_s``), as the prediction table in
``perfbench/README.md`` assumes.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Every module holding a binding that gets patched must be imported
# before patching, or a later ``from x import f`` would fetch the
# original function.
import repro.consolidation.delta
import repro.consolidation.heuristic
import repro.control.adaptive
import repro.control.controller
import repro.control.guardrail
import repro.control.monitor
import repro.control.rules
import repro.core.joint
import repro.exec.executor
import repro.exec.ops
import repro.flows.prediction
import repro.netfast.index
import repro.netsim.network
import repro.sim.runner
import repro.simfast.multipoint
import repro.telemetry.collector
import repro.topology.fattree
from repro.control.guardrail import GUARD_COMMITTED, GUARD_REJECTED

__all__ = ["LayerTrace", "traced", "observe_exec"]


def _consolidate_counts(trace, self, args, kwargs, result):
    traffic = args[0] if args else kwargs["traffic"]
    trace.count["consolidation.offered_flows"] += len(traffic)
    stats = getattr(self, "last_stats", None)
    if isinstance(self, repro.consolidation.delta.DeltaConsolidator) and stats.mode == "delta":
        trace.count["consolidation.delta_epochs"] += 1
        trace.count["consolidation.repacked_flows"] += stats.n_arrived + stats.n_repredicted
    else:
        trace.count["consolidation.full_epochs"] += 1
        trace.count["consolidation.repacked_flows"] += len(traffic)


def _admit_counts(trace, self, args, kwargs, result):
    if result == GUARD_COMMITTED:
        trace.count["control.admissions"] += 1
    elif result == GUARD_REJECTED:
        trace.count["control.rejections"] += 1


def _rulediff_counts(trace, self, args, kwargs, result):
    trace.count["control.rules_changed"] += result.n_changes


def _repair_counts(trace, self, args, kwargs, result):
    trace.count["faults.repairs_" + result.mode.replace("-", "_")] += 1


def _des_counts(trace, self, args, kwargs, result):
    trace.count["simfast.events"] += kwargs["stats_out"].get("n_events", 0)


def _eval_counts(trace, self, args, kwargs, result):
    trace.count["core.points"] += len(result) if isinstance(result, list) else 1


def _predict_calls(trace, self, args, kwargs, result):
    trace.count["flows.predict_calls"] += 1


#: (owner, attribute, layer, count hook).  ``owner`` is a class (method
#: patched on the class) or a module (function patched on every repro
#: module bound to the same object).
TIMED = (
    (repro.topology.fattree.FatTree, "__init__", "topology.build", None),
    (repro.consolidation.delta.DeltaConsolidator, "consolidate", "consolidation.solve",
     _consolidate_counts),
    (repro.consolidation.heuristic.GreedyConsolidator, "consolidate", "consolidation.solve",
     _consolidate_counts),
    (repro.control.monitor.TrafficMonitor, "prune", "control.predict", None),
    (repro.control.monitor.TrafficMonitor, "predicted_traffic", "control.predict", None),
    (repro.flows.prediction.PercentilePredictor, "predict", "flows.predict", _predict_calls),
    (repro.control.controller.SdnController, "_replay_max_utilization",
     "control.guardrail_replay", None),
    (repro.control.guardrail.SlaGuardrail, "admit", "control.admit", _admit_counts),
    (repro.control.rules, "diff_routings", "control.rulediff", _rulediff_counts),
    (repro.control.adaptive.JointHysteresisController, "propose", "control.adaptive_propose", None),
    (repro.control.adaptive.ContextualBanditController, "propose", "control.adaptive_propose", None),
    (repro.control.adaptive.FixedPolicy, "propose", "control.adaptive_propose", None),
    (repro.telemetry.collector.DegradedStatsCollector, "feed", "telemetry.collect", None),
    (repro.telemetry.collector.DegradedStatsCollector, "collect", "telemetry.collect", None),
    (repro.control.controller.SdnController, "handle_failures", "faults.repair", _repair_counts),
    (repro.netsim.network.NetworkModel, "query_latency_summary", "netsim.latency", None),
    (repro.netsim.network.NetworkModel, "sample_flow_latency", "netsim.latency", None),
    (repro.simfast.multipoint, "run_multipoint_simulation", "simfast.des", _des_counts),
    (repro.sim.runner, "run_server_simulation", "simfast.des", _des_counts),
    (repro.core.joint, "evaluate_operating_point", "core.eval", _eval_counts),
    (repro.core.joint, "evaluate_operating_points", "core.eval", _eval_counts),
)

class LayerTrace:
    """Busy seconds and counters per layer for one traced pass."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.count = defaultdict(int)
        self._depth = defaultdict(int)

    def wrap(self, fn, layer, hook, method):
        trace = self
        is_des = layer == "simfast.des"

        def wrapper(*args, **kwargs):
            outer = trace._depth[layer] == 0
            if outer and is_des and kwargs.get("stats_out") is None:
                kwargs["stats_out"] = {}
            trace._depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                trace._depth[layer] -= 1
            if outer:
                trace.busy[layer] += perf_counter() - t0
                if hook is not None:
                    if method:
                        hook(trace, args[0], args[1:], kwargs, result)
                    else:
                        hook(trace, None, args, kwargs, result)
            return result

        return wrapper

    def wrap_path_lookups(self, pair, path_set):
        """Count path-set lookups and time the ones that compile.

        Packing looks pairs up through the consolidator's own pair
        cache, which asks the topology index only on a miss; a lookup
        is a call of either that is not nested in the other."""
        trace = self
        nested = [False]

        def pair_lookup(consolidator, src, dst):
            trace.count["netfast.path_lookups"] += 1
            nested[0] = True
            try:
                return pair(consolidator, src, dst)
            finally:
                nested[0] = False

        def index_lookup(index, src, dst):
            if not nested[0]:
                trace.count["netfast.path_lookups"] += 1
            if (src, dst) in index._path_sets:
                return path_set(index, src, dst)
            t0 = perf_counter()
            ps = path_set(index, src, dst)
            trace.busy["netfast.path_compile"] += perf_counter() - t0
            trace.count["netfast.pairs_compiled"] += 1
            return ps

        return pair_lookup, index_lookup

    def metrics(self) -> dict:
        """The traced layers' per-layer metrics of ``BENCHMARK.json``
        (``exec.*`` and ``trace.overhead_s`` come from elsewhere)."""
        b, c = self.busy, self.count
        lookups = c["netfast.path_lookups"]
        des_s = b["simfast.des"]
        return {
            "topology.build_s": b["topology.build"],
            "netfast.path_compile_s": b["netfast.path_compile"],
            "netfast.pairs_compiled": c["netfast.pairs_compiled"],
            "netfast.path_hit_ratio": (
                (lookups - c["netfast.pairs_compiled"]) / lookups if lookups else 0.0
            ),
            "consolidation.solve_s": b["consolidation.solve"],
            "consolidation.delta_epochs": c["consolidation.delta_epochs"],
            "consolidation.full_epochs": c["consolidation.full_epochs"],
            "consolidation.repacked_flows": c["consolidation.repacked_flows"],
            "consolidation.repack_ratio": (
                c["consolidation.repacked_flows"] / c["consolidation.offered_flows"]
                if c["consolidation.offered_flows"] else 0.0
            ),
            "control.predict_s": b["control.predict"],
            "flows.predict_calls": c["flows.predict_calls"],
            "control.guardrail_replay_s": b["control.guardrail_replay"],
            "control.admissions": c["control.admissions"],
            "control.rejections": c["control.rejections"],
            "control.rulediff_s": b["control.rulediff"],
            "control.rules_changed": c["control.rules_changed"],
            "control.adaptive_propose_s": b["control.adaptive_propose"],
            "telemetry.collect_s": b["telemetry.collect"],
            "faults.repairs_local": c["faults.repairs_local"],
            "faults.repairs_reconsolidate": c["faults.repairs_reconsolidate"],
            "faults.repairs_safe_mode": c["faults.repairs_safe_mode"],
            "netsim.latency_s": b["netsim.latency"],
            "simfast.des_s": des_s,
            "simfast.events": c["simfast.events"],
            "simfast.events_per_s": c["simfast.events"] / des_s if des_s else 0.0,
            "core.eval_s": b["core.eval"],
            "core.points": c["core.points"],
        }


def _bindings(owner, attr):
    """Every (namespace, name) bound to ``owner.attr``'s object."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        return original, [(owner, attr)]
    found = [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and getattr(mod, attr, None) is original
    ]
    return original, found


@contextmanager
def traced():
    """Install the layer wrappers for the duration of the block."""
    trace = LayerTrace()
    saved = []
    try:
        greedy = repro.consolidation.heuristic.GreedyConsolidator
        index_cls = repro.netfast.index.TopologyIndex
        saved += [(greedy, "_pair", greedy._pair), (index_cls, "path_set", index_cls.path_set)]
        greedy._pair, index_cls.path_set = trace.wrap_path_lookups(greedy._pair, index_cls.path_set)
        for owner, attr, layer, hook in TIMED:
            original, places = _bindings(owner, attr)
            wrapper = trace.wrap(original, layer, hook, isinstance(owner, type))
            for ns, name in places:
                saved.append((ns, name, original))
                setattr(ns, name, wrapper)
        yield trace
    finally:
        for ns, name, original in reversed(saved):
            setattr(ns, name, original)


@contextmanager
def observe_exec(gauge=None):
    """Record what the sweep executor did: the outcomes each
    ``run_sweep`` returned, the dispatch units of each round and the
    time spent publishing shared artifacts.  A handful of calls per
    sweep, so it stays on in untraced runs.

    With a :class:`perfbench.reference.Gauge`, a serial (``jobs=1``)
    sweep runs each dispatch unit through it.
    """
    executor, ops = repro.exec.executor, repro.exec.ops
    seen = {"outcomes": [], "dispatch_units": 0, "publish_s": 0.0}
    run_sweep, run_round = executor.run_sweep, executor._run_round
    execute = executor._execute_task
    publish = ops.publish_joint_artifacts

    def observed_run_sweep(*args, **kwargs):
        outcomes = run_sweep(*args, **kwargs)
        seen["outcomes"].extend(outcomes)
        return outcomes

    def observed_run_round(tasks, units, *args, **kwargs):
        seen["dispatch_units"] += len(units)
        return run_round(tasks, units, *args, **kwargs)

    def observed_publish(*args, **kwargs):
        t0 = perf_counter()
        try:
            return publish(*args, **kwargs)
        finally:
            seen["publish_s"] += perf_counter() - t0

    _, sweep_places = _bindings(executor, "run_sweep")
    patches = [(ns, name, observed_run_sweep) for ns, name in sweep_places]
    patches += [
        (executor, "_run_round", observed_run_round),
        (ops, "publish_joint_artifacts", observed_publish),
    ]
    if gauge is not None:
        patches.append((executor, "_execute_task", lambda task: gauge.run(execute, task)))
    saved = [(ns, name, getattr(ns, name)) for ns, name, _ in patches]
    try:
        for ns, name, fn in patches:
            setattr(ns, name, fn)
        yield seen
    finally:
        for ns, name, original in reversed(saved):
            setattr(ns, name, original)
