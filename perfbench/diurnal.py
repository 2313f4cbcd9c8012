"""``diurnal_k16``: one day of the delta-mode SDN controller on a k=16 fat-tree.

A closed loop with one caller, as the real controller runs: epoch n+1
is issued only after epoch n committed.  The offered traffic is the
search tier's request/reply flows plus a churning elephant population
whose load follows one synthetic diurnal day at the paper's 10-minute
re-optimisation period (144 epochs).  All traffic is synthesised from
the seed, outside the timed regions.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

from repro.consolidation import GreedyConsolidator
from repro.control.controller import SdnController
from repro.control.guardrail import SlaGuardrail
from repro.errors import ReproError
from repro.flows.dynamics import FlowChurnModel
from repro.netfast import clear_index_registry
from repro.topology import canonical_link
from repro.topology.fattree import FatTree
from repro.workloads.diurnal import synth_diurnal_trace
from repro.workloads.search import SearchWorkload

from perfbench.reference import Gauge

ARITY = 16
#: Per-flow search demand that keeps the aggregator's access link
#: (1,023 reply flows plus background) routable at k=16.
QUERY_DEMAND_BPS = 5e5
SCALE_FACTOR = 2.0
EPOCH_MINUTES = 10
EPOCH_S = 60.0 * EPOCH_MINUTES
#: The trace's background spans 10-60 % of link bandwidth; scaled by
#: 0.4 the day peaks at 24 %, which packs at k=16.  A 36 % peak already
#: raises InfeasibleError at the aggregator's access link.
BACKGROUND_SCALE = 0.4
#: 10 % of the elephants are replaced each epoch (the churn rate the
#: delta engine is benchmarked at); every survivor's demand jitters.
MEAN_LIFETIME_EPOCHS = 10.0
#: Reference-loop timings (about 5 ms each) taken between epochs.
REF_SAMPLES = 2


def day_traffic(seed: int, arity: int = ARITY, n_epochs: int | None = None):
    """The day's offered traffic, one TrafficSet per epoch.

    A generator: each epoch is synthesised when the day reaches it
    (outside the timed region), so only the epoch being run is held in
    memory, as in a live controller.  ``n_epochs`` cuts the day short.
    """
    topo = FatTree(arity)
    trace = synth_diurnal_trace(seed_or_rng=seed).subsampled(EPOCH_MINUTES)
    query = SearchWorkload(topo, query_demand_bps=QUERY_DEMAND_BPS).query_flows()
    churn = FlowChurnModel(topo, mean_lifetime_epochs=MEAN_LIFETIME_EPOCHS, seed_or_rng=seed)
    for bg in trace.background_utilization[:n_epochs]:
        yield churn.advance(BACKGROUND_SCALE * float(bg)).merged_with(query)


def cold_controller(arity: int) -> SdnController:
    """A controller on a freshly built topology with no compiled path
    sets anywhere in the process, so its first epoch is truly cold."""
    clear_index_registry()
    topo = FatTree(arity)
    return SdnController(
        GreedyConsolidator(topo),
        scale_factor=SCALE_FACTOR,
        mode="delta",
        guardrail=SlaGuardrail(SearchWorkload(topo).network_budget_s),
    )


def check_epoch(topo, offered, outcome, margin_bps: float) -> list[str]:
    """Problems with one committed plan: every offered flow routed from
    its source to its destination over powered-on switches and links,
    and no directed link reserved past its usable capacity at the
    effective K (which scales switch-to-switch hops only: a host's access
    link carries its demand whatever the path)."""
    if not outcome.committed:
        return []
    result = outcome.result
    routing, subnet, k = result.routing, result.subnet, result.scale_factor
    problems = []
    if len(routing) != len(offered):
        problems.append(f"epoch {outcome.epoch}: {len(routing)} routes for {len(offered)} flows")
    load = defaultdict(float)
    for flow in offered:
        if flow.flow_id not in routing:
            problems.append(f"epoch {outcome.epoch}: flow {flow.flow_id} unrouted")
            continue
        path = routing.path(flow.flow_id)
        if path[0] != flow.src or path[-1] != flow.dst:
            problems.append(f"epoch {outcome.epoch}: flow {flow.flow_id} misrouted")
        if not subnet.switches_on.issuperset(path[1:-1]):
            problems.append(f"epoch {outcome.epoch}: flow {flow.flow_id} crosses a dark switch")
        reserved = flow.reserved_bps(k)
        for hop in zip(path, path[1:]):
            if canonical_link(*hop) not in subnet.links_on:
                problems.append(f"epoch {outcome.epoch}: flow {flow.flow_id} crosses a dark link")
            touches_host = topo.is_host(hop[0]) or topo.is_host(hop[1])
            load[hop] += flow.demand_bps if touches_host else reserved
    for (u, v), reserved in load.items():
        usable = topo.capacity(u, v) - margin_bps
        if reserved > usable * (1.0 + 1e-9):
            problems.append(
                f"epoch {outcome.epoch}: link {u}->{v} reserves {reserved:.6g} of {usable:.6g} b/s"
            )
    return problems[:20]


def _day(controller, first_outcome, first_traffic, rest, gauge, problems):
    """Run the epochs after the first on a controller whose first epoch
    already ran, each through ``gauge``, checking each plan; returns
    (per-epoch seconds, epochs failed, simulated metrics)."""
    topo = controller.consolidator.topology
    margin = controller.consolidator.safety_margin_bps
    problems.extend(check_epoch(topo, first_traffic, first_outcome, margin))
    energy_j = first_outcome.result.objective_watts * EPOCH_S
    rules = first_outcome.plan.rules.n_changes
    times, failed = [], 0
    for offered in rest:
        try:
            outcome = gauge.run(controller.run_epoch, offered)
        except ReproError as err:
            times.append(gauge.last_s)
            failed += 1
            problems.append(f"epoch raised {type(err).__name__}: {err}")
            continue
        times.append(gauge.last_s)
        problems.extend(check_epoch(topo, offered, outcome, margin))
        energy_j += outcome.result.objective_watts * EPOCH_S
        rules += outcome.plan.rules.n_changes
    sim = {
        "net_energy_mj": (energy_j + controller.transition_energy_joules) / 1e6,
        "rule_updates": rules,
    }
    return times, failed, sim


def run_pass(traffic, arity: int = ARITY) -> dict:
    """The cold set-up (topology build plus the first epoch of
    ``traffic``, an iterable of TrafficSets) and then the rest of the
    day.  A one-epoch ``traffic`` measures the set-up alone."""
    traffic = iter(traffic)
    first_traffic = next(traffic)
    problems: list[str] = []
    t0 = perf_counter()
    controller = cold_controller(arity)
    first = controller.run_epoch(first_traffic)
    setup_s = perf_counter() - t0
    gauge = Gauge(REF_SAMPLES)
    setup_ref_s = gauge.setup_s(setup_s)
    times, failed, sim = _day(controller, first, first_traffic, traffic, gauge, problems)
    out = {
        "setup_s": setup_ref_s,
        "setup_wall_s": setup_s,
        "run_s": sum(times),
        "epoch_samples": len(times),
        "attempted": 1 + len(times),
        "failed": failed,
        "sim": sim,
        "problems": problems,
    }
    if times:
        out["ref_ms"] = 1e3 * statistics.median(gauge.samples)
        out["run_ref"] = gauge.run_ref(out["run_s"])
    if len(times) >= 2:
        out["epoch_p50_ms"] = 1e3 * statistics.median(times)
        out["epoch_p90_ms"] = 1e3 * statistics.quantiles(times, n=10)[-1]
    return out
