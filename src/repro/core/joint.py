"""Joint network+server power evaluation (Section IV).

One *operating point* of the data center fixes the consolidation (an
aggregation policy, or the LP/heuristic at a scale factor K), the
server load, the SLA, and a DVFS governor.  :func:`evaluate_operating_point`
prices that point end to end:

* **network power** — switches + links of the active subnet;
* **server power** — a representative-server DES run whose per-request
  network latencies are sampled from the *consolidated* network (this
  is the coupling that makes the optimization joint: more aggregation
  ⇒ higher network latency ⇒ less compute slack ⇒ higher CPU power);
* **SLA** — the pooled 95th-percentile end-to-end latency against L.

The ISNs are statistically identical under the pooled latency mixture,
so a small number of simulated cores prices every core in the fleet —
the same scaling argument the paper uses for its Fig. 13/15 results
("scaled based on the result of our MiniNet experiments").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..consolidation.base import ConsolidationResult
from ..control.latency_monitor import LatencyMonitor
from ..errors import ConfigurationError
from ..netsim.latency import LinkLatencyModel
from ..netsim.network import NetworkModel
from ..power.meter import PowerBreakdown
from ..power.models import LinkPowerModel, SwitchPowerModel
from ..sim.runner import ServerSimConfig, ServerSimResult, run_server_simulation
from ..workloads.search import SearchWorkload

__all__ = [
    "JointSimParams",
    "JointEvaluation",
    "evaluate_operating_point",
    "evaluate_operating_points",
]


@dataclass(frozen=True)
class JointSimParams:
    """Knobs of the representative-server evaluation.

    ``sim_cores`` cores are simulated for ``duration_s`` seconds; their
    average per-core power prices all ``n_servers * n_cores_per_server``
    cores in the fleet.

    ``server_engine`` forces the governor decision engine of the
    embedded server simulation (``"tabulated"`` — the
    :mod:`repro.simfast` fast path — or ``"reference"``); ``None``
    keeps each governor's own default.  Fused sweep batches price
    their points through the lockstep :func:`evaluate_operating_points`
    (bit-identical to ``"tabulated"``) unless it is ``"reference"``.
    """

    n_servers: int = 16
    n_cores_per_server: int = 12
    sim_cores: int = 2
    duration_s: float = 12.0
    warmup_s: float = 2.0
    static_watts: float = 20.0
    seed: int = 0
    server_engine: str | None = None

    def __post_init__(self) -> None:
        if self.n_servers <= 0 or self.n_cores_per_server <= 0 or self.sim_cores <= 0:
            raise ConfigurationError("server/core counts must be positive")
        if not 0.0 <= self.warmup_s < self.duration_s:
            raise ConfigurationError("need 0 <= warmup < duration")
        if self.server_engine not in (None, "tabulated", "reference"):
            raise ConfigurationError(
                f"unknown server engine {self.server_engine!r}"
            )


@dataclass(frozen=True)
class JointEvaluation:
    """A fully priced operating point."""

    breakdown: PowerBreakdown
    sla_met: bool
    query_p95_s: float
    violation_rate: float
    n_switches_on: int
    scale_factor: float
    governor: str
    server_result: ServerSimResult
    consolidation: ConsolidationResult

    @property
    def total_watts(self) -> float:
        return self.breakdown.total_watts


def evaluate_operating_point(
    workload: SearchWorkload,
    traffic,
    consolidation: ConsolidationResult,
    utilization: float,
    governor_factory,
    params: JointSimParams | None = None,
    switch_model: SwitchPowerModel | None = None,
    link_model: LinkPowerModel | None = None,
    link_latency_model: LinkLatencyModel | None = None,
) -> JointEvaluation:
    """Price one (consolidation, load, governor) operating point.

    ``traffic`` must be the same flow set the consolidation routed —
    link utilizations (and hence network latencies) are computed from
    its actual demands.
    """
    params = params or JointSimParams()
    switch_model = switch_model or SwitchPowerModel()
    link_model = link_model or LinkPowerModel()

    network = NetworkModel(
        workload.topology,
        traffic,
        consolidation.routing,
        link_model=link_latency_model,
    )
    monitor = LatencyMonitor(network)
    sampler = monitor.pooled_sampler(seed_or_rng=params.seed)

    config = ServerSimConfig(
        utilization=utilization,
        latency_constraint_s=workload.latency_constraint_s,
        network_budget_s=workload.network_budget_s,
        n_cores=params.sim_cores,
        duration_s=params.duration_s,
        warmup_s=params.warmup_s,
        static_watts=params.static_watts,
        seed=params.seed,
    )
    server = run_server_simulation(
        workload.service_model,
        governor_factory,
        config,
        network_latency_sampler=sampler,
        engine=params.server_engine,
    )

    return _price(server, consolidation, params, switch_model, link_model)


def _price(
    server: ServerSimResult,
    consolidation: ConsolidationResult,
    params: JointSimParams,
    switch_model: SwitchPowerModel,
    link_model: LinkPowerModel,
) -> JointEvaluation:
    """Fleet-scale a server run into a priced operating point."""
    per_core = server.cpu_power_watts / params.sim_cores
    fleet_cpu = params.n_servers * params.n_cores_per_server * per_core
    switch_watts, link_watts = consolidation.subnet.network_power(switch_model, link_model)
    breakdown = PowerBreakdown(
        switch_watts=switch_watts,
        link_watts=link_watts,
        server_static_watts=params.n_servers * params.static_watts,
        server_cpu_watts=fleet_cpu,
    )
    return JointEvaluation(
        breakdown=breakdown,
        sla_met=server.meets_sla,
        query_p95_s=server.total_latency.p95,
        violation_rate=server.violation_rate,
        n_switches_on=consolidation.n_switches_on,
        scale_factor=consolidation.scale_factor,
        governor=server.governor,
        server_result=server,
        consolidation=consolidation,
    )


def evaluate_operating_points(
    workload: SearchWorkload,
    traffic,
    consolidation: ConsolidationResult,
    points,
    params: JointSimParams | None = None,
    switch_model: SwitchPowerModel | None = None,
    link_model: LinkPowerModel | None = None,
    link_latency_model: LinkLatencyModel | None = None,
) -> list:
    """Price many operating points over one consolidated network.

    ``points`` is a sequence of ``(constraint_s, utilization,
    governor_factory, governor_name)`` tuples — the per-point axes of a
    joint sweep that shares its consolidation (and hence its network
    latency mixture).  All points run through one lockstep
    :func:`~repro.simfast.multipoint.run_multipoint_simulation` pass
    per utilization level, so the DES cost grows with the number of
    *distinct event orderings*, not the number of points.  Each
    returned :class:`JointEvaluation` is bit-identical to calling
    :func:`evaluate_operating_point` on the same point with
    ``server_engine="tabulated"`` (the multipoint equivalence
    contract); results are in ``points`` order.
    """
    from ..simfast.multipoint import MultipointPoint, run_multipoint_simulation

    params = params or JointSimParams()
    switch_model = switch_model or SwitchPowerModel()
    link_model = link_model or LinkPowerModel()

    network = NetworkModel(
        workload.topology,
        traffic,
        consolidation.routing,
        link_model=link_latency_model,
    )
    monitor = LatencyMonitor(network)
    sampler = monitor.pooled_sampler(seed_or_rng=params.seed)

    # The lockstep engine requires a shared arrival trace, so points
    # are grouped by utilization (constraints and governors fork and
    # re-merge lazily inside the engine; offered load cannot).
    results: list = [None] * len(points)
    by_util: dict[float, list[int]] = {}
    for i, (_, utilization, _, _) in enumerate(points):
        by_util.setdefault(float(utilization), []).append(i)
    for utilization, idxs in by_util.items():
        mp_points = [
            MultipointPoint(
                config=ServerSimConfig(
                    utilization=utilization,
                    latency_constraint_s=points[i][0],
                    network_budget_s=workload.network_budget_s,
                    n_cores=params.sim_cores,
                    duration_s=params.duration_s,
                    warmup_s=params.warmup_s,
                    static_watts=params.static_watts,
                    seed=params.seed,
                ),
                governor_factory=points[i][2],
                governor_name=points[i][3],
            )
            for i in idxs
        ]
        servers = run_multipoint_simulation(
            workload.service_model,
            mp_points,
            network_latency_sampler=sampler,
        )
        for i, server in zip(idxs, servers):
            results[i] = _price(server, consolidation, params, switch_model, link_model)
    return results
