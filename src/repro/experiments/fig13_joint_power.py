"""Fig. 13 — total system power under joint management.

For background traffic at 1 % / 20 % / 50 % and a sweep of request
tail-latency constraints, price every aggregation policy end to end
(EPRONS-Server on the servers, the policy's subnet on the network).
The paper's signature effects:

* tighter constraints and heavier background make the deeper
  aggregation levels infeasible ("aggregation 3 cannot support a tail
  latency constraint less than 29 ms");
* in a band of constraints, *turning a switch on* (agg 3 → agg 2)
  lowers **total** power because the extra network slack lets
  EPRONS-Server slow the fleet down by more than the switch draws.

Every (background, constraint, policy) cell is one ``joint-eval``
sweep task; the per-(background, level) consolidation solve inside it
is shared through the persistent cache, so the eight constraint points
of a background level route the network exactly once.
"""

from __future__ import annotations

from ..core.joint import JointSimParams
from ..exec import SweepTask, get_context, run_sweep
from ..topology.aggregation import AGGREGATION_LEVELS
from ..units import to_ms
from .runner import ExperimentResult, register

__all__ = ["run"]

DEFAULT_BACKGROUNDS = (0.01, 0.2, 0.5)
DEFAULT_CONSTRAINTS_MS = (19.0, 22.0, 25.0, 28.0, 31.0, 34.0, 37.0, 40.0)


def build_tasks(
    backgrounds=DEFAULT_BACKGROUNDS,
    constraints_ms=DEFAULT_CONSTRAINTS_MS,
    levels=AGGREGATION_LEVELS,
    utilization: float = 0.3,
    params: JointSimParams | None = None,
    include_no_pm: bool = True,
    seed: int = 1,
) -> list[SweepTask]:
    """The fig13 sweep grid as tasks (also used by bench_joint to
    count fused dispatch units without re-deriving the grid)."""
    params = params or JointSimParams(sim_cores=2, duration_s=15.0, warmup_s=3.0)
    def _task(bg, L_ms, scheme_name, level, governor):
        return SweepTask.make(
            "joint-eval",
            tag=(bg, L_ms, scheme_name),
            arity=4,
            constraint_ms=L_ms,
            background=bg,
            level=level,
            utilization=utilization,
            governor=governor,
            params=params,
            traffic_seed=seed,
        )

    tasks = []
    for bg in backgrounds:
        for L_ms in constraints_ms:
            for level in levels:
                tasks.append(_task(bg, L_ms, f"aggregation-{level}", level, "eprons-server"))
            if include_no_pm:
                tasks.append(_task(bg, L_ms, "no-pm", 0, "no-pm"))
    return tasks


def run(
    backgrounds=DEFAULT_BACKGROUNDS,
    constraints_ms=DEFAULT_CONSTRAINTS_MS,
    levels=AGGREGATION_LEVELS,
    utilization: float = 0.3,
    params: JointSimParams | None = None,
    include_no_pm: bool = True,
    seed: int = 1,
) -> ExperimentResult:
    result = ExperimentResult(
        figure="fig13",
        title="Total system power vs constraint, aggregation and background (30% util)",
        columns=(
            "background_pct",
            "constraint_ms",
            "scheme",
            "total_w",
            "network_w",
            "server_w",
            "p95_ms",
            "sla_met",
        ),
        notes=(
            "Paper: aggregation 3 minimizes power at light background; "
            "between ~29-31 ms at 20% background, turning a switch on "
            "(agg 3 -> agg 2) lowers total power; at 50% background the "
            "deep aggregations become infeasible."
        ),
    )

    tasks = build_tasks(
        backgrounds, constraints_ms, levels, utilization, params,
        include_no_pm, seed,
    )

    ctx = get_context()
    if ctx.jobs > 1 and ctx.shm:
        # Publish the VP tables once; pool workers attach by content
        # key instead of rebuilding them.
        from ..exec.ops import publish_joint_artifacts

        publish_joint_artifacts(4, backgrounds, traffic_seed=seed)

    for outcome in run_sweep(tasks):
        if outcome.infeasible:
            # An aggregation level that cannot carry this background —
            # the paper's "cannot support" cells; no row.
            continue
        bg, L_ms, scheme = outcome.task.tag
        ev = outcome.unwrap()
        result.add(
            round(bg * 100.0, 1),
            L_ms,
            scheme,
            ev.total_watts,
            ev.breakdown.network_watts,
            ev.breakdown.server_watts,
            to_ms(ev.query_p95_s),
            ev.sla_met,
        )
    return result


@register("fig13")
def default() -> ExperimentResult:
    return run()
