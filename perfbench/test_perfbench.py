"""The benchmark's own tests: a tiny-size run of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest
from repro.flows.flow import Flow
from repro.flows.traffic import TrafficSet

from perfbench import child, diurnal, run
from perfbench.layers import traced

SPEC = run.SPEC


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "HISTORY", tmp_path / "history.jsonl")
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    report = lines[:-1]
    for m in expected:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in report)
    history = [json.loads(line) for line in (tmp_path / "history.jsonl").read_text().splitlines()]
    assert history[-1]["seed"] == 3 and history[-1]["key"] and history[-1]["nproc"] >= 1


def _outcome_digests(epochs):
    controller = diurnal.cold_controller(8)
    out = []
    for offered in epochs:
        res = controller.run_epoch(offered).result
        out.append((sorted(res.routing.items()), sorted(res.subnet.switches_on), res.objective_watts))
    return out


def test_wrappers_leave_outputs_unchanged_and_are_removed():
    from repro.consolidation.delta import DeltaConsolidator
    from repro.control import controller as controller_mod

    before = (DeltaConsolidator.consolidate, controller_mod.diff_routings)
    epochs = list(diurnal.day_traffic(seed=5, arity=8, n_epochs=5))
    plain = _outcome_digests(epochs)
    with traced() as layers:
        assert DeltaConsolidator.consolidate is not before[0]
        wrapped = _outcome_digests(epochs)
    assert (DeltaConsolidator.consolidate, controller_mod.diff_routings) == before
    assert wrapped == plain
    metrics = layers.metrics()
    assert metrics["consolidation.delta_epochs"] + metrics["consolidation.full_epochs"] == 5
    assert metrics["netfast.pairs_compiled"] > 0 and metrics["control.rules_changed"] > 0


def test_sweep_wrappers_leave_rows_unchanged():
    from repro.exec import ExecContext, use_context
    from repro.experiments import adversarial

    kwargs = dict(scenarios=("incast",), n_epochs=4)
    with use_context(ExecContext(jobs=1, cache=False)):
        plain = adversarial.run(**kwargs).rows
        with traced() as layers:
            wrapped = adversarial.run(**kwargs).rows
    assert wrapped == plain
    metrics = layers.metrics()
    assert metrics["control.adaptive_propose_s"] > 0 and metrics["telemetry.collect_s"] > 0


def test_diurnal_check_catches_overload_and_unrouted_flows():
    offered = next(diurnal.day_traffic(seed=2, arity=8))
    controller = diurnal.cold_controller(8)
    outcome = controller.run_epoch(offered)
    topo, margin = controller.consolidator.topology, controller.consolidator.safety_margin_bps
    assert diurnal.check_epoch(topo, offered, outcome, margin) == []

    heavy = TrafficSet([f.with_demand(f.demand_bps * 50) for f in offered])
    assert any("reserves" in p for p in diurnal.check_epoch(topo, heavy, outcome, margin))
    first = next(iter(offered))
    extra = offered.merged_with(TrafficSet([Flow("stray", first.src, first.dst, 1.0)]))
    assert any("unrouted" in p for p in diurnal.check_epoch(topo, extra, outcome, margin))


def test_fig13_summary_takes_cheapest_sla_scheme_per_cell():
    rows = [
        [20.0, 28.0, "aggregation-1", 900.0, 1, 1, 1, True],
        [20.0, 28.0, "aggregation-3", 800.0, 1, 1, 1, False],
        [20.0, 28.0, "no-pm", 1000.0, 1, 1, 1, True],
        [20.0, 31.0, "aggregation-3", 700.0, 1, 1, 1, True],
    ]
    assert child.fig13_sim(rows) == {"joint_power_w": 800.0, "joint_cells": 2}


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "fig13_sweep", "--seed", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_gauge_counts_each_unit_in_loop_timings_around_it(monkeypatch):
    from perfbench import reference

    assert reference.reference_s() > 0
    # The host "slows" by 2x after the first unit: the loop reads 10 ms,
    # then 20 ms.  A fake clock advances only inside the units.
    readings = iter([0.01, 0.01, 0.02])
    monkeypatch.setattr(reference, "samples", lambda n: [next(readings)])
    now = [0.0]
    monkeypatch.setattr(reference, "perf_counter", lambda: now[0])

    def unit(seconds):
        now[0] += seconds
        return seconds

    gauge = reference.Gauge(1)
    assert gauge.run(unit, 0.1) == 0.1  # between readings of 10 and 10 ms
    gauge.run(unit, 0.2)  # between 10 and 20 ms
    assert gauge.units_s == pytest.approx(0.3) and gauge.overhead_s == 0.0
    assert gauge.units_ref == pytest.approx(10.0 + 0.2 / 0.015)
    # Time outside the units counts at the median of every reading.
    assert gauge.run_ref(0.33) == pytest.approx(gauge.units_ref + 0.03 / 0.01)
