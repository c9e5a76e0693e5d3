"""Replay one city-day cold, time every window from outside, check the result.

A replay rebuilds its scenario and distance oracle from scratch through
:func:`repro.experiments.runner.materialize` with the scenario cache cleared,
so every replay of a day does the same work and its set-up is cold.  The
engine is driven window by window through ``Simulator.step_window``; each
call is timed by the benchmark, which is what a dispatcher waits for a
window (event drain, traffic and fleet controllers, advance, decide, apply).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.experiments import runner
from repro.experiments.executor import result_fingerprint
from repro.orders.costs import CostModel
from repro.sim.engine import Simulator

from workloads import Workload

#: slack for float comparisons of simulated timestamps
_EPS = 1e-6


@dataclass
class Replay:
    """Timings, deterministic outputs and check failures of one replay."""

    setup_s: float
    window_s: list[float]
    decide_s: list[float]
    #: per window: did a traffic update mutate the network inside it
    traffic_window: list[bool]
    fingerprint: str
    counters: dict[str, int]
    orders: int
    delivered: int
    #: summed extra delivery time of the delivered orders (simulated seconds)
    xdt_sum_s: float
    failures: list[str] = field(default_factory=list)


def cold_setup(workload: Workload, day: int):
    """Build one city-day's scenario and oracle from nothing; time it."""
    runner.clear_cache()
    start = time.perf_counter()
    scenario, oracle = runner.materialize(workload.setting(day))
    elapsed = time.perf_counter() - start
    runner.clear_cache()
    return scenario, oracle, elapsed


def replay(workload: Workload, day: int, tracer=None) -> Replay:
    """Replay ``day`` of ``workload``; ``tracer`` (installed) gets scopes set."""
    if tracer is not None:
        tracer.scope = "setup"
    scenario, oracle, setup_s = cold_setup(workload, day)
    cost_model = CostModel(oracle)
    policy = runner.build_policy(workload.policy, cost_model)
    config = workload.sim_config()
    sim = Simulator(scenario, policy, cost_model, config)
    if tracer is not None:
        tracer.scope = "window"
    window_s: list[float] = []
    decide_s: list[float] = []
    traffic_window: list[bool] = []
    failures: list[str] = []
    reports = sim.traffic.log.reports if sim.traffic is not None else []
    clock = time.perf_counter
    while not sim.horizon_complete:
        start = sim.next_window_start
        end = min(start + config.delta, config.end)
        mutations = len(reports)
        began = clock()
        record = sim.step_window(start, end)
        window_s.append(clock() - began)
        decide_s.append(record.decision_seconds)
        traffic_window.append(len(reports) > mutations)
        failures.extend(_capacity_failures(sim, len(window_s)))
    if tracer is not None:
        tracer.scope = "drain"
    result = sim.finalize()
    failures.extend(_outcome_failures(result, scenario, config))
    if len(window_s) != workload.windows_per_day:
        failures.append(f"{len(window_s)} windows, expected "
                        f"{workload.windows_per_day}")
    delivered = result.delivered_orders
    return Replay(
        setup_s=setup_s, window_s=window_s, decide_s=decide_s,
        traffic_window=traffic_window, fingerprint=result_fingerprint(result),
        counters=_work_counters(sim, cost_model, oracle),
        orders=result.num_orders, delivered=len(delivered),
        xdt_sum_s=sum(o.xdt or 0.0 for o in delivered), failures=failures)


def _work_counters(sim: Simulator, cost_model: CostModel, oracle) -> dict[str, int]:
    """Deterministic work done by the replay; equal in every replay of a day."""
    point = oracle.cache_info()["point"]
    counters = {
        "windows": len(sim.window_records),
        "route_plans": cost_model.plan_calls,
        "queries": oracle.query_count,
        "batch_queries": oracle.batch_query_count,
        "sssp_runs": oracle.sssp_runs,
        "point_hits": point["hits"],
        "point_misses": point["misses"],
        "label_entries": (oracle.index_info() or {}).get("entries", 0),
    }
    if sim.traffic is not None:
        log = sim.traffic.log
        counters.update(changed_edges=log.changed_edges, repairs=log.repairs,
                        rebuilds=log.rebuilds)
    if sim.fleet is not None:
        counters.update(offers=sim.fleet.log.offers,
                        declines=sim.fleet.log.declines)
    return counters


def _capacity_failures(sim: Simulator, window: int) -> list[str]:
    """MAXO / MAXI after a window: no vehicle carries more than it may."""
    return [f"window {window}: vehicle {v.vehicle_id} holds {v.order_count} "
            f"orders / {v.item_load} items (max {v.max_orders}/{v.max_items})"
            for v in sim.vehicles
            if v.order_count > v.max_orders or v.item_load > v.max_items]


def _outcome_failures(result, scenario, config) -> list[str]:
    """Every order in the horizon delivered or rejected exactly once, and
    every delivery picked up (after the food was ready) before it landed."""
    failures: list[str] = []
    expected = {o.order_id for o in scenario.orders
                if config.start <= o.placed_at < config.end}
    if set(result.outcomes) != expected:
        failures.append(f"{len(result.outcomes)} outcomes for "
                        f"{len(expected)} orders in the horizon")
    for order_id, outcome in result.outcomes.items():
        delivered = outcome.delivered_at is not None
        if delivered == outcome.rejected:
            failures.append(f"order {order_id}: delivered={delivered} "
                            f"rejected={outcome.rejected}")
        elif delivered and not (
                outcome.picked_up_at is not None
                and outcome.order.ready_at - _EPS <= outcome.picked_up_at
                <= outcome.delivered_at + _EPS):
            failures.append(f"order {order_id}: picked up at "
                            f"{outcome.picked_up_at}, ready at "
                            f"{outcome.order.ready_at}, delivered at "
                            f"{outcome.delivered_at}")
    return failures
