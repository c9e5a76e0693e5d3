"""Outside-in layer tracing for the benchmark's traced pass.

:class:`LayerTracer` patches the public calls of each program layer with a
thin timing wrapper while it is installed, and restores the originals when
it is removed; nothing under ``src/`` knows about it.  Spans are aggregated
in memory as they close: per ``(scope, layer)`` self time, per-layer entry
counts and per ``(caller, layer)`` edge counts.  A layer's self time is its
span's duration minus the time its child spans cover, so the self times of
one scope add up to the duration of that scope's root spans.

A call into a layer from inside the same layer opens no new span (a cost
model method calling another one is one ``orders.costs`` span), which keeps
``calls`` the number of entries into a layer from outside it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from repro.core import foodmatch, km_baseline
from repro.core.foodmatch import FoodMatchPolicy
from repro.core.km_baseline import KMPolicy
from repro.experiments import runner
from repro.fleet.controller import FleetController
from repro.network.distance_oracle import DistanceOracle
from repro.network.hub_labeling import HubLabelIndex
from repro.orders.costs import CostModel
from repro.sim.advance import PathWalker
from repro.sim.engine import Simulator
from repro.traffic.controller import TrafficController

#: ``apply_traffic_updates`` keeps its own key so its self time can be
#: reported apart; it is summed into ``network.distance_oracle`` as well.
TRAFFIC_UPDATE = "network.distance_oracle.traffic_update"

#: Layers whose route plans are attributed (the layer that called into
#: ``orders.costs``); KM's single-order batches come from ``core.policy``.
PLAN_CALLERS = ("core.batching", "core.foodgraph", "core.policy", "sim.engine")

_COST_METHODS = ("make_batch", "merge_cost", "marginal_cost", "plan_for_vehicle",
                 "vehicle_cost", "sdt", "prefetch_sdt", "first_mile",
                 "last_mile", "expected_delivery_time", "extra_delivery_time")
_ORACLE_METHODS = ("__init__", "distance", "distances", "static_distances",
                   "distance_matrix", "static_distance_matrix", "path",
                   "path_or_none", "reachable")


class LayerTracer:
    """Install/remove the wrappers and hold the aggregated spans."""

    def __init__(self) -> None:
        self.scope = "window"
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()
        #: work counters measured at the layer boundaries (see ``install``)
        self.counts: Counter = Counter()
        #: distinct route-plan inputs seen by ``CostModel._plan``
        self.plan_keys: set = set()

    def reset(self) -> None:
        """Drop every aggregate (the benchmark keeps one replay at a time)."""
        for name in ("self_s", "calls", "edges", "counts", "plan_keys"):
            self.__dict__[name].clear()

    # ------------------------------------------------------------------ #
    def _span(self, layer: str, fn, measures):
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            caller = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.self_s[(self.scope, layer)] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.calls[layer] += 1
                self.edges[(caller, layer)] += 1
            for key, measure in measures.items():
                counts[key] += measure(args, result)
            return result

        return wrapper

    def _patch(self, owner, name: str, layer: str, **measures) -> None:
        """Wrap ``owner.name`` in a ``layer`` span; each measure ``f(args,
        result)`` is added to ``counts[key]`` when an outermost span closes."""
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, self._span(layer, original, measures))

    def _count_plan(self, fn):
        """Counter-only hook on ``CostModel._plan``: attribute and key plans."""
        stack = self._stack
        counts = self.counts
        keys = self.plan_keys

        @functools.wraps(fn)
        def wrapper(model, new_orders, start_node, start_time, onboard_orders=()):
            caller = next((frame[0] for frame in reversed(stack)
                           if frame[0] != "orders.costs"), None)
            counts[f"plans_by.{caller}"] += 1
            keys.add((
                tuple(o.order_id for o in new_orders), start_node, start_time,
                tuple(o.order_id for o in onboard_orders),
                model.oracle.network.mutation_epoch))
            return fn(model, new_orders, start_node, start_time, onboard_orders)

        return wrapper

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("LayerTracer is already installed")
        patch = self._patch
        patch(Simulator, "step_window", "sim.engine")
        patch(Simulator, "finalize", "sim.engine")
        patch(PathWalker, "walk", "sim.advance")
        patch(FoodMatchPolicy, "assign", "core.policy")
        patch(KMPolicy, "assign", "core.policy")
        patch(foodmatch, "cluster_orders", "core.batching",
              **{"batching.orders": lambda a, r: len(a[0]),
                 "batching.batches": lambda a, r: len(r[0])})
        for module in (foodmatch, km_baseline):
            for builder in ("build_sparsified_foodgraph", "build_full_foodgraph"):
                if builder in module.__dict__:
                    patch(module, builder, "core.foodgraph",
                          **{"foodgraph.edges": lambda a, r: r.edge_count,
                             "foodgraph.pairs":
                                 lambda a, r: len(r.batches) * len(r.vehicles)})
            patch(module, "solve_matching", "core.matching",
                  **{"matching.matched": lambda a, r: len(r)})
        for name in _COST_METHODS:
            patch(CostModel, name, "orders.costs")
        original_plan = CostModel.__dict__["_plan"]
        self._saved.append((CostModel, "_plan", original_plan))
        CostModel._plan = self._count_plan(original_plan)
        for name in _ORACLE_METHODS:
            patch(DistanceOracle, name, "network.distance_oracle")
        patch(DistanceOracle, "apply_traffic_updates", TRAFFIC_UPDATE)
        patch(HubLabelIndex, "__init__", "network.hub_labeling",
              **{"hub_labeling.builds": lambda a, r: 1})
        patch(HubLabelIndex, "repair", "network.hub_labeling",
              **{"hub_labeling.repairs": lambda a, r: 1})
        for name in ("query", "query_many", "query_block"):
            patch(HubLabelIndex, name, "network.hub_labeling")
        patch(TrafficController, "advance", "traffic.controller")
        for name in ("advance", "screen_offers", "plan_repositioning"):
            patch(FleetController, name, "fleet.controller")
        patch(runner, "generate_scenario", "workload.generator")

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        self._stack.clear()

    def __enter__(self) -> LayerTracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------------ #
    def layer_self(self, layer: str) -> float:
        """Self time of ``layer`` over every scope."""
        return sum(value for (_, name), value in self.self_s.items()
                   if name == layer)

    def scope_total(self, scope: str) -> float:
        """Self time of every layer within ``scope``."""
        return sum(value for (sc, _), value in self.self_s.items() if sc == scope)

    def snapshot(self) -> dict:
        """The aggregated spans as plain data (written when the run ends)."""
        return {
            "self_s": {f"{scope}/{layer}": value
                       for (scope, layer), value in sorted(self.self_s.items())},
            "calls": dict(sorted(self.calls.items())),
            "edges": {f"{caller}->{layer}": n
                      for (caller, layer), n in sorted(self.edges.items(),
                                                       key=str)},
            "counts": dict(sorted(self.counts.items())),
            "route_plans_distinct": len(self.plan_keys),
        }
