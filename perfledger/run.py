"""Layered dispatch benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfledger/run.py --workload cityb-foodmatch --seed 1 \\
        --seconds 25 --trace 0

The run is a closed loop in one process with one thread: each window's
decision ends before the next window starts.  It replays the workload's
fixed city-days in rounds until ``--seconds`` have passed, and for at least
``MIN_ROUNDS`` rounds, every replay rebuilt cold.  Each
window's time is the best of its R replays, which filters out the host's
multi-second slow phases; ``setup_s`` is the best of many cold set-ups
spread through the run.  ``--seed`` shuffles the order of the days in every
round, i.e. which replay and set-up runs when.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` additionally
replays every day with outside-in layer wrappers installed (see
``layers.py``) and prints the per-layer metrics instead.  Every replay is
checked; the last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``.  Details, provenance and the aggregated spans go to
``perfledger/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: minimum replays of every day (the R of best-of-R), whatever the budget
MIN_ROUNDS = 5
#: the same in a traced run, where each round replays untraced and traced
TRACE_MIN_ROUNDS = 3
#: allowed gap between the sum of window-scope layer self times and the
#: benchmark's own timing of the traced windows, as a share of the latter
SELF_SUM_TOLERANCE = 0.01

#: definitions printed next to the end-to-end metrics (units: BENCHMARK.json)
END_TO_END = {
    "windows_per_s": "windows / sum of best-of-R step_window times",
    "window_p50_s": "median of the best-of-R step_window times",
    "window_p90_s": "nearest-rank p90 of the best-of-R step_window times",
    "setup_s": "cold set-up of one city-day (scenario, oracle, hub labels): "
               "best of all samples, median over days",
    "peak_rss_mb": "peak resident set size of the benchmark process",
    "xdt_mean_s": "mean extra delivery time of delivered orders (simulated "
                  "seconds; deterministic)",
    "orders_delivered_frac": "delivered orders / orders placed in the horizon "
                             "(deterministic)",
    "replays_ok_frac": "replays passing every check / replays attempted",
}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least ``(1-q)*n`` samples lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _best_of(replays, field: str) -> list[float]:
    """Per-window minimum of ``field`` over the replays of one day."""
    return [min(samples) for samples in zip(*(getattr(r, field) for r in replays),
                                            strict=True)]


# --------------------------------------------------------------------------- #
# measuring
# --------------------------------------------------------------------------- #
def measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    """Replay every day in shuffled rounds until the time budget is spent."""
    from layers import LayerTracer
    from replay import cold_setup, replay

    rng = random.Random(seed)
    tracer = LayerTracer() if traced else None
    min_rounds = TRACE_MIN_ROUNDS if traced else MIN_ROUNDS
    plain = {day: [] for day in workload.days}
    setups = {day: [] for day in workload.days}
    with_spans = {day: [] for day in workload.days}
    began = time.perf_counter()
    rounds = 0
    while True:
        order = list(workload.days)
        rng.shuffle(order)
        for day in order:
            gc.collect()
            result = replay(workload, day)
            plain[day].append(result)
            setups[day].append(result.setup_s)
            for _ in range(workload.setup_samples - 1):
                gc.collect()
                setups[day].append(cold_setup(workload, day)[2])
            if tracer is not None:
                gc.collect()
                tracer.reset()
                with tracer:
                    result = replay(workload, day, tracer)
                with_spans[day].append((result, _layer_sample(tracer, result)))
        rounds += 1
        elapsed = time.perf_counter() - began
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    return {"plain": plain, "setups": setups, "traced": with_spans,
            "rounds": rounds, "elapsed_s": time.perf_counter() - began}


def _layer_sample(tracer, result) -> dict:
    """What one traced replay contributes to the per-layer metrics."""
    from layers import TRAFFIC_UPDATE

    layers = {layer for (_, layer) in tracer.self_s}
    window_s = sum(result.window_s)
    return {
        "self_s": {layer: tracer.layer_self(layer) for layer in layers},
        "window_self_s": tracer.scope_total("window"),
        "self_sum_error_frac":
            abs(tracer.scope_total("window") - window_s) / window_s,
        "traffic_update_self_s": tracer.layer_self(TRAFFIC_UPDATE),
        "spans": tracer.snapshot(),
    }


# --------------------------------------------------------------------------- #
# checking
# --------------------------------------------------------------------------- #
def check(workload, data: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): every replay against its day's first."""
    attempted = failed = 0
    messages: list[str] = []
    for day in workload.days:
        reference = data["plain"][day][0]
        runs = [(r, None) for r in data["plain"][day]] + data["traced"][day]
        for result, layer_sample in runs:
            problems = list(result.failures)
            if result.fingerprint != reference.fingerprint:
                problems.append("result_fingerprint differs from the first replay")
            if result.counters != reference.counters:
                problems.append(f"work counters {result.counters} differ from "
                                f"{reference.counters}")
            if result.traffic_window != reference.traffic_window:
                problems.append("traffic-update windows differ")
            if layer_sample is not None:
                problems.extend(_trace_problems(result, layer_sample))
            attempted += 1
            if problems:
                failed += 1
                kind = "traced" if layer_sample is not None else "plain"
                messages.extend(f"day {day} {kind}: {p}" for p in problems[:5])
    return attempted, failed, messages


def _trace_problems(result, sample: dict) -> list[str]:
    problems = []
    gap = sample["self_sum_error_frac"]
    if gap > SELF_SUM_TOLERANCE:
        problems.append(f"window-scope self times sum to "
                        f"{sample['window_self_s']:.4f} s, traced windows took "
                        f"{sum(result.window_s):.4f} s "
                        f"({gap:.2%} > {SELF_SUM_TOLERANCE:.0%})")
    counts = sample["spans"]["counts"]
    attributed = sum(n for key, n in counts.items() if key.startswith("plans_by."))
    if attributed != result.counters["route_plans"]:
        problems.append(f"{attributed} route plans attributed to callers, "
                        f"CostModel.plan_calls says {result.counters['route_plans']}")
    return problems


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def end_to_end(workload, data: dict, attempted: int, failed: int) -> tuple[dict, dict]:
    """End-to-end metric values plus the per-pass facts for provenance."""
    windows: list[float] = []
    traffic: list[bool] = []
    for day in workload.days:
        windows += _best_of(data["plain"][day], "window_s")
        traffic += data["plain"][day][0].traffic_window
    references = [data["plain"][day][0] for day in workload.days]
    delivered = sum(r.delivered for r in references)
    values = {
        "windows_per_s": len(windows) / sum(windows),
        "window_p50_s": _percentile(windows, 0.5),
        "window_p90_s": _percentile(windows, 0.9),
        "setup_s": statistics.median([min(data["setups"][day]) for day in workload.days]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "xdt_mean_s": sum(r.xdt_sum_s for r in references) / max(1, delivered),
        "orders_delivered_frac": delivered / max(1, sum(r.orders for r in references)),
        "replays_ok_frac": (attempted - failed) / attempted,
    }
    return values, {"windows": len(windows), "traffic_windows": sum(traffic),
                    "p90_traffic_gap": _p90_traffic_gap(windows, traffic)}


def _p90_traffic_gap(windows: list[float], traffic: list[bool]) -> int | None:
    """Ranks between the p90 sample and the nearest traffic-update window at
    or above it (0: p90 is itself a traffic window).  ``None`` without any
    traffic window above p90, which also means p90 is off the boundary."""
    ranked = sorted(range(len(windows)), key=windows.__getitem__)
    p90_rank = max(0, math.ceil(0.9 * len(windows)) - 1)
    above = [rank - p90_rank for rank, idx in enumerate(ranked)
             if traffic[idx] and rank >= p90_rank]
    return min(above) if above else None


def per_layer(workload, data: dict) -> dict:
    """Per-layer metrics from each day's fastest traced replay, summed."""
    from layers import PLAN_CALLERS, TRAFFIC_UPDATE

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    counters: dict[str, int] = {}
    distinct = 0
    traced_windows = plain_windows = traffic_update = 0.0
    decide: list[float] = []
    label_entries = 0
    errors = []
    for day in workload.days:
        runs = data["traced"][day]
        result, sample = min(runs, key=lambda run: sum(run[0].window_s))
        for layer, value in sample["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + value
        for layer, value in sample["spans"]["calls"].items():
            calls[layer] = calls.get(layer, 0) + value
        for key, value in sample["spans"]["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in result.counters.items():
            counters[key] = counters.get(key, 0) + value
        label_entries = max(label_entries, result.counters["label_entries"])
        distinct += sample["spans"]["route_plans_distinct"]
        traffic_update += sample["traffic_update_self_s"]
        errors.append(sample["self_sum_error_frac"])
        traced_windows += sum(_best_of([r for r, _ in runs], "window_s"))
        plain_windows += sum(_best_of(data["plain"][day], "window_s"))
        decide += _best_of(data["plain"][day], "decide_s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    oracle = "network.distance_oracle"
    self_s[oracle] = self_s.get(oracle, 0.0) + self_s.pop(TRAFFIC_UPDATE, 0.0)
    calls[oracle] = calls.get(oracle, 0) + calls.pop(TRAFFIC_UPDATE, 0)
    metrics: dict[str, float] = {}
    for layer in ("sim.engine", "sim.advance", "core.policy", "core.batching",
                  "core.foodgraph", "core.matching", "orders.costs", oracle,
                  "network.hub_labeling", "traffic.controller",
                  "fleet.controller", "workload.generator"):
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
    plans = counters["route_plans"]
    batches = counts.get("batching.batches", 0)
    repairs, rebuilds = counters.get("repairs", 0), counters.get("rebuilds", 0)
    metrics.update({
        "core.policy.decide_p50_s": _percentile(decide, 0.5),
        "core.policy.decide_p90_s": _percentile(decide, 0.9),
        "core.batching.batches": batches,
        "core.batching.orders_per_batch": ratio(counts.get("batching.orders", 0),
                                                batches),
        "core.foodgraph.edges": counts.get("foodgraph.edges", 0),
        "core.foodgraph.edge_frac": ratio(counts.get("foodgraph.edges", 0),
                                          counts.get("foodgraph.pairs", 0)),
        "core.matching.matched": counts.get("matching.matched", 0),
        "orders.costs.route_plans": plans,
        "orders.costs.route_plans_distinct": distinct,
        "orders.costs.plan_reuse_frac": ratio(plans - distinct, plans),
        **{f"orders.costs.route_plans.by_caller.{caller}":
           counts.get(f"plans_by.{caller}", 0) for caller in PLAN_CALLERS},
        f"{oracle}.queries": counters["queries"],
        f"{oracle}.batch_queries": counters["batch_queries"],
        f"{oracle}.sssp_runs": counters["sssp_runs"],
        f"{oracle}.point_hit_frac": ratio(
            counters["point_hits"], counters["point_hits"] + counters["point_misses"]),
        f"{oracle}.traffic_update_self_s": traffic_update,
        "network.hub_labeling.builds": counts.get("hub_labeling.builds", 0),
        "network.hub_labeling.repairs": counts.get("hub_labeling.repairs", 0),
        "network.hub_labeling.label_entries": label_entries,
        "traffic.controller.changed_edges": counters.get("changed_edges", 0),
        "traffic.controller.repair_frac": ratio(repairs, repairs + rebuilds),
        "fleet.controller.offers": counters.get("offers", 0),
        "fleet.controller.declines": counters.get("declines", 0),
        "tracing_overhead_frac": traced_windows / plain_windows - 1.0,
        "trace.self_sum_error_frac": max(errors),
    })
    return metrics


# --------------------------------------------------------------------------- #
# provenance and output
# --------------------------------------------------------------------------- #
def provenance(workload, seed: int, seconds: float, traced: bool, data: dict,
               facts: dict) -> dict:
    import numpy
    import scipy

    from repro.network import kernels

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "kernel_backend": kernels.kernel_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "rounds": data["rounds"], "elapsed_s": round(data["elapsed_s"], 3),
        "R": {str(day): len(runs) for day, runs in data["plain"].items()},
        "R_traced": {str(day): len(runs) for day, runs in data["traced"].items()},
        "setup_samples": {str(day): len(s) for day, s in data["setups"].items()},
        "windows_per_day": workload.windows_per_day,
        "days": list(workload.days), **facts,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git repository
    (the search stops at the checkout, so an enclosing repository is not
    mistaken for it)."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ,
                                  "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _print_table(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = f"  # {notes[name]}" if name in notes else ""
        print(f"{name:<55} {value:>14.6g} {units[name]}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = bool(args.trace)

    data = measure(workload, args.seed, args.seconds, traced)
    attempted, failed, messages = check(workload, data)
    for message in messages:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    e2e, facts = end_to_end(workload, data, attempted, failed)
    prov = provenance(workload, args.seed, args.seconds, traced, data, facts)
    section = "per_layer" if traced else "end_to_end"
    metrics = per_layer(workload, data) if traced else e2e
    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(units) != set(metrics):
        raise SystemExit(f"BENCHMARK.json {section} does not match the metrics "
                         f"computed: {sorted(set(units) ^ set(metrics))}")
    notes = {} if traced else END_TO_END
    _print_table(metrics, units, notes)
    print("PROVENANCE " + json.dumps(prov, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    spans = {str(day): [sample["spans"] for _, sample in runs]
             for day, runs in data["traced"].items()}
    out.write_text(json.dumps({"provenance": prov, "end_to_end": e2e,
                               "metrics": metrics, "failures": messages,
                               "spans": spans}, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
