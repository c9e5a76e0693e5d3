"""Steadiness report: run workloads N times and summarise every metric.

Usage (from the repository root)::

    python3 perfledger/steadiness.py --runs 10 --seed-base 1 \\
        [--workloads cityb-foodmatch cityb-km metro-traffic] [--trace 0]

Each run is a separate ``run.py`` process with its own seed (``seed-base``,
``seed-base + 1``, ...), one after the other.  For each workload and metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``), the
interquartile range and the max-min range as shares of the median, next to
the metric's bound from ``BENCHMARK.json``.  For workloads with traffic it
also prints the smallest rank gap between ``window_p90_s`` and the traffic
windows (0 would mean p90 lands on the boundary of the bimodal window-time
distribution).  The summary is written to ``perfledger/out/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (result line, provenance)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("PROVENANCE "))
    return json.loads(lines[-1]), provenance


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / scale,
            "range_frac": (max(values) - min(values)) / scale}


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    report: dict[str, dict] = {}
    for workload in args.workloads:
        results, gaps, failed = [], [], 0
        for seed in range(args.seed_base, args.seed_base + args.runs):
            result, provenance = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            failed += result["failed"] + (not result["correct"])
            if provenance["traffic_windows"]:
                gaps.append(provenance["p90_traffic_gap"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.6g}"
                for name, metric in result["metrics"].items()
                if name in bounds), flush=True)
        rows = {name: summarise([r["metrics"][name]["value"] for r in results])
                for name in results[0]["metrics"]}
        report[workload] = {"metrics": rows, "failed": failed,
                            "p90_traffic_gaps": gaps}
        print(f"\n== {workload}: {args.runs} runs, seeds {args.seed_base}.."
              f"{args.seed_base + args.runs - 1}, failed checks {failed}")
        print(f"{'metric':<50} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
        for name, row in rows.items():
            bound = bounds.get(name)
            print(f"{name:<50} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['iqr_frac']:>8.2%} "
                  f"{row['range_frac']:>8.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6}")
        if gaps:
            none_gaps = sum(g is None for g in gaps)
            ranked = [g for g in gaps if g is not None]
            print(f"p90 rank gap to the traffic windows: min "
                  f"{min(ranked) if ranked else 'n/a'} over {len(ranked)} runs; "
                  f"{none_gaps} runs with no traffic window above p90")
    out = BENCH_DIR / "out" / (f"steadiness-trace{args.trace}-seeds{args.seed_base}-"
                               f"{args.seed_base + args.runs - 1}.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
