"""Run every workload over several seeds and summarise the benchmark.

Usage, from the root of a ragfuzz checkout:

    python3 perfbench/report.py [--baseline perfbench/baseline.json]

Each workload runs once per seed 1..10, its runs back to back, each for
run_seconds from BENCHMARK.json. For each workload it then prints a traced
run's end-to-end and per-layer report, and at the end one table of every
end-to-end metric: the median over the seeds, the spread (distance between
the first and third quartile as a share of the median) and the bound from
BENCHMARK.json.
With --baseline it also writes those medians, the per-layer numbers and the
machine description to that file. Exit code 1 if any run failed its check.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import LABEL, ROOT, WORKLOADS


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return {"correct": False, "metrics": {}}, proc.stdout
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    seeds = list(range(1, 11))
    workloads = list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    why = {w["name"]: w["why"] for w in declared["workloads"]}

    samples: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    all_correct = True
    for workload in workloads:
        for seed in seeds:
            result, _ = bench(workload, seed, seconds, trace=0)
            all_correct &= result["correct"]
            for name, metric in result["metrics"].items():
                samples[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                  flush=True)

    traced = {}
    for workload in workloads:
        result, text = bench(workload, seeds[0], seconds, trace=1)
        all_correct &= result["correct"]
        traced[workload] = {k: v["value"] for k, v in result["metrics"].items()}
        print(text)

    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    print(f"\n== end-to-end summary ({LABEL}; {len(seeds)} seeds, {seconds:g} s runs) ==")
    print(f"  {'workload':<9} {'metric':<26} {'median':>12} {'spread':>8} {'bound':>6}")
    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for name, values in samples[workload].items():
            median, s = statistics.median(values), spread(values)
            summary[workload][name] = {"value": median, "unit": units[name], "spread": s}
            print(f"  {workload:<9} {name:<26} {median:>12.4f} {s:>8.1%} {bounds[name]:>6.2f}"
                  f"  {units[name]}")

    if args.baseline:
        from tracing import PREDICTIONS

        args.baseline.write_text(json.dumps({
            "label": f"{LABEL}: compilers and binaries are Python mock scripts and the "
                     "scripted LLM answers instantly, so no workload measures provider "
                     "latency; modelling it needs a change to the program",
            "program": "ragfuzz seed state, before any optimisation",
            "environment": environment(),
            "seeds": seeds,
            "run_seconds": seconds,
            "predictions": PREDICTIONS,
            "workloads": {
                w: {"why": why[w], "end_to_end": summary[w], "per_layer": traced[w]}
                for w in workloads
            },
        }, indent=2, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
