"""Offline campaign benchmark for ragfuzz (mock toolchain, scripted LLM).

Usage, from the root of a ragfuzz checkout:

    python3 perfbench/run.py --workload {sweep,generate} \\
        --seed N --seconds S --trace {0,1}

The benchmark builds a seeded, closed-world scenario, then runs campaigns
through the public API (`load_config_file`, `CampaignRunner`, `.run`) in
fresh worker processes until S seconds have passed. Every run's report is
checked against the report the generator derives from its own plan.

--trace 0 prints the end-to-end metrics (medians over the runs); setup_s
is the median of the cold set-ups in the run: each campaign worker's own
and SETUP_PROBES more from set-up-only workers, half before the campaigns
and half after. --trace 1 runs pairs of an untraced and a traced campaign,
alternating which goes first, and prints the per-layer metrics of the
traced ones and the tracing overhead, the median difference of campaign_s
within a pair. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 1 when a
check failed and 2 when no ragfuzz source tree is present. --smoke runs a
tiny scenario of the same workload, for the benchmark's own tests.

All numbers are mock-toolchain, scripted-LLM numbers: compilers and test
binaries are Python mock scripts, and the scripted LLM answers instantly,
so no workload measures provider latency.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
LABEL = "mock-toolchain, scripted-LLM"
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_TRACED = 3  # pooled, so a p90 of the sweep's 48 matrix compiles has ten samples beyond it
SETUP_PROBES = 12  # a fresh campaign sets up in milliseconds: many samples steady the median

# workload -> (scenario shape, stage to halt after)
WORKLOADS = {
    "sweep": ("sweep", "report"),
    "generate": ("generate", "repair_mutants"),
}

END_TO_END = (
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("harness_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tokens_per_compiled_case", "tokens"),
)


class Bench:
    def __init__(self, workload: str, seed: int, smoke: bool, work: Path):
        from scenario import build, materialize

        shape, self.halt_after = WORKLOADS[workload]
        self.work = work
        scenario, _plan = build(f"{shape}-smoke" if smoke else shape, seed)
        self.expected = scenario.expected_report
        if self.halt_after != "report":  # halted before the matrix: no findings yet
            self.expected = dict(self.expected, findings={"per_case": {}, "per_axis": {}})
        self.generated = sum(c["generated"] for c in self.expected["per_pass"].values())
        self.config = materialize(scenario, work / "scenario")
        self.runs = 0
        self.started = time.monotonic()

    def worker(self, campaign_dir: Path, halt_after: str | None, trace: bool,
               spans_out=None) -> dict:
        """One campaign in a fresh process; {"error": ...} if it failed."""
        spec_path = campaign_dir.with_suffix(".spec.json")
        result_path = campaign_dir.with_suffix(".result.json")
        spec_path.write_text(json.dumps({
            "src": str(SRC),
            "config": str(self.config),
            "campaign_dir": str(campaign_dir),
            "halt_after": halt_after,
            "trace": trace,
            "spans_out": str(spans_out) if spans_out else None,
        }))
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"worker timed out after {timeout:.0f} s"}
        if not result_path.exists():
            return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
        return json.loads(result_path.read_text())

    def iteration(self, trace: bool, spans_out: Path) -> dict:
        campaign_dir = self.work / f"run{self.runs}"
        self.runs += 1
        result = self.worker(campaign_dir, self.halt_after, trace,
                             spans_out=spans_out if trace else None)
        shutil.rmtree(campaign_dir, ignore_errors=True)
        result["ok"] = "error" not in result and self.matches(result)
        return result

    def setup_probe(self) -> dict:
        """A fresh process that only sets a campaign up, cold."""
        campaign_dir = self.work / f"run{self.runs}"
        self.runs += 1
        result = self.worker(campaign_dir, None, trace=False)
        shutil.rmtree(campaign_dir, ignore_errors=True)
        return result

    def matches(self, result: dict) -> bool:
        return (
            result["per_pass"] == self.expected["per_pass"]
            and result["per_case"] == self.expected["findings"]["per_case"]
            and result["per_axis"] == self.expected["findings"]["per_axis"]
        )


def end_to_end(results: list[dict], setups: list[float]) -> dict:
    def med(key):
        return statistics.median(r[key] for r in results)

    return {
        "setup_s": statistics.median(setups),
        "campaign_s": med("campaign_s"),
        "harness_cpu_s": med("harness_cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "tokens_per_compiled_case": statistics.median(
            r["tokens"] / sum(p["compiled"] for p in r["per_pass"].values()) for r in results
        ),
        "child_cpu_s": med("child_cpu_s"),
    }


def abandoned_ratio(results: list[dict], generated: int) -> float:
    """Cases abandoned for a non-compile reason, over cases generated; every
    case of a run whose report failed its check counts as abandoned."""
    abandoned = 0
    for r in results:
        if not r["ok"]:
            abandoned += generated
        else:
            abandoned += sum(p["abandoned"] for p in r["per_pass"].values())
    return abandoned / (generated * len(results))


def print_end_to_end(workload: str, e2e: dict, ratio: float, results: list[dict],
                     setups: list[float]) -> None:
    cpu, child = e2e["harness_cpu_s"], e2e["child_cpu_s"]
    print(f"== {workload}: end-to-end ({LABEL}; median of {len(results)} runs) ==")
    for name, unit in END_TO_END:
        print(f"  {name:<26} {e2e[name]:>12.4f} {unit}")
    print(f"  {'abandoned_ratio':<26} {ratio:>12.4f} ratio")
    share = cpu / (cpu + child) if cpu + child else 0.0
    print(f"  cpu split: harness {cpu:.3f} s, mock children {child:.3f} s "
          f"(harness share {share:.1%})")
    print("  setup_s per cold set-up: " + " ".join(f"{t:.4f}" for t in setups))
    print("  campaign_s per run: " + " ".join(f"{r['campaign_s']:.4f}" for r in results))


def print_layers(workload: str, layers: dict, runs: int) -> None:
    from tracing import LAYERS, METRICS, PREDICTIONS

    print(f"== {workload}: per-layer ({LABEL}; median of {runs} traced runs) ==")
    print("  self-time share of campaign_s (2 workers: shares may sum above 1):")
    for layer in LAYERS:
        print(f"    {layer:<11} {layers[f'self_share.{layer}']:>7.1%}   "
              f"predicted to move: {PREDICTIONS[layer]}")
    attributed = sum(layers[f"self_share.{layer}"] for layer in LAYERS)
    print(f"    {'other':<11} {max(0.0, 1 - attributed):>7.1%}   (outside traced callables)")
    for name, unit in METRICS:
        if not name.startswith("self_share."):
            print(f"  {name:<34} {layers[name]:>12.4f} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scenario, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "ragfuzz" / "__init__.py").is_file():
        print(f"perfbench: no ragfuzz source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    bench = Bench(args.workload, args.seed, args.smoke, work)
    spans_out = work.parent / f"spans-{args.workload}-{args.seed}.jsonl"
    results: list[dict] = []
    setups: list[float] = []

    def probe(count: int) -> bool:
        for _ in range(count):
            result = bench.setup_probe()
            if "error" in result:
                print(f"perfbench: set-up probe failed: {result['error']}", file=sys.stderr)
                results.append(dict(result, ok=False))
                return False
            setups.append(result["setup_s"])
        return True

    half = 0 if args.trace else SETUP_PROBES // 2
    stopped = not probe(half)
    measured = time.monotonic()
    rounds = 0
    while not stopped:
        held = rounds >= (MIN_TRACED if args.trace else 1)
        if held and time.monotonic() - measured >= args.seconds:
            break
        order = [rounds % 2 == 1, rounds % 2 == 0] if args.trace else [False]
        for trace in order:
            result = bench.iteration(trace, spans_out)
            result["round"] = rounds
            results.append(result)
            if "error" in result:
                print(f"perfbench: run failed: {result['error']}", file=sys.stderr)
                stopped = True
                break
        rounds += 1

    if not stopped:
        probe(half)
    setups += [r["setup_s"] for r in results if r["ok"] and "layers" not in r]

    good = [r for r in results if r["ok"]]
    failed = len(results) - len(good)
    correct = failed == 0
    untraced = [r for r in good if "layers" not in r]
    traced = [r for r in good if "layers" in r]
    metrics: dict = {}
    if untraced:
        e2e = end_to_end(untraced, setups)
        print_end_to_end(args.workload, e2e, abandoned_ratio(results, bench.generated),
                         untraced, setups)
        if not args.trace:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    pairs: dict[int, dict[bool, float]] = {}
    for r in good:
        pairs.setdefault(r["round"], {})["layers" in r] = r["campaign_s"]
    overheads = [p[True] - p[False] for p in pairs.values() if len(p) == 2]
    if args.trace and untraced and overheads:
        from tracing import METRICS, median_metrics, pooled_percentiles

        layers = median_metrics([r["layers"] for r in traced])
        pooled, counts = pooled_percentiles([r["samples"] for r in traced])
        layers.update(pooled)
        layers["trace.overhead_s"] = statistics.median(overheads)
        print_layers(args.workload, layers, len(traced))
        print("  percentile sample counts (pooled over traced runs): "
              + ", ".join(f"{k} n={n}" for k, n in counts.items()))
        print(f"  tracing overhead: {layers['trace.overhead_s']:+.4f} s of campaign_s "
              f"(median over {len(overheads)} adjacent untraced/traced pairs)")
        print(f"  spans of the last traced run: {spans_out.relative_to(ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in METRICS}
    for r in results:
        if "error" not in r and not r["ok"]:
            print("perfbench: report differs from the plan:\n"
                  f"  got      {json.dumps([r['per_pass'], r['per_case'], r['per_axis']])}\n"
                  f"  expected {json.dumps(bench.expected)}", file=sys.stderr)
            break
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, len(results)),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
