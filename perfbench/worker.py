"""One campaign iteration in a fresh process, so peak RSS and CPU time
belong to that campaign alone.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC names the ragfuzz source tree, the config, the campaign directory, the
stage to halt after (none: only set up), and whether to trace. RESULT receives the
timings, the report fields the benchmark checks and, when traced, the
per-layer metrics.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def setup(config_path: Path, campaign_dir: Path) -> tuple[object, float]:
    """The set-up a real campaign pays: load the config, build the runner.
    ragfuzz is imported before the clock starts, as the CLI imports it."""
    from ragfuzz.campaign import CampaignRunner, load_config_file

    started = time.perf_counter()
    runner = CampaignRunner(load_config_file(config_path), campaign_dir)
    return runner, time.perf_counter() - started


def run(spec: dict) -> dict:

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    campaign_dir = Path(spec["campaign_dir"])

    # the first, cold construction in this fresh process
    runner, setup_s = setup(Path(spec["config"]), campaign_dir)
    if spec["halt_after"] is None:  # a set-up probe
        return {"setup_s": setup_s}

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    run_start = time.perf_counter()
    report = runner.run(halt_after=spec["halt_after"])
    campaign_s = time.perf_counter() - run_start
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    if report is None:  # halted before the report stage
        report = runner.build_report()
    result = {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "harness_cpu_s": _cpu(self_after) - _cpu(self_before),
        "child_cpu_s": _cpu(children_after) - _cpu(children_before),
        "peak_rss_mb": self_after.ru_maxrss / 1024,
        "tokens": report.cost["input_tokens"] + report.cost["output_tokens"],
        "per_pass": report.per_pass,
        "per_case": report.findings["per_case"],
        "per_axis": report.findings["per_axis"],
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.uninstall()
        timing = json.loads((campaign_dir / "timing.json").read_text())
        result["layers"], result["samples"] = layer_metrics(
            tracer.spans, timing, result["child_cpu_s"], run_start, campaign_s
        )
        if spec.get("spans_out"):
            tracer.write(Path(spec["spans_out"]))
    return result


def main() -> int:
    spec_path, result_path = Path(sys.argv[1]), Path(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, spec["src"])
    try:
        result = run(spec)
    except Exception:  # reported to the parent as a failed iteration
        result_path.write_text(json.dumps({"error": traceback.format_exc()}))
        return 1
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
