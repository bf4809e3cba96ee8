"""Tests of the benchmark itself: smoke sizes pass their checks, the traced
run covers every layer, and BENCHMARK.json names what the benchmark prints.

Run from the repository root: python -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run
import scenario as bench_scenario
import tracing

ROOT = Path(__file__).resolve().parents[2]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["sweep", "generate"])
def test_smoke_workload_passes_its_check(workload):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "mock-toolchain, scripted-LLM" in proc.stdout


def test_traced_smoke_reports_every_per_layer_metric():
    proc = _run("--workload", "generate", "--seed", "7", "--seconds", "0", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["rag.retrieve.calls"]["value"] > 0
    assert "tracing overhead" in proc.stdout


def test_declared_metrics_match_the_benchmark():
    declared = _declared()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(tracing.METRICS)
    assert [w["name"] for w in declared["workloads"]] == list(bench_run.WORKLOADS)


def test_span_tree_covers_every_layer(tmp_path):
    from ragfuzz.campaign import CampaignRunner, load_config_file

    scenario, plan = bench_scenario.build("sweep-smoke", 3)
    config_path = bench_scenario.materialize(scenario, tmp_path / "inputs")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        campaign_dir = tmp_path / "campaign"
        CampaignRunner(load_config_file(config_path), campaign_dir).run()
        # a second runner on the finished directory loads the saved index
        CampaignRunner(load_config_file(config_path), campaign_dir).run()
    finally:
        tracer.uninstall()

    names = {span.name for span in tracer.spans}
    assert names == set(tracing.LAYER_OF)
    assert {tracing.LAYER_OF[name] for name in names} == set(tracing.LAYERS) == {
        "rag", "providers", "prompts", "pipeline", "toolchain",
        "difftest", "ledger", "extraction", "campaign",
    }
    by_id = {span.span_id: span for span in tracer.spans}
    repairs = [s for s in tracer.spans if s.name == "GenerationPipeline.repair_loop"]
    assert repairs and all(s.case_id for s in repairs)
    for span in tracer.spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            assert parent.thread == span.thread
            assert parent.start <= span.start <= span.end <= parent.end
            if span.name in ("LLMService.llm_complete", "compile_job"):
                assert span.case_id == parent.case_id  # inherited or equal

    compiled_cases = {s.case_id for s in tracer.spans if s.name == "compile_job"}
    assert compiled_cases == {c.case_id for c in plan.cases}
    own = tracing.self_times(tracer.spans)
    assert all(-1e-9 <= own[s.span_id] <= s.duration for s in tracer.spans)


def test_generated_scenario_keeps_its_invariants():
    scenario, plan = bench_scenario.build("generate-smoke", 11)
    drafts = [d for case in plan.cases for d in case.drafts]
    assert len(set(drafts)) == len(drafts)
    keys = [(e.template_id, tuple(sorted(e.match.items()))) for e in scenario.llm_entries]
    assert len(set(keys)) == len(keys)
    assert all(len(e.responses) == 1 for e in scenario.llm_entries)
    again, _ = bench_scenario.build("generate-smoke", 11)
    assert bench_scenario.scenario_to_dict(again) == bench_scenario.scenario_to_dict(scenario)


def test_check_rejects_a_report_that_differs_from_the_plan(tmp_path):
    bench = bench_run.Bench("sweep", 5, smoke=True, work=tmp_path)
    expected = bench.expected
    good = {
        "per_pass": expected["per_pass"],
        "per_case": expected["findings"]["per_case"],
        "per_axis": expected["findings"]["per_axis"],
    }
    assert bench.matches(good)
    case_id = next(iter(good["per_case"]))
    dropped = dict(good, per_case={k: v for k, v in good["per_case"].items() if k != case_id})
    assert not bench.matches(dropped)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
