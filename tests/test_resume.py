"""Resume and the case driver's fault paths on the tiny scenario.

A kill is simulated in-process: the campaign's artifact writer, or its
repair-log appender, raises a BaseException, which no stage catches, at a
chosen call; an append may first write half its line. The resumed campaign
must then reach the uninterrupted run's report and findings, and re-bill at
most the one provider call that was in flight.
"""
from __future__ import annotations

import itertools
import json
import os
import threading
from collections import Counter

import pytest

import ragfuzz.campaign as campaign
from ragfuzz.campaign import CampaignStore, load_config_file, mutant_stub, resume, run_campaign
from ragfuzz.errors import ProviderUnavailable, ToolNotFound
from ragfuzz.ledger import CostLedger
from ragfuzz.pipeline import CaseStatus, GenerationPipeline, default_catalog
from ragfuzz.providers import LLMService, ScriptEntry
from ragfuzz.records import to_record
from ragfuzz.scenarios import build_tiny, materialize_scenario, scenario_to_dict

# one uninterrupted tiny run: its artifact writes (campaign._write_text calls)
# and its repair-log appends (campaign._append_attempt calls)
TINY_WRITES = 34
TINY_APPENDS = 6
# a kill before each write or append, and one in the middle of each append
TINY_KILL_POINTS = TINY_WRITES + 2 * TINY_APPENDS


class Killed(BaseException):
    """Stands for a SIGKILL: no stage catches it."""


def outcome(campaign_dir):
    report = json.loads((campaign_dir / "report.json").read_text())
    del report["cost"]  # a kill may re-bill the call in flight
    findings = (campaign_dir / "findings.jsonl").read_text()
    ledger = Counter(e.stage for e in CostLedger(campaign_dir / "ledger.jsonl").entries())
    cases = {
        str(path.relative_to(campaign_dir)): path.read_bytes()
        for name in ("case.json", "source.cpp")
        for path in campaign_dir.glob(f"cases/*/{name}")
    }
    return report, findings, ledger, cases


def patch_kill_points(mp, on_call):
    """Route every _write_text and _append_attempt call through
    on_call(index, kind, go, args), index counting both kinds in run order."""
    calls = itertools.count()
    write, append = campaign._write_text, campaign._append_attempt
    mp.setattr(campaign, "_write_text",
               lambda *args: on_call(next(calls), "write", write, args))
    mp.setattr(campaign, "_append_attempt",
               lambda *args: on_call(next(calls), "append", append, args))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The tiny config, and the outcome and kill points of its uninterrupted
    run: (call index, torn) for each write and append, then (call index,
    True) for each append again."""
    tmp = tmp_path_factory.mktemp("tiny_resume")
    config = load_config_file(materialize_scenario(build_tiny(), tmp / "work"))
    kinds = []

    def counting(index, kind, go, args):
        kinds.append(kind)
        go(*args)

    with pytest.MonkeyPatch.context() as mp:
        patch_kill_points(mp, counting)
        run_campaign(config, tmp / "campaign")
    points = [(i, False) for i in range(len(kinds))]
    points += [(i, True) for i, kind in enumerate(kinds) if kind == "append"]
    return config, outcome(tmp / "campaign"), Counter(kinds), points


def test_kill_points_cover_every_write(tiny):
    assert tiny[2] == {"write": TINY_WRITES, "append": TINY_APPENDS}
    assert len(tiny[3]) == TINY_KILL_POINTS


@pytest.mark.parametrize("k", range(TINY_KILL_POINTS))
def test_a_kill_at_any_write_resumes_to_the_uninterrupted_result(k, tiny, tmp_path, monkeypatch):
    config, (report, findings, ledger, cases), _, points = tiny
    at, torn = points[k]
    campaign_dir = tmp_path / "campaign"

    def killing(index, kind, go, args):
        if index != at:
            return go(*args)
        if torn:  # half the line reaches the file before the kill
            log, attempt = args
            line = json.dumps(to_record(attempt), sort_keys=True) + "\n"
            log.write(line[: len(line) // 2])
            log.flush()
        raise Killed(kind)

    patch_kill_points(monkeypatch, killing)
    with pytest.raises(Killed):
        run_campaign(config, campaign_dir)
    if torn:
        logs = list(campaign_dir.glob("cases/*/repair.jsonl"))
        assert any(not log.read_bytes().endswith(b"\n") for log in logs)
    monkeypatch.undo()
    if (campaign_dir / "manifest.json").exists():
        resume(campaign_dir)
    else:
        run_campaign(config, campaign_dir)
    got_report, got_findings, got_ledger, got_cases = outcome(campaign_dir)
    assert got_report == report
    assert got_findings == findings
    assert got_cases == cases
    assert set(got_ledger) == set(ledger)
    for stage, count in ledger.items():
        assert count <= got_ledger[stage] <= count + 1, stage


def test_an_unanswerable_mutation_prompt_abandons_only_that_mutant(tmp_path):
    scenario = build_tiny()
    first = next(i for i, e in enumerate(scenario.llm_entries) if e.template_id == "mutation")
    del scenario.llm_entries[first]  # the first seed's mutation prompt
    work = tmp_path / "work"
    work.mkdir()
    scenario.config["providers"]["scenario"] = str(work / "unanswered.json")
    (work / "unanswered.json").write_text(json.dumps(scenario_to_dict(scenario)))
    config = load_config_file(materialize_scenario(scenario, work))
    report = run_campaign(config, tmp_path / "campaign")
    assert report is not None
    cases = {c.case_id: c for c in CampaignStore(tmp_path / "campaign").all_cases()}
    mutant = cases["DeviceGlobals.f0.s0.m0"]
    assert mutant.status == CaseStatus.ABANDONED
    assert mutant.abandon_reason.startswith("generation_failed: ")
    assert mutant.parent_id == "DeviceGlobals.f0.s0"
    assert mutant.source == ""
    parent = cases["DeviceGlobals.f0.s0"]
    stub = mutant_stub(parent, 0, default_catalog(), config.campaign.seed)
    assert mutant.selection == stub.selection
    assert cases["DeviceGlobals.f1.s0.m0"].abandon_reason == "compile_failed"


def test_a_provider_error_mid_repair_abandons_the_case_with_its_transcript(
    tmp_path, monkeypatch
):
    complete, repairs = LLMService.llm_complete, itertools.count(1)

    def failing(self, prompt, context, stage):
        # B's repair takes one call; the mutant's third attempt fails
        if stage == "repair" and next(repairs) == 4:
            raise ProviderUnavailable("scripted outage")
        return complete(self, prompt, context, stage)

    monkeypatch.setattr(LLMService, "llm_complete", failing)
    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    report = run_campaign(config, tmp_path / "campaign")
    assert report is not None
    mutant = next(
        c for c in CampaignStore(tmp_path / "campaign").all_cases()
        if c.case_id == "DeviceGlobals.f1.s0.m0"
    )
    assert mutant.status == CaseStatus.ABANDONED
    assert mutant.abandon_reason == "repair_failed: scripted outage"
    assert len(mutant.repair_transcript) == 2


def test_a_provider_bug_in_one_repair_stops_the_stage_at_two_workers(tmp_path, monkeypatch):
    # eight seeds; all but the first need a repair, which runs at 2 workers
    scenario = build_tiny()
    draft = [e for e in scenario.llm_entries if e.template_id == "codegen"][1]
    scenario.llm_entries.append(
        ScriptEntry("codegen", {"pass_name": "DeviceGlobals", "reqs": "*"}, draft.responses)
    )
    scenario.config["generation"]["seeds_per_function"] = 4
    scenario.config["campaign"]["workers_llm"] = 2
    work = tmp_path / "work"
    work.mkdir()
    scenario.config["providers"]["scenario"] = str(work / "repairs.json")
    (work / "repairs.json").write_text(json.dumps(scenario_to_dict(scenario)))
    config = load_config_file(materialize_scenario(scenario, work))

    repair_loop, complete = GenerationPipeline.repair_loop, LLMService.llm_complete
    current, billed, failed = threading.local(), [], threading.Event()
    lock = threading.Lock()

    def tracking(self, case, *args):
        current.case_id = case.case_id
        return repair_loop(self, case, *args)

    def failing(self, prompt, context, stage):
        if stage == "repair":
            with lock:
                billed.append(current.case_id)
                first = len(billed) == 1
            if first:
                failed.set()
                raise RuntimeError("provider bug")
            failed.wait(10)  # the other worker's unit is in flight when the bug strikes
        return complete(self, prompt, context, stage)

    monkeypatch.setattr(GenerationPipeline, "repair_loop", tracking)
    monkeypatch.setattr(LLMService, "llm_complete", failing)
    with pytest.raises(RuntimeError, match="provider bug"):
        run_campaign(config, tmp_path / "campaign")
    assert len(set(billed)) <= 2  # the failed unit and the one in flight


def test_a_compiler_removed_after_the_probe_stops_the_campaign_and_resume_finishes_it(
    tiny_campaign, tmp_path, monkeypatch
):
    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    gate = next(t for t in config.toolchains if t.compiler_id == config.gate.compiler_id)
    aside = gate.executable + ".aside"
    prlimit_path = campaign.prlimit_path

    def remove_after_the_probes():  # run() looks prlimit up right after probe()
        if os.path.exists(gate.executable):
            os.replace(gate.executable, aside)
        return prlimit_path()

    monkeypatch.setattr(campaign, "prlimit_path", remove_after_the_probes)
    campaign_dir = tmp_path / "campaign"
    with pytest.raises(ToolNotFound):
        run_campaign(config, campaign_dir)
    cases = CampaignStore(campaign_dir).all_cases()
    assert [c.status for c in cases] == [CaseStatus.DRAFT, CaseStatus.DRAFT]
    assert all(c.repair_transcript == [] for c in cases)

    monkeypatch.setattr(campaign, "prlimit_path", prlimit_path)
    os.replace(aside, gate.executable)
    resume(campaign_dir)
    golden = (tiny_campaign.campaign_dir / "report.json").read_bytes()
    assert (campaign_dir / "report.json").read_bytes() == golden

