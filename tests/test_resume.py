"""Resume and the case driver's fault paths on the tiny scenario.

A kill is simulated in-process: the campaign's artifact writer raises a
BaseException, which no stage catches, at a chosen write. The resumed
campaign must then reach the uninterrupted run's report and findings, and
re-bill at most the one provider call that was in flight.
"""
from __future__ import annotations

import itertools
import json
import os
from collections import Counter

import pytest

import ragfuzz.campaign as campaign
from ragfuzz.campaign import CampaignStore, load_config_file, mutant_stub, resume, run_campaign
from ragfuzz.errors import ProviderUnavailable, ToolNotFound
from ragfuzz.ledger import CostLedger
from ragfuzz.pipeline import CaseStatus, default_catalog
from ragfuzz.providers import LLMService
from ragfuzz.scenarios import build_tiny, materialize_scenario, scenario_to_dict

# artifact writes (campaign._write_text calls) of one uninterrupted tiny run
TINY_WRITES = 46


class Killed(BaseException):
    """Stands for a SIGKILL: no stage catches it."""


def outcome(campaign_dir):
    report = json.loads((campaign_dir / "report.json").read_text())
    del report["cost"]  # a kill may re-bill the call in flight
    findings = (campaign_dir / "findings.jsonl").read_text()
    ledger = Counter(e.stage for e in CostLedger(campaign_dir / "ledger.jsonl").entries())
    return report, findings, ledger


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The tiny config, and the outcome and write count of its uninterrupted run."""
    tmp = tmp_path_factory.mktemp("tiny_resume")
    config = load_config_file(materialize_scenario(build_tiny(), tmp / "work"))
    write, calls = campaign._write_text, itertools.count()

    def counting(path, text):
        next(calls)
        write(path, text)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(campaign, "_write_text", counting)
        run_campaign(config, tmp / "campaign")
    return config, outcome(tmp / "campaign"), next(calls)


def test_kill_points_cover_every_write(tiny):
    assert tiny[2] == TINY_WRITES


@pytest.mark.parametrize("k", range(TINY_WRITES))
def test_a_kill_at_any_write_resumes_to_the_uninterrupted_result(k, tiny, tmp_path, monkeypatch):
    config, (report, findings, ledger), _ = tiny
    campaign_dir = tmp_path / "campaign"
    write, calls = campaign._write_text, itertools.count()

    def killing(path, text):
        if next(calls) == k:
            raise Killed(path)
        write(path, text)

    monkeypatch.setattr(campaign, "_write_text", killing)
    with pytest.raises(Killed):
        run_campaign(config, campaign_dir)
    monkeypatch.setattr(campaign, "_write_text", write)
    if (campaign_dir / "manifest.json").exists():
        resume(campaign_dir)
    else:
        run_campaign(config, campaign_dir)
    got_report, got_findings, got_ledger = outcome(campaign_dir)
    assert got_report == report
    assert got_findings == findings
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

