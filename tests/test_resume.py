"""Resume and the case driver's fault paths on the tiny scenario.

A kill is simulated in-process: the campaign's artifact writer, or the
append of any of its record logs (the ledger, the embedding cache, the
index's batch log, each case's results and repair attempts),
raises a BaseException, which no stage
catches, at a chosen call; an append may first write half its line. The
resumed campaign must then reach the uninterrupted run's report, findings
and cases, leave every log line whole, and re-bill at most the one provider
call that was in flight.
"""
from __future__ import annotations

import itertools
import json
import os
import threading
from collections import Counter

import pytest

import ragfuzz.campaign as campaign
import ragfuzz.rag as rag
from ragfuzz.campaign import (
    CampaignStore,
    ResultLine,
    load_config_file,
    mutant_stub,
    resume,
    run_campaign,
)
from ragfuzz.errors import ProviderUnavailable, ToolNotFound
from ragfuzz.ledger import CostLedger, RecordLog, UsageEntry
from ragfuzz.pipeline import CaseStatus, GenerationPipeline, RepairAttempt, default_catalog
from ragfuzz.providers import CachedEmbedding, LLMService, ScriptEntry
from ragfuzz.rag import IndexBatch
from ragfuzz.records import from_record, to_record
from ragfuzz.scenarios import build_tiny, materialize_scenario, scenario_to_dict

# one uninterrupted tiny run: its artifact writes (write_text calls of the
# campaign and of the index, whose one is meta.json) and its record-log
# appends (RecordLog.append calls): 21 to the ledger (12 of them LLM calls),
# 8 to the embedding cache (one per query), 1 to the index's batch log (its
# one batch), 36 to the results logs of 3 cases and 6 to repair logs
TINY_WRITES = 35
TINY_APPENDS = 72
TINY_LOGS = {
    "ledger.jsonl": 21, "embeddings.cache.jsonl": 8, "batches.jsonl": 1,
    "results.jsonl": 36, "repair.jsonl": 6,
}
TINY_RESULTS_LOGS = 3
# a kill before each write or append; one in the middle of each ledger and
# repair append, whose lines carry the model's text; and one in the middle
# of the first and the last append of the embedding cache and each results
# log, and of the batch log's one append
TINY_TORN = (
    TINY_LOGS["ledger.jsonl"] + TINY_LOGS["repair.jsonl"] + 2 * (1 + TINY_RESULTS_LOGS) + 1
)
TINY_KILL_POINTS = TINY_WRITES + TINY_APPENDS + TINY_TORN

LOG_RECORDS = {
    "ledger.jsonl": UsageEntry,
    "embeddings.cache.jsonl": CachedEmbedding,
    "batches.jsonl": IndexBatch,
    "results.jsonl": ResultLine,
    "repair.jsonl": RepairAttempt,
}


class Killed(BaseException):
    """Stands for a SIGKILL: no stage catches it."""


def outcome(campaign_dir):
    for name, cls in LOG_RECORDS.items():  # every line of every log is whole
        for path in campaign_dir.rglob(name):
            for line in path.read_bytes().splitlines(keepends=True):
                assert line.endswith(b"\n"), path
                from_record(cls, json.loads(line))
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
    """Route every write_text and RecordLog.append call through
    on_call(index, kind, go, args), index counting both kinds in run order."""
    calls = itertools.count()
    write, append = campaign.write_text, RecordLog.append
    for module in (campaign, rag):
        mp.setattr(module, "write_text",
                   lambda *args: on_call(next(calls), "write", write, args))
    mp.setattr(RecordLog, "append",
               lambda *args: on_call(next(calls), "append", append, args))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The tiny config, and the outcome and kill points of its uninterrupted
    run: (call index, torn) for each write and append, then (call index,
    True) for each torn append, in call order. calls names each call's kind,
    and for an append the log it goes to."""
    tmp = tmp_path_factory.mktemp("tiny_resume")
    campaign_dir = tmp / "campaign"
    config = load_config_file(materialize_scenario(build_tiny(), tmp / "work"))
    calls = []

    def counting(index, kind, go, args):
        calls.append((kind, args[0].path.relative_to(campaign_dir) if kind == "append" else None))
        go(*args)

    with pytest.MonkeyPatch.context() as mp:
        patch_kill_points(mp, counting)
        run_campaign(config, campaign_dir)
    appends: dict = {}  # log -> the indices of its appends
    for i, (kind, log) in enumerate(calls):
        if kind == "append":
            appends.setdefault(log, []).append(i)
    torn = {i for log, indices in appends.items() for i in (
        indices if log.name in ("ledger.jsonl", "repair.jsonl") else (indices[0], indices[-1])
    )}
    points = [(i, False) for i in range(len(calls))] + [(i, True) for i in sorted(torn)]
    return config, outcome(campaign_dir), calls, points


def test_kill_points_cover_every_write(tiny):
    _, _, calls, points = tiny
    assert Counter(kind for kind, _ in calls) == {"write": TINY_WRITES, "append": TINY_APPENDS}
    logs = [log for kind, log in calls if kind == "append"]
    assert Counter(log.name for log in logs) == TINY_LOGS
    assert len({log for log in logs if log.name == "results.jsonl"}) == TINY_RESULTS_LOGS
    assert len(points) == TINY_KILL_POINTS


@pytest.mark.parametrize("k", range(TINY_KILL_POINTS))
def test_a_kill_at_any_write_resumes_to_the_uninterrupted_result(k, tiny, tmp_path, monkeypatch):
    config, (report, findings, ledger, cases), calls, points = tiny
    at, torn = points[k]
    campaign_dir = tmp_path / "campaign"

    def killing(index, kind, go, args):
        if index != at:
            return go(*args)
        if torn:  # half the line reaches the file before the kill
            log, record = args
            line = json.dumps(to_record(record), sort_keys=True) + "\n"
            with open(log.path, "a", encoding="utf-8") as fh:
                fh.write(line[: len(line) // 2])
        raise Killed(kind)

    patch_kill_points(monkeypatch, killing)
    with pytest.raises(Killed):
        run_campaign(config, campaign_dir)
    if torn:
        log = campaign_dir / calls[at][1]
        assert not log.read_bytes().endswith(b"\n")
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


def test_a_kill_between_writing_and_renaming_meta_json_resumes_without_re_embedding(
    tiny, tmp_path, monkeypatch
):
    config, (report, findings, ledger, cases), _, _ = tiny
    campaign_dir = tmp_path / "campaign"
    rename = os.replace

    def killing(src, dst):
        if os.path.basename(dst) == "meta.json":
            raise Killed("rename")
        rename(src, dst)

    monkeypatch.setattr(os, "replace", killing)
    with pytest.raises(Killed):
        run_campaign(config, campaign_dir)
    monkeypatch.undo()
    index_dir = campaign_dir / "index"
    assert (index_dir / "meta.json.tmp").read_text()
    assert not (index_dir / "meta.json").exists()
    resume(campaign_dir)
    got_report, got_findings, got_ledger, got_cases = outcome(campaign_dir)
    assert (got_report, got_findings, got_cases) == (report, findings, cases)
    assert got_ledger == ledger  # no embedding, nor any other call, is billed twice


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

