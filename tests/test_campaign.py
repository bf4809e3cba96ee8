from __future__ import annotations

import ast
import dataclasses
import json
import os
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
from oracles import validate_partition

import ragfuzz.campaign as campaign
from ragfuzz.campaign import (
    CampaignConfig,
    CampaignReport,
    CampaignRunner,
    CampaignStore,
    ResultLine,
    emit_report,
    load_config,
    load_config_file,
    render_markdown,
    resume,
    run_campaign,
)
from ragfuzz.errors import ConfigError, ConfigMismatch, CorruptManifest
from ragfuzz.ledger import CostLedger, RecordLog, UsageEntry
from ragfuzz.pipeline import CaseStatus, RepairAttempt, TestCase
from ragfuzz.prompts import RenderedPrompt
from ragfuzz.providers import Completion, ScriptEntry, binding_digest
from ragfuzz.records import from_record
from ragfuzz.scenarios import build_tiny, materialize_scenario, scenario_to_dict
from ragfuzz.toolchain import CompileStatus, JobLauncher

GEN_STAGES = {"characteristics", "codegen", "repair", "mutation"}


def results(store: CampaignStore, case_id: str) -> list[ResultLine]:
    """The case's results log in job order."""
    return RecordLog(store.results_path(case_id), ResultLine).records


# --- config validation ---

def minimal_config_dict() -> dict:
    return build_tiny().config


def test_zero_passes_rejected(tmp_path):
    data = minimal_config_dict()
    data["passes"] = []
    with pytest.raises(ConfigError) as exc:
        load_config(data, tmp_path)
    assert exc.value.field_path == "passes"


def test_bad_threshold_rejected(tmp_path):
    data = minimal_config_dict()
    data["rag"]["threshold"] = 3.0
    with pytest.raises(ConfigError) as exc:
        load_config(data, tmp_path)
    assert exc.value.field_path == "rag.threshold"


def test_missing_toolchains_rejected(tmp_path):
    data = minimal_config_dict()
    data["toolchains"] = []
    with pytest.raises(ConfigError):
        load_config(data, tmp_path)


@pytest.mark.parametrize(
    "toolchain, other",
    [
        # "_" joins the label's parts
        ({"compiler_id": "icpx_a", "targets": ["b"]}, {"compiler_id": "icpx", "targets": ["a_b"]}),
        # "/" becomes "-"
        ({"targets": ["spir64/x86", "spir64-x86"]}, None),
        # the leading "-" of an opt level is dropped
        ({"opt_levels": ["-O2", "O2"]}, None),
        # an opt level listed twice is one cell twice
        ({"opt_levels": ["-O2", "-O2"]}, None),
    ],
    ids=["underscore", "slash", "dash", "repeated"],
)
def test_matrix_cells_sharing_a_label_are_rejected(tmp_path, toolchain, other):
    data = minimal_config_dict()
    template = data["toolchains"][0]

    def entry(spec: dict) -> dict:
        targets = [{"name": name, "flags": []} for name in spec.get("targets", ["t"])]
        return {**template, "compiler_id": spec.get("compiler_id", "icpx"),
                "targets": targets, "opt_levels": spec.get("opt_levels", ["-O2"])}

    data["toolchains"] = [entry(toolchain)] + ([entry(other)] if other else [])
    data["gate"] = {"compiler_id": data["toolchains"][0]["compiler_id"],
                    "target": data["toolchains"][0]["targets"][0]["name"], "opt_level": "-O2"}
    with pytest.raises(ConfigError) as exc:
        load_config(data, tmp_path)
    assert exc.value.field_path == "toolchains"
    cells = [
        (t["compiler_id"], g["name"], o)
        for t in data["toolchains"] for g in t["targets"] for o in t["opt_levels"]
    ]
    assert str(cells[0]) in str(exc.value) and str(cells[1]) in str(exc.value)


def test_passes_sharing_a_directory_are_rejected(tmp_path):
    data = minimal_config_dict()
    first = data["passes"][0]
    data["passes"] = [{**first, "pass_name": "Device Globals"},
                      {**first, "pass_name": "Device_Globals"}]
    with pytest.raises(ConfigError) as exc:
        load_config(data, tmp_path)
    assert exc.value.field_path == "passes"
    assert "'Device Globals' and 'Device_Globals'" in str(exc.value)


def test_each_providers_section_sets_its_own_service_retries(tmp_path):
    data = minimal_config_dict()
    data["providers"] = {
        "mode": "http",
        "llm": {"max_retries": 2, "backoff_base": 0.25, "requests_per_minute": 30},
        "embedding": {"max_retries": 5, "backoff_base": 1.5},
    }
    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    runner = CampaignRunner(load_config(data, config.base_dir), tmp_path / "campaign")
    llm, embedder = runner.llm, runner.embedder
    assert (llm.max_retries, llm.backoff_base, llm.rate_limiter.limit) == (2, 0.25, 30)
    assert (embedder.max_retries, embedder.backoff_base, embedder.rate_limiter.limit) == (5, 1.5, 0)
    mock = CampaignRunner(config, tmp_path / "mock")
    assert mock.llm.max_retries == mock.embedder.max_retries == 0


def test_the_stage_list_is_one_list():
    """campaign.STAGES, the runner's _stage_* methods and the copy the
    benchmark's tracer keeps name the same stages in the same order."""
    tracing = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text())
    copy = next(
        ast.literal_eval(node.value) for node in tracing.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["STAGES"]
    )
    methods = tuple(
        name.removeprefix("_stage_") for name in vars(CampaignRunner) if name.startswith("_stage_")
    )
    assert methods == campaign.STAGES
    assert copy == campaign.STAGES


def test_repair_attempts_capped(tmp_path):
    data = minimal_config_dict()
    data["generation"]["max_repair_attempts"] = 9
    with pytest.raises(ConfigError) as exc:
        load_config(data, tmp_path)
    assert "hard cap" in str(exc.value)


# each entry breaks the tiny config at the field path it is keyed by
MALFORMED = {
    "gate.target": lambda data: data["gate"].pop("target"),
    "rag.k": lambda data: data["rag"].update(k="four"),
    "devices[1].device_id": lambda data: data["devices"][1].pop("device_id"),
    "limits": lambda data: data.update(limits=[30.0, 10.0]),
    "toolchains[0].executable": lambda data: data["toolchains"][0].pop("executable"),
    "toolchains[0].targets[0].name": lambda data: data["toolchains"][0]["targets"][0].pop("name"),
    "toolchains[1].env": lambda data: data["toolchains"][1].update(env=["A=1"]),
    "passes[0]": lambda data: data["passes"].__setitem__(0, "DeviceGlobals"),
    "passes[0].sources": lambda data: data["passes"][0].update(sources="pass.cpp"),
    # a string is not a one-pattern list: its lone "*" would match everything
    "extraction.name_patterns": lambda data: data["extraction"].update(name_patterns="*x*"),
    "campaign.seed": lambda data: data["campaign"].update(seed="abc"),
    "compatibility": lambda data: data.update(compatibility=["devA"]),
    # two toolchains with one id, or two targets with one name, would share
    # compile result files
    "toolchains": lambda data: data["toolchains"][1].update(compiler_id="cc1"),
    "toolchains[0].targets": lambda data: data["toolchains"][0]["targets"].append(
        {"name": "mock-spir"}
    ),
    "providers.llm.timeout": lambda data: data["providers"].update(
        mode="http", llm={"timeout": 0}
    ),
    "passes[0].pass_name": lambda data: data["passes"][0].update(pass_name=""),
    "devices": lambda data: data["devices"][1].update(device_id="devA"),
    "toolchains[0].opt_levels": lambda data: data["toolchains"][0].update(opt_levels=[]),
    "extraction.min_lines": lambda data: data["extraction"].update(min_lines=0),
    "rag": lambda data: data["rag"].update(overlap_chars=800),
    "generation.mutations_per_seed": lambda data: data["generation"].update(
        mutations_per_seed=-1
    ),
    "providers.mode": lambda data: data["providers"].update(mode="grpc"),
    "gate": lambda data: data.pop("gate"),
    # each of these once got through and emptied or crashed the campaign
    "rag.embedding_dim": lambda data: data["rag"].update(embedding_dim=0),
    "limits.compile_timeout": lambda data: data["limits"].update(compile_timeout=0),
    "limits.run_timeout": lambda data: data["limits"].update(run_timeout=-1),
    "limits.address_space_mb": lambda data: data["limits"].update(address_space_mb=0),
    "limits.file_size_mb": lambda data: data["limits"].update(file_size_mb=0),
    "generation.seeds_per_function": lambda data: data["generation"].update(
        seeds_per_function=-1
    ),
    "generation.max_repair_attempts": lambda data: data["generation"].update(
        max_repair_attempts=-2
    ),
}


@pytest.mark.parametrize("field_path", sorted(MALFORMED))
def test_malformed_section_names_its_field_path(tmp_path, field_path):
    data = minimal_config_dict()
    MALFORMED[field_path](data)
    with pytest.raises(ConfigError) as exc:
        load_config(data, tmp_path)
    assert exc.value.field_path == field_path


def _record_defaults(cls: type):
    """Each field default of cls that is a record instance, and each of theirs."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default):
            yield f.default
            yield from _record_defaults(type(f.default))


def test_every_config_record_default_passes_its_own_rules():
    defaults = list(_record_defaults(CampaignConfig))
    assert {type(d).__name__ for d in defaults} == {
        "RunConfig", "ExtractionConfig", "RagConfig", "ProvidersSpec", "ProviderConfig",
        "GenerationConfig", "LimitsConfig", "ReportConfig",
    }
    for default in defaults:
        assert from_record(type(default), {}) == default


def test_missing_section_keys_take_dataclass_defaults(tmp_path):
    data = minimal_config_dict()
    for section in ("campaign", "extraction", "rag", "generation", "limits", "report"):
        data.pop(section)
    config = load_config(data, tmp_path)
    assert (config.campaign.seed, config.campaign.workers_tool) == (0, 1)
    assert config.rag.k == 4 and config.rag.embedding_dim == 64
    assert config.limits.run_timeout == 30.0
    assert config.report.unsupported_patterns == ("unsupported", "not supported", "UNSUPPORTED")
    assert config.report.pricing == ""


def test_gate_must_reference_known_compiler(tmp_path):
    data = minimal_config_dict()
    data["gate"]["compiler_id"] = "ghost"
    with pytest.raises(ConfigError) as exc:
        load_config(data, tmp_path)
    assert exc.value.field_path == "gate.compiler_id"


def test_mock_mode_requires_scenario(tmp_path):
    data = minimal_config_dict()
    data["providers"] = {"mode": "mock"}
    with pytest.raises(ConfigError) as exc:
        load_config(data, tmp_path)
    assert exc.value.field_path == "providers.scenario"


def test_config_hash_tracks_content(tmp_path):
    a = load_config(minimal_config_dict(), tmp_path)
    changed = minimal_config_dict()
    changed["campaign"]["seed"] = 999
    b = load_config(changed, tmp_path)
    assert a.config_hash != b.config_hash
    assert a.config_hash == load_config(minimal_config_dict(), tmp_path).config_hash
    # existing campaign directories are bound to this hash of the tiny config
    assert a.config_hash == "ba1e8f61244e0e63164f815fee37a69b79b34c092fed05fbd2e25004125c6b3e"


def test_yaml_config_loads(tmp_path):
    import yaml

    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(minimal_config_dict()))
    config = load_config_file(path, overrides={"campaign.seed": 777})
    assert config.campaign.seed == 777


def test_override_into_a_non_mapping_section_raises_config_error(tmp_path):
    data = minimal_config_dict()
    data["campaign"] = 5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as exc:
        load_config_file(path, overrides={"campaign.seed": 3})
    assert exc.value.field_path == "campaign"


def test_relative_executable_keeps_its_symlink(tmp_path):
    # clang picks its driver mode from argv[0]: clang++ must not start as clang-18
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "clang-18").write_text("#!/bin/sh\n")
    (bin_dir / "clang-18").chmod(0o755)
    (bin_dir / "clang++").symlink_to("clang-18")
    data = minimal_config_dict()
    for toolchain in data["toolchains"]:
        toolchain["executable"] = "bin/clang++"
        toolchain["env"] = {"CLANG": "bin/clang++", "ABSOLUTE": str(bin_dir / "clang++")}
    config = load_config(data, tmp_path)
    for toolchain in config.toolchains:
        assert toolchain.executable == str(bin_dir / "clang++")
        assert toolchain.env["CLANG"] == toolchain.env["ABSOLUTE"] == str(bin_dir / "clang++")


def test_a_resumed_repair_numbers_its_gate_inputs_by_the_log_length(tiny_campaign, tmp_path):
    # a kill after the first repair attempt's log line: the resume replays it
    done = CampaignStore(tiny_campaign.campaign_dir)
    case = next(c for c in done.all_cases() if c.parent_id is None and c.repair_transcript)
    assert len(case.repair_transcript) == 1
    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    campaign_dir = tmp_path / "campaign"
    run_campaign(config, campaign_dir, halt_after="generate")
    store = CampaignStore(campaign_dir)
    log = done.repair_log_path(case.case_id).read_bytes()
    store.repair_log_path(case.case_id).write_bytes(log)
    run_campaign(config, campaign_dir, halt_after="repair")
    gate_dir = store.case_dir(case.case_id) / "gate"
    assert [p.name for p in gate_dir.glob("attempt_*")] == ["attempt_02.cpp"]
    assert (gate_dir / "attempt_02.cpp").read_text() == case.source
    assert store.case_path(case.case_id).read_bytes() == done.case_path(case.case_id).read_bytes()
    assert store.repair_log_path(case.case_id).read_bytes() == log
    assert "repair" not in {e.stage for e in CostLedger(store.ledger_path).entries()}


def test_a_draft_saved_with_its_attempts_by_an_older_layout_resumes_from_them(
    tiny_campaign, tmp_path
):
    # the older layout saved case.json after each attempt and kept no log
    done = CampaignStore(tiny_campaign.campaign_dir)
    case = next(c for c in done.all_cases() if c.parent_id is None and c.repair_transcript)
    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    campaign_dir = tmp_path / "campaign"
    run_campaign(config, campaign_dir, halt_after="generate")
    store = CampaignStore(campaign_dir)
    store.save_case(replace(case, status=CaseStatus.DRAFT))
    run_campaign(config, campaign_dir, halt_after="repair")
    assert store.case_path(case.case_id).read_bytes() == done.case_path(case.case_id).read_bytes()
    assert store.repair_log_path(case.case_id).read_bytes() == b""
    assert "repair" not in {e.stage for e in CostLedger(store.ledger_path).entries()}


@pytest.mark.parametrize("max_attempts", [1, 3, 5])
def test_a_repair_writes_its_case_twice_and_logs_each_attempt_once(
    max_attempts, tmp_path, monkeypatch
):
    config = load_config_file(
        materialize_scenario(build_tiny(), tmp_path / "work"),
        overrides={"generation.max_repair_attempts": max_attempts},
    )
    write, append, drive = campaign.write_text, RecordLog.append, CampaignRunner._drive
    writes, appends, repairing = Counter(), Counter(), threading.Event()

    def counting_write(path, text):
        if repairing.is_set():
            writes[path.parent.name] += 1
        write(path, text)

    def counting_append(log, record):
        if log.path.name == "repair.jsonl":
            appends[log.path.parent.name] += 1
        append(log, record)

    def counting_drive(self, stage):
        if stage.fault == "repair_failed":
            repairing.set()
        try:
            drive(self, stage)
        finally:
            repairing.clear()

    monkeypatch.setattr(campaign, "write_text", counting_write)
    monkeypatch.setattr(RecordLog, "append", counting_append)
    monkeypatch.setattr(CampaignRunner, "_drive", counting_drive)
    run_campaign(config, tmp_path / "campaign")
    attempts = Counter({
        c.case_id: len(c.repair_transcript) for c in CampaignStore(tmp_path / "campaign").all_cases()
    })
    assert sorted(attempts.values()) == sorted([0, 0, 1, max_attempts])
    assert writes == Counter(dict.fromkeys(attempts, 2))
    assert appends == attempts


def test_a_gate_compile_that_writes_no_output_after_an_ok_one_reads_error(tmp_path):
    compiler = tmp_path / "cc"
    compiler.write_text(
        "#!/bin/sh\n"
        "# cc [flags] SOURCE -o OUTPUT writes OUTPUT only for a source that asks\n"
        "while [ $# -gt 3 ]; do shift; done\n"
        'if grep -q WRITE "$1"; then : > "$3"; fi\n'
    )
    compiler.chmod(0o755)
    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    config.toolchains = [replace(t, executable=str(compiler)) for t in config.toolchains]
    runner = CampaignRunner(config, tmp_path / "campaign")
    case = TestCase("c0", "DeviceGlobals", "")
    gate = runner._gate_compile(case, JobLauncher())
    assert gate("// WRITE\n").ok
    case.repair_transcript.append(RepairAttempt("error\n", "// no output\n"))
    result = gate("// no output\n")
    assert result.status == CompileStatus.ERROR
    assert "exited 0 without producing output" in result.stderr
    gate_dir = runner.store.case_dir("c0") / "gate"
    assert sorted(p.name for p in gate_dir.glob("attempt_*")) == ["attempt_01.cpp", "attempt_02.cpp"]


def test_functions_whose_names_slug_alike_keep_their_own_characteristics(tmp_path):
    scenario = build_tiny()
    overload = "void lowerDeviceGlobalVars(Module &M, bool Force) {\n  rewriteAll(M, Force);\n}"
    scenario.input_files["inputs/device_globals_pass.cpp"] += f"\n{overload}\n"
    function_code = f"sha256:{binding_digest(overload)}"
    scenario.llm_entries.append(ScriptEntry(
        "characteristics", {"pass_name": "DeviceGlobals", "function_code": function_code},
        ["The overload's characteristics."],
    ))
    work = tmp_path / "work"
    work.mkdir()
    scenario.config["providers"]["scenario"] = str(work / "overloads.json")
    (work / "overloads.json").write_text(json.dumps(scenario_to_dict(scenario)))
    campaign_dir = tmp_path / "campaign"
    run_campaign(load_config_file(materialize_scenario(scenario, work)), campaign_dir,
                 halt_after="characteristics")
    ch_dir = campaign_dir / "passes" / "DeviceGlobals" / "characteristics"
    keys = {p.name: json.loads(p.read_text())["function_key"] for p in ch_dir.glob("*.json")}
    assert keys == {
        "collectDeviceGlobalProperties.json": "collectDeviceGlobalProperties",
        "lowerDeviceGlobalVars.json": "lowerDeviceGlobalVars",
        "lowerDeviceGlobalVars.f2.json": "lowerDeviceGlobalVars",
    }
    assert json.loads((ch_dir / "lowerDeviceGlobalVars.f2.json").read_text())["text"] == (
        "The overload's characteristics."
    )
    ledger = CostLedger(campaign_dir / "ledger.jsonl")
    assert [e.stage for e in ledger.entries()].count("characteristics") == 3


def test_two_docs_of_one_file_name_are_refused(tmp_path):
    scenario = build_tiny()
    scenario.input_files["inputs/more_docs/device_global.md"] = "Another device_global page.\n"
    scenario.config["passes"][0]["docs"].append("inputs/more_docs/*.md")
    config = load_config_file(materialize_scenario(scenario, tmp_path / "work"))
    with pytest.raises(ConfigError) as exc:
        run_campaign(config, tmp_path / "campaign", halt_after="index")
    assert exc.value.field_path == "passes"
    for docs in ("docs", "more_docs"):
        assert str(tmp_path / "work" / "inputs" / docs / "device_global.md") in str(exc.value)
    assert not (tmp_path / "campaign" / "index").exists()


def test_resumed_index_holds_the_corpus_once(tmp_path):
    """A campaign shaped like the benchmark's generate workload (1000+
    chunks of ~700 characters at dim 1536), halted after the index stage,
    sets up and loads its index again without a float64 copy of the corpus.
    The float32 screen is half of one; the chunk texts the index keeps, as
    it always has, are allowed on top, at the manifest's size."""
    scenario = build_tiny()
    scenario.config["rag"]["embedding_dim"] = 1536
    scenario.input_files["inputs/docs/corpus.md"] = "".join(
        f"Paragraph {p}: kernel {p % 7} reads the device_global property {p} "
        f"after the host writes it, then the queue waits on event {p % 11}.\n\n"
        for p in range(7000)
    )
    config = load_config_file(materialize_scenario(scenario, tmp_path / "work"))
    campaign_dir = tmp_path / "campaign"
    run_campaign(config, campaign_dir, halt_after="index")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        runner = CampaignRunner(config, campaign_dir)
        runner._drive(runner._stage_index())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    n = len(runner.pipeline.index)
    assert n >= 1000
    manifest = (campaign_dir / "index" / "chunks.jsonl").stat().st_size
    assert peak <= 0.6 * n * 1536 * 8 + manifest


# --- end-to-end campaign against the scripted scenario ---

def test_report_counts_match_scenario_expectation(tiny_campaign):
    expected = tiny_campaign.scenario.expected_report
    assert tiny_campaign.report.per_pass == expected["per_pass"]


def test_findings_match_seeded_divergences_exactly(tiny_campaign):
    expected = tiny_campaign.scenario.expected_report["findings"]
    got = tiny_campaign.report.findings
    assert got["per_case"] == expected["per_case"]
    assert got["per_axis"] == expected["per_axis"]
    assert got["total_flagged"] == expected["total_flagged"]


def test_report_partition_holds(tiny_campaign):
    assert validate_partition(tiny_campaign.report.per_pass)
    counts = tiny_campaign.report.per_pass["DeviceGlobals"]
    assert counts["compiled"] + counts["failed"] == counts["generated"]


def test_campaign_is_bit_reproducible(tiny_campaign, tmp_path):
    report2 = run_campaign(tiny_campaign.config, tmp_path / "again")
    original = (tiny_campaign.campaign_dir / "report.json").read_bytes()
    second = (tmp_path / "again" / "report.json").read_bytes()
    assert original == second
    assert report2.to_canonical_dict() == tiny_campaign.report.to_canonical_dict()


def campaign_files(campaign_dir) -> dict:
    """Every file of a campaign directory by relative path, but timing.json
    and report.md, which time the run."""
    files = {}
    for path in campaign_dir.rglob("*"):
        name = str(path.relative_to(campaign_dir))
        if path.is_file() and name not in ("timing.json", "report.md"):
            files[name] = path.read_bytes()
    return files


def test_a_fresh_campaign_directory_is_reproducible_at_any_worker_count_and_path(tmp_path):
    config_path = materialize_scenario(build_tiny(), tmp_path / "work")
    dirs = {1: tmp_path / "one" / "campaign", 8: tmp_path / "eight" / "elsewhere"}
    for workers, campaign_dir in dirs.items():
        config = load_config_file(
            config_path,
            overrides={"campaign.workers_llm": workers, "campaign.workers_tool": workers},
        )
        run_campaign(config, campaign_dir)
    first, second = campaign_files(dirs[1]), campaign_files(dirs[8])
    assert sorted(second) == sorted(first)
    assert {"index/chunks.jsonl", "index/embeddings.npy", "index/meta.json"} <= set(first)
    # the worker counts are config values: its snapshot and its hash hold them
    differ = sorted(name for name, data in first.items() if second[name] != data)
    assert differ == ["config.snapshot.json", "manifest.json"]


def test_a_moved_campaign_resumes_its_matrix_where_its_binaries_are_now(tiny_campaign, tmp_path):
    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    run_campaign(config, tmp_path / "a")
    moved = tmp_path / "b"
    (tmp_path / "a").rename(moved)
    # a kill just after the cell's first compile: its runs are not logged yet
    log = moved / "cases" / "DeviceGlobals.f0.s0.m0" / "results.jsonl"
    whole = log.read_bytes()
    log.write_bytes(whole.splitlines(keepends=True)[0])
    (moved / "findings.jsonl").unlink()
    (moved / "report.json").unlink()
    resume(moved)
    golden = (tiny_campaign.campaign_dir / "report.json").read_bytes()
    assert (moved / "report.json").read_bytes() == golden
    assert log.read_bytes() == whole


def test_report_is_byte_identical_across_worker_counts(tiny_campaign, tmp_path):
    reports = []
    # the mock compiles of concurrent workers source one table.json.sh at once
    for workers in (1, 4, 8):
        config = load_config_file(
            tiny_campaign.config_path,
            overrides={"campaign.workers_llm": workers, "campaign.workers_tool": workers},
        )
        assert (config.campaign.workers_llm, config.campaign.workers_tool) == (workers, workers)
        run_campaign(config, tmp_path / f"workers{workers}")
        reports.append((tmp_path / f"workers{workers}" / "report.json").read_bytes())
    assert len(set(reports)) == 1


def test_zero_mutations_per_seed_makes_no_mutants(tmp_path):
    config = load_config_file(
        materialize_scenario(build_tiny(), tmp_path / "work"),
        overrides={"generation.mutations_per_seed": 0},
    )
    run_campaign(config, tmp_path / "campaign", halt_after="repair_mutants")
    cases = CampaignStore(tmp_path / "campaign").all_cases()
    assert cases and all(case.parent_id is None for case in cases)
    entries = CostLedger(tmp_path / "campaign" / "ledger.jsonl").entries()
    assert entries and all(e.stage != "mutation" for e in entries)


def test_findings_jsonl_line_count_matches_discrepancies(tiny_campaign):
    lines = [
        l
        for l in (tiny_campaign.campaign_dir / "findings.jsonl").read_text().splitlines()
        if l.strip()
    ]
    expected_pairs = sum(
        len(v) for v in tiny_campaign.scenario.expected_report["findings"]["per_case"].values()
    )
    assert len(lines) == expected_pairs
    for line in lines:
        record = json.loads(line)
        assert {"case_id", "kind", "axis", "issue_class", "witness"} <= set(record)


def test_abandoned_case_repair_transcript_is_bounded(tiny_campaign):
    store = CampaignStore(tiny_campaign.campaign_dir)
    failed = [c for c in store.all_cases() if c.status == CaseStatus.ABANDONED]
    assert len(failed) == 1
    assert failed[0].abandon_reason == "compile_failed"
    assert len(failed[0].repair_transcript) == 5


def test_compiling_cases_have_balanced_sources(tiny_campaign):
    store = CampaignStore(tiny_campaign.campaign_dir)
    for case in store.all_cases():
        if case.status == CaseStatus.COMPILES:
            assert case.source.strip()
            assert case.source.count("{") == case.source.count("}")


def test_resume_of_completed_campaign_is_noop(tiny_campaign):
    before = (tiny_campaign.campaign_dir / "report.json").read_bytes()
    ledger_before = CostLedger(tiny_campaign.campaign_dir / "ledger.jsonl")
    gen_before = [e for e in ledger_before.entries() if e.stage in GEN_STAGES]
    report = resume(tiny_campaign.campaign_dir)
    after = (tiny_campaign.campaign_dir / "report.json").read_bytes()
    ledger_after = CostLedger(tiny_campaign.campaign_dir / "ledger.jsonl")
    gen_after = [e for e in ledger_after.entries() if e.stage in GEN_STAGES]
    assert before == after
    assert len(gen_before) == len(gen_after)
    assert report.per_pass == tiny_campaign.report.per_pass


def test_resume_of_a_finished_campaign_starts_no_process_and_calls_no_provider(
    tiny_campaign, tmp_path, monkeypatch
):
    import shutil
    import subprocess

    from ragfuzz.providers import EmbeddingService, LLMService

    counts = {"processes": 0, "llm": 0, "embed": 0}

    class CountingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            counts["processes"] += 1
            super().__init__(*args, **kwargs)

    def counting(key, method):
        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            return method(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(subprocess, "Popen", CountingPopen)
    monkeypatch.setattr(LLMService, "llm_complete", counting("llm", LLMService.llm_complete))
    monkeypatch.setattr(
        EmbeddingService, "embed_texts", counting("embed", EmbeddingService.embed_texts)
    )
    clone = tmp_path / "clone"
    shutil.copytree(tiny_campaign.campaign_dir, clone)
    golden = (tiny_campaign.campaign_dir / "report.json").read_bytes()
    resume(clone)
    assert counts == {"processes": 0, "llm": 0, "embed": 0}
    assert (clone / "report.json").read_bytes() == golden
    # the counts see work: with one run line gone, resume starts that one run
    log = next(clone.glob("cases/*/results.jsonl"))
    lines = log.read_text().splitlines(keepends=True)
    lines.remove(next(line for line in lines if line.startswith('{"run"')))
    log.write_text("".join(lines))
    resume(clone)
    assert counts == {"processes": 1, "llm": 0, "embed": 0}
    assert (clone / "report.json").read_bytes() == golden


def test_results_log_holds_one_line_per_compile_and_run_cell(tiny_campaign):
    from ragfuzz.toolchain import CellKey, build_matrix, expand_run_jobs

    config, store = tiny_campaign.config, CampaignStore(tiny_campaign.campaign_dir)
    compiled = [c for c in store.all_cases() if c.status == CaseStatus.COMPILES]
    assert compiled
    for case in compiled:
        case_dir = store.case_dir(case.case_id)
        assert not (case_dir / "results").exists()
        lines = results(store, case.case_id)
        assert all((line.compile is None) != (line.run is None) for line in lines)
        jobs = build_matrix(
            case.case_id, store.source_path(case.case_id), config.toolchains, case_dir / "build"
        )
        compiles = [line.compile for line in lines if line.compile]
        assert [r.cell for r in compiles] == [
            CellKey(job.compiler_id, job.target, job.opt_level) for job in jobs
        ]
        runs = [
            run.cell
            for job, r in zip(jobs, compiles)
            for run in expand_run_jobs(job, r, config.devices, config.compatibility or None)
        ]
        assert runs and [line.run.cell for line in lines if line.run] == runs


def test_resume_cuts_a_torn_results_line_and_reruns_only_that_cell(
    tiny_campaign, tmp_path, monkeypatch
):
    import shutil
    import subprocess

    started = []

    class CountingPopen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            started.append(args)
            super().__init__(args, *rest, **kwargs)

    clone = tmp_path / "clone"
    shutil.copytree(tiny_campaign.campaign_dir, clone)
    (clone / "findings.jsonl").unlink()  # so classify reads the mended log again
    log = next(clone.glob("cases/*/results.jsonl"))
    lines = log.read_bytes().splitlines(keepends=True)
    # a kill tore the last append mid-line
    log.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    monkeypatch.setattr(subprocess, "Popen", CountingPopen)
    resume(clone)
    assert len(started) == 1
    mended = log.read_bytes().splitlines(keepends=True)
    assert mended[:-1] == lines[:-1]
    assert json.loads(mended[-1])["run"]["cell"] == json.loads(lines[-1])["run"]["cell"]
    assert (clone / "report.json").read_bytes() == (
        tiny_campaign.campaign_dir / "report.json"
    ).read_bytes()


def test_results_logs_hold_the_same_lines_at_one_and_four_tool_workers(tiny_campaign, tmp_path):
    def summary(line):
        if line.compile:
            return ("compile", line.compile.cell, line.compile.status, None, None)
        run = line.run
        return ("run", run.cell, run.status, run.exit_code, run.stdout)

    logs = []
    for workers in (1, 4):
        config = load_config_file(
            tiny_campaign.config_path, overrides={"campaign.workers_tool": workers}
        )
        run_campaign(config, tmp_path / f"workers{workers}", halt_after="matrix")
        store = CampaignStore(tmp_path / f"workers{workers}")
        logs.append({
            case.case_id: [summary(line) for line in results(store, case.case_id)]
            for case in store.all_cases()
        })
    assert logs[0] == logs[1]
    assert sum(len(lines) > 0 for lines in logs[0].values()) > 1


def test_resume_reads_a_snapshot_in_the_indented_layout(tiny_campaign, tmp_path):
    import shutil

    clone = tmp_path / "clone"
    shutil.copytree(tiny_campaign.campaign_dir, clone)
    snapshot_path = clone / "config.snapshot.json"
    snapshot = json.loads(snapshot_path.read_text())
    assert snapshot_path.read_text() == json.dumps(snapshot, sort_keys=True) + "\n"
    # the layout campaign directories were written in before the compact one
    snapshot_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    report = resume(clone)
    assert report.per_pass == tiny_campaign.report.per_pass
    assert (clone / "report.json").read_bytes() == (
        tiny_campaign.campaign_dir / "report.json"
    ).read_bytes()


def test_resume_with_mutated_config_refuses(tiny_campaign, tmp_path):
    changed_dict = json.loads(json.dumps(tiny_campaign.config.raw))
    changed_dict["campaign"]["seed"] = 4321
    changed = load_config(changed_dict, tiny_campaign.config.base_dir)
    with pytest.raises(ConfigMismatch):
        resume(tiny_campaign.campaign_dir, changed)
    with pytest.raises(ConfigMismatch):
        run_campaign(changed, tiny_campaign.campaign_dir)


def test_resume_requires_manifest(tmp_path):
    with pytest.raises(CorruptManifest):
        resume(tmp_path / "never_ran")


def test_corrupt_manifest_detected(tiny_campaign, tmp_path):
    import shutil

    clone = tmp_path / "clone"
    shutil.copytree(tiny_campaign.campaign_dir, clone)
    (clone / "manifest.json").write_text("{not json")
    with pytest.raises(CorruptManifest):
        resume(clone)


def test_missing_prlimit_stops_the_campaign_before_any_job(tmp_path, monkeypatch):
    import shutil

    import ragfuzz.toolchain as toolchain
    from ragfuzz.errors import ToolNotFound

    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    runner = CampaignRunner(config, tmp_path / "campaign")
    which = shutil.which
    monkeypatch.setattr(
        shutil, "which", lambda name, *a, **k: None if name == "prlimit" else which(name, *a, **k)
    )
    toolchain.prlimit_path.cache_clear()
    try:
        with pytest.raises(ToolNotFound, match="prlimit"):
            runner.run()
    finally:
        toolchain.prlimit_path.cache_clear()
    assert not runner.store.timing_path.exists()
    assert CostLedger(runner.store.ledger_path).entries() == []


def test_each_stage_starts_its_jobs_in_the_environment_it_began_with(tmp_path, monkeypatch):
    import subprocess

    from ragfuzz.toolchain import prlimit_path

    started = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            started.append((args[0], kwargs["env"]))
            super().__init__(args, *rest, **kwargs)

    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    monkeypatch.setenv("RAGFUZZ_DEVICE", "harness")
    monkeypatch.setenv("RAGFUZZ_TEST_STAGE", "gate")
    CampaignRunner(config, tmp_path / "campaign").run(halt_after="repair_mutants")
    gate = started[:]
    monkeypatch.setenv("RAGFUZZ_TEST_STAGE", "matrix")
    resume(tmp_path / "campaign")
    matrix = started[len(gate):]
    assert gate and matrix

    def encoded(env):
        return {os.fsencode(k): os.fsencode(v) for k, v in env.items()}

    table = encoded(config.toolchains[0].env)
    assert all(env == {**os.environb, b"RAGFUZZ_TEST_STAGE": b"gate", **table} for _, env in gate)
    runs = [env for program, env in matrix if program == prlimit_path()]
    compiles = [env for program, env in matrix if program != prlimit_path()]
    assert all(env == {**os.environb, **table} for env in compiles)
    assert compiles[0][b"RAGFUZZ_DEVICE"] == b"harness"
    devices = [{**os.environb, **encoded(device.env)} for device in config.devices]
    assert devices[0] != devices[1]
    assert runs and all(env in devices for env in runs)
    assert runs.count(devices[0]) == runs.count(devices[1])
    # one environment per distinct job env: both compilers share theirs
    assert len({id(env) for _, env in matrix}) == 3


def test_no_secret_material_in_artifacts(tmp_path):
    secret = "s3cr3t-T0KEN-9f8e7d"
    os.environ["RAGFUZZ_TEST_SECRET"] = secret
    try:
        scenario = build_tiny()
        scenario.config["providers"]["llm"] = {"api_key_env": "RAGFUZZ_TEST_SECRET"}
        config_path = materialize_scenario(scenario, tmp_path / "work")
        config = load_config_file(config_path)
        campaign_dir = tmp_path / "campaign"
        run_campaign(config, campaign_dir)
        offenders = []
        for path in campaign_dir.rglob("*"):
            if path.is_file() and secret in path.read_text(errors="ignore"):
                offenders.append(path)
        assert not offenders
        snapshot = (campaign_dir / "config.snapshot.json").read_text()
        assert "RAGFUZZ_TEST_SECRET" in snapshot  # the name is fine, the value is not
    finally:
        del os.environ["RAGFUZZ_TEST_SECRET"]


def test_suppress_source_patterns_filters_findings(tmp_path):
    # suppressing sources that mention device_global removes case A and B
    # findings but keeps the campaign green
    scenario = build_tiny()
    scenario.config["report"]["suppress_source_patterns"] = ["device_global<int>"]
    config_path = materialize_scenario(scenario, tmp_path / "work")
    config = load_config_file(config_path)
    report = run_campaign(config, tmp_path / "campaign")
    assert report.findings["total_flagged"] == 0
    assert validate_partition(report.per_pass)


# --- report emission ---

def fixed_report() -> CampaignReport:
    return CampaignReport(
        per_pass={
            "DeviceGlobals": {
                "functions": 2,
                "characteristics": 2,
                "generated": 4,
                "compiled": 3,
                "failed": 1,
                "abandoned": 0,
            }
        },
        findings={
            "total_flagged": 1,
            "flagged_cases": ["DeviceGlobals.f0.s0"],
            "per_axis": {"cross_compiler": 1},
            "per_kind": {"output_mismatch": 1},
            "per_case": {"DeviceGlobals.f0.s0": [["output_mismatch", "cross_compiler"]]},
        },
        cost={
            "input_tokens": 1000,
            "output_tokens": 200,
            "by_stage": {},
            "total_dollars": "0.042",
        },
        timing={"extract": 0.01},
    )


def test_emit_report_matches_goldens(tmp_path, fixtures_dir):
    report = fixed_report()
    emit_report(report, tmp_path)
    for name, golden in (("report.json", "report.golden.json"), ("report.md", "report.golden.md")):
        assert (tmp_path / name).read_text() == (fixtures_dir / "golden" / golden).read_text()


def test_emit_report_zeroed_tables(tmp_path):
    report = CampaignReport(
        per_pass={},
        findings={"total_flagged": 0, "flagged_cases": [], "per_axis": {}, "per_kind": {},
                  "per_case": {}},
        cost={"input_tokens": 0, "output_tokens": 0, "by_stage": {}, "total_dollars": "0"},
    )
    md = render_markdown(report)
    assert "Flagged cases (union): **0**" in md
    emit_report(report, tmp_path)
    assert json.loads((tmp_path / "report.json").read_text())["findings"]["total_flagged"] == 0
    assert (tmp_path / "report.md").read_text() == md


def test_canonical_report_excludes_timing():
    assert "timing" not in fixed_report().to_canonical_dict()


def test_partition_validator_detects_violation():
    bad = {"P": {"functions": 1, "characteristics": 1, "generated": 5,
                 "compiled": 3, "failed": 1, "abandoned": 0}}
    assert not validate_partition(bad)


def test_concurrent_ledger_lines_stay_whole(tmp_path):
    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    runner = CampaignRunner(config, tmp_path / "campaign")

    class BigBackend:
        def complete(self, prompt, text):
            # more than one 8 KiB write buffer per ledger line
            return Completion(text + "x" * 20_000, 1, 1, "gpt-4")

    runner.llm.backend = BigBackend()

    def worker(n):
        for i in range(10):
            prompt = RenderedPrompt("codegen", f"prompt {n}.{i}", {})
            runner.llm.llm_complete(prompt, [], "codegen")

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    lines = runner.store.ledger_path.read_text().splitlines()
    assert len(lines) == 80
    entries = [from_record(UsageEntry, json.loads(line)) for line in lines]
    assert sorted(e.response for e in entries) == sorted(
        f"prompt {n}.{i}" + "x" * 20_000 for n in range(8) for i in range(10)
    )
    assert all(e.prompt_sha256 == binding_digest(e.response[:-20_000]) for e in entries)


def test_resume_cuts_a_torn_ledger_line(tiny_campaign, tmp_path):
    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    campaign_dir = tmp_path / "campaign"
    run_campaign(config, campaign_dir, halt_after="characteristics")
    ledger = campaign_dir / "ledger.jsonl"
    whole = ledger.read_bytes()
    with open(ledger, "a", encoding="utf-8") as fh:
        fh.write('{"approximate": true, "input_tokens": 4')  # a kill tore the next line
    resume(campaign_dir)
    lines = ledger.read_bytes().splitlines(keepends=True)
    assert all(from_record(UsageEntry, json.loads(line)) for line in lines)
    assert b"".join(lines).startswith(whole)
    assert ledger.read_bytes() == (tiny_campaign.campaign_dir / "ledger.jsonl").read_bytes()
