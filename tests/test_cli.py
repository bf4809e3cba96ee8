from __future__ import annotations

import json
from pathlib import Path

import pytest
from test_campaign import MALFORMED

from ragfuzz.cli import main
from ragfuzz.scenarios import build_tiny, materialize_scenario, scenario_to_dict


@pytest.fixture()
def workdir(tmp_path):
    scenario = build_tiny()
    config_path = materialize_scenario(scenario, tmp_path / "work")
    return config_path, tmp_path / "campaign"


def test_run_subcommand_completes_with_exit_zero(workdir, capsys):
    config_path, campaign_dir = workdir
    code = main(["run", "--config", str(config_path), "--campaign-dir", str(campaign_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "generated=4 compiled=3 failed=1" in out
    assert "findings: 2 flagged case(s)" in out
    assert (campaign_dir / "report.json").exists()
    assert (campaign_dir / "report.md").exists()
    assert (campaign_dir / "findings.jsonl").exists()


def test_index_subcommand_stops_after_indexing(workdir):
    config_path, campaign_dir = workdir
    args = ["index", "--config", str(config_path), "--campaign-dir", str(campaign_dir)]
    assert main(args) == 0
    assert main(args) == 0  # run again, it resumes up to the index only
    assert (campaign_dir / "index" / "meta.json").exists()
    assert not (campaign_dir / "cases").exists()
    assert not (campaign_dir / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["index", "--resume"],  # a subcommand run again resumes on its own
    ["resume", "--seed", "1"],  # a resume runs the config the directory holds
    ["resume", "--workers-tool", "4"],
    ["resume", "--mock-providers"],
], ids=["index_resume", "resume_seed", "resume_workers_tool", "resume_mock_providers"])
def test_flags_a_command_would_not_honour_are_refused(workdir, argv, capsys):
    config_path, campaign_dir = workdir
    command, *flags = argv
    paths = ["--config", str(config_path)] if command != "resume" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *paths, "--campaign-dir", str(campaign_dir), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not campaign_dir.exists()


def test_gen_then_test_then_report_stage_progression(workdir):
    config_path, campaign_dir = workdir
    args = ["--config", str(config_path), "--campaign-dir", str(campaign_dir)]
    assert main(["gen", *args]) == 0
    cases = list((campaign_dir / "cases").glob("*/case.json"))
    assert len(cases) == 4
    assert not (campaign_dir / "findings.jsonl").exists()
    assert main(["test", *args]) == 0
    assert (campaign_dir / "findings.jsonl").exists()
    assert not (campaign_dir / "report.json").exists()
    assert main(["report", *args]) == 0
    assert (campaign_dir / "report.json").exists()


def test_resume_subcommand(workdir):
    config_path, campaign_dir = workdir
    assert main(["gen", "--config", str(config_path), "--campaign-dir", str(campaign_dir)]) == 0
    assert main(["resume", "--campaign-dir", str(campaign_dir)]) == 0
    assert (campaign_dir / "report.json").exists()


def test_relative_campaign_dir_works(tmp_path, monkeypatch):
    # job argv paths must survive subprocess cwd changes even when the
    # campaign dir is given relative to the invocation directory
    scenario = build_tiny()
    config_path = materialize_scenario(scenario, tmp_path / "work")
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--config", str(config_path), "--campaign-dir", "campaign"])
    assert code == 0
    report = json.loads((tmp_path / "campaign" / "report.json").read_text())
    assert report["per_pass"]["DeviceGlobals"]["compiled"] == 3


def test_relative_scenario_file_resolves_against_the_config_directory(tmp_path, monkeypatch):
    scenario = build_tiny()
    config_path = materialize_scenario(scenario, tmp_path / "work")
    (config_path.parent / "tiny_copy.json").write_text(json.dumps(scenario_to_dict(scenario)))
    data = json.loads(config_path.read_text())
    data["providers"]["scenario"] = "tiny_copy.json"
    config_path.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    code = main(["index", "--config", "work/config.json", "--campaign-dir", "campaign"])
    assert code == 0
    assert (tmp_path / "campaign" / "index" / "meta.json").exists()


def test_config_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"passes": []}))
    code = main(["run", "--config", str(bad), "--campaign-dir", str(tmp_path / "c")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field_path", sorted(MALFORMED))
def test_malformed_config_exits_one_with_field_path(workdir, capsys, field_path):
    config_path, campaign_dir = workdir
    data = json.loads(config_path.read_text())
    MALFORMED[field_path](data)
    config_path.write_text(json.dumps(data))
    code = main(["run", "--config", str(config_path), "--campaign-dir", str(campaign_dir)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {field_path}: ")
    assert not (campaign_dir / "manifest.json").exists()


def test_seed_override_into_a_non_mapping_section_exits_one(workdir, capsys):
    config_path, campaign_dir = workdir
    data = json.loads(config_path.read_text())
    data["campaign"] = 5
    config_path.write_text(json.dumps(data))
    code = main(["run", "--config", str(config_path), "--campaign-dir", str(campaign_dir),
                 "--seed", "3"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: campaign: ")
    assert not (campaign_dir / "manifest.json").exists()


def test_resume_without_manifest_exits_one(tmp_path, capsys):
    code = main(["resume", "--campaign-dir", str(tmp_path / "none")])
    assert code == 1


def test_internal_fault_exits_two(tmp_path, capsys):
    # drop the scripted mutation response for case B's parent: its mutant
    # generation dies on a scenario miss, the case is abandoned, exit code 2
    from ragfuzz.scenarios import scenario_to_dict

    scenario = build_tiny()
    scenario.llm_entries = [
        e
        for e in scenario.llm_entries
        if not (e.template_id == "mutation" and "Widget" in e.responses[0])
    ]
    scenario_path = tmp_path / "broken_tiny.json"
    scenario_path.write_text(json.dumps(scenario_to_dict(scenario)))
    scenario.config["providers"]["scenario"] = str(scenario_path)
    config_path = materialize_scenario(scenario, tmp_path / "work")
    code = main(["run", "--config", str(config_path), "--campaign-dir",
                 str(tmp_path / "campaign")])
    assert code == 2
    out = capsys.readouterr().out
    assert "abandoned=1" in out


def test_a_file_planted_at_a_cell_workdir_abandons_only_that_case(
    workdir, tiny_campaign, capsys
):
    from ragfuzz.campaign import CampaignStore
    from ragfuzz.pipeline import CaseStatus

    config_path, campaign_dir = workdir
    args = ["--config", str(config_path), "--campaign-dir", str(campaign_dir)]
    assert main(["gen", *args]) == 0
    # a program run in a sibling cell's workdir wrote a file at this cell's path
    case_id = "DeviceGlobals.f0.s0"
    build = campaign_dir / "cases" / case_id / "build"
    build.mkdir(parents=True)
    (build / "cc1_mock-spir_O2").write_text("left by a program under test\n")
    assert main(["run", *args]) == 2
    assert "abandoned=1" in capsys.readouterr().out
    cases = {c.case_id: c for c in CampaignStore(campaign_dir).all_cases()}
    assert cases[case_id].status == CaseStatus.ABANDONED
    assert cases[case_id].abandon_reason.startswith("matrix_failed: [Errno 17] File exists")
    assert [c.status for i, c in cases.items() if i != case_id].count(CaseStatus.COMPILES) == 2
    # the other cases are tested and classified as in an undisturbed run
    want = [
        line for line in (tiny_campaign.campaign_dir / "findings.jsonl").open()
        if json.loads(line)["case_id"] != case_id
    ]
    assert want and (campaign_dir / "findings.jsonl").read_text() == "".join(want)
    assert (campaign_dir / "report.json").exists()


def test_a_planted_file_leaves_the_same_case_json_wherever_the_campaign_ran(tmp_path):
    from ragfuzz.campaign import CampaignStore, load_config_file, run_campaign

    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    case_id = "DeviceGlobals.f0.s0"
    stored = []
    for campaign_dir in (tmp_path / "one" / "campaign", tmp_path / "two" / "deeper" / "campaign"):
        run_campaign(config, campaign_dir, halt_after="repair_mutants")
        build = campaign_dir / "cases" / case_id / "build"
        build.mkdir(parents=True)
        (build / "cc1_mock-spir_O2").write_text("left by a program under test\n")
        run_campaign(config, campaign_dir)
        store = CampaignStore(campaign_dir)
        stored.append(store.case_path(case_id).read_bytes())
    reason = json.loads(stored[0])["abandon_reason"]
    assert reason == (
        "matrix_failed: [Errno 17] File exists: "
        f"'cases/{case_id}/build/cc1_mock-spir_O2'"
    )
    assert stored[0] == stored[1]


def test_a_line_a_program_writes_into_its_results_log_abandons_only_that_case(
    workdir, tiny_campaign, capsys, monkeypatch
):
    import ragfuzz.campaign as campaign
    from ragfuzz.campaign import CampaignStore
    from ragfuzz.pipeline import CaseStatus

    config_path, campaign_dir = workdir
    case_id, run_job, wrote = "DeviceGlobals.f0.s0", campaign.run_job, []

    def writing(job, limits, launcher):
        # the case's first program writes a line to ../../results.jsonl from
        # its workdir build/<cell>/: that is its own case's results log
        if job.case_id == case_id and not wrote:
            with open(Path(job.binary_path).parent / "../../results.jsonl", "a") as fh:
                fh.write("program output\n")
            wrote.append(job.cell)
        return run_job(job, limits, launcher)

    monkeypatch.setattr(campaign, "run_job", writing)
    args = ["--config", str(config_path), "--campaign-dir", str(campaign_dir)]
    assert main(["run", *args]) == 2
    assert "abandoned=1" in capsys.readouterr().out
    cases = {c.case_id: c for c in CampaignStore(campaign_dir).all_cases()}
    assert cases[case_id].status == CaseStatus.ABANDONED
    assert cases[case_id].abandon_reason.startswith(
        f"classify_failed: cases/{case_id}/results.jsonl: line 2: "
    )
    undisturbed = {c.case_id: c for c in CampaignStore(tiny_campaign.campaign_dir).all_cases()}
    assert {i: c for i, c in cases.items() if i != case_id} == {
        i: c for i, c in undisturbed.items() if i != case_id
    }
    # the other cases are classified as in an undisturbed run
    want = [
        line for line in (tiny_campaign.campaign_dir / "findings.jsonl").open()
        if json.loads(line)["case_id"] != case_id
    ]
    assert want and (campaign_dir / "findings.jsonl").read_text() == "".join(want)
    report = (campaign_dir / "report.json").read_bytes()
    assert main(["resume", "--campaign-dir", str(campaign_dir)]) == 2
    assert (campaign_dir / "report.json").read_bytes() == report


def test_a_corrupt_inner_ledger_line_exits_one_with_one_error_line(workdir, capsys):
    config_path, campaign_dir = workdir
    args = ["--config", str(config_path), "--campaign-dir", str(campaign_dir)]
    assert main(["index", *args]) == 0
    ledger = campaign_dir / "ledger.jsonl"
    ledger.write_text("not a usage entry\n" + ledger.read_text())
    capsys.readouterr()
    assert main(["resume", "--campaign-dir", str(campaign_dir)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {ledger}: line 1: Expecting value: line 1 column 1 (char 0)"
    ]


def test_compiler_that_cannot_start_exits_one_and_resumes(workdir, capsys, fixtures_dir):
    from ragfuzz.mocktool import write_mock_compiler

    config_path, campaign_dir = workdir
    cc = config_path.parent / "tools" / "mockcc"
    script = cc.read_text()
    cc.write_text("#!/nonexistent/sh\n" + script.split("\n", 1)[1])
    code = main(["run", "--config", str(config_path), "--campaign-dir", str(campaign_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [
        f"error: cc1: cannot start {cc}: the interpreter '/nonexistent/sh' that {cc} "
        "names is missing or not executable"
    ]
    # the probe stops the campaign before it bills anything or makes a case
    ledger = campaign_dir / "ledger.jsonl"
    assert not ledger.exists() or ledger.read_text() == ""
    assert not list(campaign_dir.glob("cases/*/case.json"))
    # once the compiler starts, the campaign resumes to the uninterrupted report
    write_mock_compiler(cc)
    assert main(["resume", "--campaign-dir", str(campaign_dir)]) == 0
    assert (campaign_dir / "report.json").read_bytes() == (
        fixtures_dir / "golden" / "tiny.report.json"
    ).read_bytes()


def test_seed_override_changes_effective_config(workdir):
    config_path, campaign_dir = workdir
    code = main(
        ["index", "--config", str(config_path), "--campaign-dir", str(campaign_dir),
         "--seed", "42"]
    )
    assert code == 0
    snapshot = json.loads((campaign_dir / "config.snapshot.json").read_text())
    assert snapshot["config"]["campaign"]["seed"] == 42
    # resuming under the original seed must refuse: different effective config
    code = main(["run", "--config", str(config_path), "--campaign-dir", str(campaign_dir)])
    assert code == 1


def _one_error_line(capsys, prefix: str) -> str:
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    return err


def _packaged_catalog() -> dict:
    from ragfuzz.pipeline import default_catalog
    from ragfuzz.records import to_record

    return to_record(default_catalog())


def _mock_pricing() -> dict:
    return {"as_of": "2024-06-01", "models": {
        "mock-llm": {"input_per_million": "30", "output_per_million": "60"},
        "mock-embedder": {"input_per_million": "0.10", "output_per_million": "0.10"},
    }}


def _without(record: dict, *path):
    node = record
    for key in path[:-1]:
        node = node[key]
    node.pop(path[-1])
    return record


# case -> (config key, record written to the file it names, expected message)
MALFORMED_FILES = {
    "catalog_missing_axis": (
        "generation.catalogs",
        lambda: _without(_packaged_catalog(), "optimization_features"),
        "optimization_features: is required",
    ),
    "catalog_empty_axis": (
        "generation.catalogs",
        lambda: dict(_packaged_catalog(), memory_access=[]),
        "memory_access: must be non-empty",
    ),
    "catalog_axis_not_a_list": (
        "generation.catalogs",
        lambda: dict(_packaged_catalog(), data_structures="1-D array"),
        "data_structures: expected a list, got str",
    ),
    "pricing_missing_rate": (
        "report.pricing",
        lambda: _without(_mock_pricing(), "models", "mock-llm", "output_per_million"),
        "models.mock-llm.output_per_million: is required",
    ),
    "pricing_rate_not_a_number": (
        "report.pricing",
        lambda: _mock_pricing() | {"models": {"mock-llm": {
            "input_per_million": "cheap", "output_per_million": "60"}}},
        "models.mock-llm.input_per_million: expected a finite decimal number, got 'cheap'",
    ),
    "pricing_rate_not_positive": (
        "report.pricing",
        lambda: _mock_pricing() | {"models": {"mock-llm": {
            "input_per_million": 0, "output_per_million": "60"}}},
        "models.mock-llm: rates must be positive",
    ),
    "scenario_entry_without_template_id": (
        "providers.scenario",
        lambda: _without(scenario_to_dict(build_tiny()), "llm_entries", 0, "template_id"),
        "llm_entries[0].template_id: is required",
    ),
    "scenario_entry_with_unknown_template": (
        "providers.scenario",
        lambda: scenario_to_dict(build_tiny()) | {"llm_entries": [
            {"template_id": "poetry", "match": {}, "responses": ["x"]}]},
        "scenario tiny: entry #0 has unknown template 'poetry'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_named_file_exits_one_before_the_campaign_dir_is_touched(
    workdir, capsys, case
):
    config_path, campaign_dir = workdir
    key, record, message = MALFORMED_FILES[case]
    named = config_path.parent / "named.json"
    named.write_text(json.dumps(record()))
    data = json.loads(config_path.read_text())
    section, field = key.split(".")
    data[section][field] = named.name
    config_path.write_text(json.dumps(data))
    code = main(["run", "--config", str(config_path), "--campaign-dir", str(campaign_dir)])
    assert code == 1
    _one_error_line(capsys, f"error: {key}: {message}\n")
    assert not campaign_dir.exists()


@pytest.mark.parametrize("key", ["generation.catalogs", "report.pricing"])
def test_unreadable_named_file_exits_one(workdir, capsys, key):
    config_path, campaign_dir = workdir
    data = json.loads(config_path.read_text())
    section, field = key.split(".")
    data[section][field] = "torn.json"
    config_path.write_text(json.dumps(data))
    args = ["run", "--config", str(config_path), "--campaign-dir", str(campaign_dir)]
    assert main(args) == 1
    _one_error_line(capsys, f"error: {key}: [Errno 2] No such file or directory")
    (config_path.parent / "torn.json").write_text('{"models": {')
    assert main(args) == 1
    _one_error_line(capsys, f"error: {key}: Expecting ")
    assert not campaign_dir.exists()


# case -> how the config snapshot is damaged, and the message after its path
BROKEN_SNAPSHOTS = {
    "torn": (lambda text: text[: len(text) // 2], "Unterminated string"),
    "without_base_dir": (
        lambda text: json.dumps(_without(json.loads(text), "base_dir")), "base_dir: is required"
    ),
    "without_config": (
        lambda text: json.dumps(_without(json.loads(text), "config")), "config: is required"
    ),
    "config_not_a_mapping": (
        lambda text: json.dumps(dict(json.loads(text), config=[1])),
        "config: expected a mapping, got list",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_SNAPSHOTS))
def test_broken_config_snapshot_fails_resume_with_exit_one(workdir, capsys, case):
    config_path, campaign_dir = workdir
    assert main(["index", "--config", str(config_path), "--campaign-dir", str(campaign_dir)]) == 0
    capsys.readouterr()
    snapshot = campaign_dir / "config.snapshot.json"
    damage, message = BROKEN_SNAPSHOTS[case]
    snapshot.write_text(damage(snapshot.read_text()))
    assert main(["resume", "--campaign-dir", str(campaign_dir)]) == 1
    assert message in _one_error_line(capsys, f"error: {snapshot}: ")


def test_torn_manifest_fails_resume_with_exit_one(workdir, capsys):
    config_path, campaign_dir = workdir
    assert main(["index", "--config", str(config_path), "--campaign-dir", str(campaign_dir)]) == 0
    capsys.readouterr()
    manifest = campaign_dir / "manifest.json"
    manifest.write_text(manifest.read_text()[:20])
    assert main(["resume", "--campaign-dir", str(campaign_dir)]) == 1
    _one_error_line(capsys, f"error: {manifest}: ")
