from __future__ import annotations

import json

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
    code = main(["index", "--config", str(config_path), "--campaign-dir", str(campaign_dir)])
    assert code == 0
    assert (campaign_dir / "index" / "meta.json").exists()
    assert not (campaign_dir / "report.json").exists()


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


def test_compiler_that_cannot_start_exits_one_and_resumes(workdir, capsys, fixtures_dir):
    from ragfuzz.mocktool import write_mock_compiler

    config_path, campaign_dir = workdir
    cc = config_path.parent / "tools" / "mockcc"
    script = cc.read_text()
    cc.write_text("#!/nonexistent/python3 -IS\n" + script.split("\n", 1)[1])
    code = main(["run", "--config", str(config_path), "--campaign-dir", str(campaign_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [
        f"error: cc1: cannot start {cc}: [Errno 2] No such file or directory: '{cc}'"
    ]
    cases = [json.loads(p.read_text()) for p in campaign_dir.glob("cases/*/case.json")]
    assert cases and all(case["status"] == "draft" for case in cases)
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
