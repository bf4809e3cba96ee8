from __future__ import annotations

import json

import pytest
from test_campaign import MALFORMED

from ragfuzz.cli import main
from ragfuzz.scenarios import build_tiny, materialize_scenario


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
