from __future__ import annotations

import json

import pytest

from ragfuzz.errors import OpenWorldKey, UnknownScenario
from ragfuzz.mocktool import source_digest
from ragfuzz.providers import ScriptEntry
from ragfuzz.scenarios import (
    Scenario,
    build_tiny,
    load_scenario,
    materialize_scenario,
    seed_case_id,
)


def build_paper_shape() -> Scenario:
    """Counts-only scenario mirroring the reported campaign partition
    (269 generated = 152 compiled + 117 failed), used as a schema exercise."""
    return Scenario(
        scenario_id="paper-shape",
        input_files={},
        expected_report={
            "per_pass": {
                "AllPasses": {
                    "functions": 27,
                    "characteristics": 27,
                    "generated": 269,
                    "compiled": 152,
                    "failed": 117,
                    "abandoned": 0,
                }
            }
        },
    )


def test_load_tiny_scenario():
    scenario = load_scenario("tiny")
    assert scenario.scenario_id == "tiny"
    assert scenario.llm_entries
    assert scenario.tool_table
    assert scenario.expected_report is not None


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        load_scenario("does-not-exist")


def test_scenario_validation_rejects_empty_responses():
    bad = Scenario(
        scenario_id="bad",
        input_files={},
        llm_entries=[ScriptEntry("codegen", {"pass_name": "*"}, [])],
    )
    with pytest.raises(OpenWorldKey):
        bad.validate()


def test_scenario_validation_rejects_unknown_template():
    bad = Scenario(
        scenario_id="bad",
        input_files={},
        llm_entries=[ScriptEntry("poetry", {"a": "*"}, ["x"])],
    )
    with pytest.raises(OpenWorldKey):
        bad.validate()


def test_scenario_validation_rejects_bad_table_keys():
    bad = Scenario(scenario_id="bad", input_files={}, tool_table={"nothex": {}})
    with pytest.raises(OpenWorldKey):
        bad.validate()


def test_scenario_json_round_trip(tmp_path):
    from ragfuzz.scenarios import scenario_to_dict

    scenario = build_tiny()
    path = tmp_path / "tiny_copy.json"
    path.write_text(json.dumps(scenario_to_dict(scenario)))
    loaded = load_scenario(str(path))
    assert loaded.scenario_id == "tiny"
    assert len(loaded.llm_entries) == len(scenario.llm_entries)
    assert loaded.tool_table == scenario.tool_table
    assert scenario_to_dict(loaded) == scenario_to_dict(scenario)


def test_materialize_writes_inputs_and_tools(tmp_path):
    scenario = build_tiny()
    config_path = materialize_scenario(scenario, tmp_path)
    assert config_path.exists()
    assert (tmp_path / "inputs" / "device_globals_pass.cpp").exists()
    assert (tmp_path / "tools" / "mockcc").exists()
    table = json.loads((tmp_path / "tools" / "table.json").read_text())
    assert table == scenario.tool_table


def test_tiny_tool_table_covers_every_scripted_source():
    scenario = build_tiny()
    # every fenced source in an LLM response must have a tool-table entry
    fenced = []
    for entry in scenario.llm_entries:
        if entry.template_id in ("codegen", "repair", "mutation"):
            for response in entry.responses:
                payload = response.split("```cpp\n", 1)[1].rsplit("```", 1)[0]
                fenced.append(payload)
    for source in fenced:
        assert source_digest(source) in scenario.tool_table


def test_paper_shape_partition_arithmetic():
    from oracles import validate_partition

    scenario = build_paper_shape()
    counts = scenario.expected_report["per_pass"]["AllPasses"]
    assert counts["generated"] == 269
    assert counts["compiled"] == 152
    assert counts["failed"] == 117
    assert counts["compiled"] + counts["failed"] == counts["generated"]
    assert validate_partition(scenario.expected_report["per_pass"])


def test_seed_case_id_format():
    assert seed_case_id("DeviceGlobals", 0, 0) == "DeviceGlobals.f0.s0"
    assert seed_case_id("LowerWGScope", 3, 2) == "LowerWGScope.f3.s2"
