"""The record codec against artifacts written by an earlier release.

Every file under fixtures/golden/records was written by the campaign code
that hand-wrote each record type field by field; decoding and re-encoding
it must give the same bytes, so a campaign directory from that release
resumes unchanged.
"""
from __future__ import annotations

import json

import pytest

from ragfuzz.difftest import Discrepancy
from ragfuzz.errors import RecordError
from ragfuzz.extraction import DefinitionKind, PassFunction
from ragfuzz.pipeline import CaseStatus, Characteristics, TestCase
from ragfuzz.records import from_record, to_record
from ragfuzz.toolchain import CellKey, CompileResult, RunResult, RunStatus

# fixture file -> the type it holds
RECORDS = {
    "case.json": TestCase,
    "functions.json": list[PassFunction],
    "characteristics.json": Characteristics,
    "compile.json": CompileResult,
    "run.json": RunResult,
}


@pytest.fixture(scope="module")
def records_dir(fixtures_dir):
    return fixtures_dir / "golden" / "records"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_artifact_record_round_trips_byte_for_byte(records_dir, name):
    text = (records_dir / name).read_text()
    obj = from_record(RECORDS[name], json.loads(text))
    assert json.dumps(to_record(obj), indent=2, sort_keys=True) + "\n" == text


def test_findings_line_round_trips_byte_for_byte(records_dir):
    line = (records_dir / "finding.jsonl").read_text()
    finding = from_record(Discrepancy, json.loads(line))
    assert finding.witness.cell_b == CellKey("cc2", "mock-spir", "-O0", "devB")
    assert json.dumps(to_record(finding), sort_keys=True) + "\n" == line


def test_records_decode_to_typed_fields(records_dir):
    case = from_record(TestCase, json.loads((records_dir / "case.json").read_text()))
    assert case.status is CaseStatus.COMPILES
    assert case.selection.seed == 15960006229321651428
    assert case.repair_transcript[0].error.startswith("error: use of undeclared")
    functions = from_record(
        list[PassFunction], json.loads((records_dir / "functions.json").read_text())
    )
    assert functions[0].kind is DefinitionKind.FUNCTION
    assert isinstance(functions[0].line_span, tuple)
    run = from_record(RunResult, json.loads((records_dir / "run.json").read_text()))
    assert (run.status, run.exit_code) == (RunStatus.CRASH_SIGNAL, -6)


def test_case_without_late_fields_takes_their_defaults(records_dir):
    record = json.loads((records_dir / "case_legacy.json").read_text())
    assert "repair_transcript" not in record and "abandon_reason" not in record
    case = from_record(TestCase, record)
    assert case.repair_transcript == []
    assert case.abandon_reason == ""
    assert case.status is CaseStatus.COMPILES


def test_missing_required_field_names_its_path():
    record = to_record(RunResult("c", CellKey("cc1", "t", "-O0"), RunStatus.OK, 0, "", "", 0.1))
    del record["cell"]["compiler_id"]
    with pytest.raises(RecordError) as exc:
        from_record(RunResult, record)
    assert exc.value.field_path == "cell.compiler_id"


def test_tiny_report_is_byte_identical_to_golden(tiny_campaign, fixtures_dir):
    got = (tiny_campaign.campaign_dir / "report.json").read_bytes()
    assert got == (fixtures_dir / "golden" / "tiny.report.json").read_bytes()
