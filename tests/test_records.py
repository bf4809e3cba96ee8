"""The record codec against artifacts written by an earlier release.

Every file under fixtures/golden/records was written by code that
hand-wrote each record type field by field, but for the new-format line of
embeddings.cache.jsonl and batches.jsonl, and for ledger.jsonl, compile.json
and run.json, which pin the bytes of their records as written now;
decoding and re-encoding a file must give the same bytes, so a campaign
directory from that release resumes unchanged. The ``*_legacy`` files hold
lines of an older shape, whose fields since dropped are read past.
scenario.tiny.json is the built-in ``tiny`` scenario as that release wrote
it: an entry without usages has no ``usages`` key.
"""
from __future__ import annotations

import json
import os
from decimal import Decimal

import numpy as np
import pytest

from ragfuzz.campaign import ResultLine, resume
from ragfuzz.difftest import Discrepancy
from ragfuzz.errors import RecordError
from ragfuzz.extraction import DefinitionKind, PassFunction
from ragfuzz.ledger import CostLedger, PricingTable, RecordLog, UsageEntry
from ragfuzz.pipeline import CaseStatus, Characteristics, TestCase
from ragfuzz.providers import EmbeddingService, HashEmbedder
from ragfuzz.rag import Chunk, IndexBatch, VectorIndex
from ragfuzz.records import from_record, to_record
from ragfuzz.scenarios import build_tiny, load_scenario
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
    record = to_record(RunResult("c", CellKey("cc1", "t", "-O0"), RunStatus.OK, 0, "", ""))
    del record["cell"]["compiler_id"]
    with pytest.raises(RecordError) as exc:
        from_record(RunResult, record)
    assert exc.value.field_path == "cell.compiler_id"


def test_decimal_fields_keep_their_written_digits():
    pricing = from_record(
        PricingTable,
        {"models": {"m": {"input_per_million": 0.1, "output_per_million": "2.50"}}},
    )
    rate = pricing.rate("m")
    assert (rate.input_per_million, rate.output_per_million) == (Decimal("0.1"), Decimal("2.50"))
    assert str(rate.output_per_million) == "2.50"
    with pytest.raises(RecordError) as exc:
        from_record(PricingTable, {"models": {"m": {"input_per_million": 1}}})
    assert exc.value.field_path == "models.m.output_per_million"
    for bad in ("NaN", "Infinity", "cheap", None, [1]):
        with pytest.raises(RecordError) as exc:
            from_record(dict[str, Decimal], {"a": "1.5", "b": bad})
        assert exc.value.field_path == "b"


def test_tiny_report_is_byte_identical_to_golden(tiny_campaign, fixtures_dir):
    got = (tiny_campaign.campaign_dir / "report.json").read_bytes()
    assert got == (fixtures_dir / "golden" / "tiny.report.json").read_bytes()


def test_ledger_lines_round_trip_byte_for_byte(records_dir, tmp_path):
    # lines without prompt keys, as an embedding call writes, then an LLM call's
    text = (records_dir / "ledger.jsonl").read_text()
    path = tmp_path / "ledger.jsonl"
    path.write_text(text)
    entries = CostLedger(path).entries()
    assert [e.template_id for e in entries] == ["", "", "characteristics"]
    assert path.read_text() == text  # loading rewrote nothing
    fresh = CostLedger(tmp_path / "fresh.jsonl")
    for entry in entries:
        fresh.record(**vars(entry))
    assert (tmp_path / "fresh.jsonl").read_text() == text


def test_a_ledger_line_with_a_call_id_decodes_and_new_lines_take_the_new_shape(
    records_dir, tmp_path
):
    text = (records_dir / "ledger_legacy.jsonl").read_text()
    assert '"call_id"' in text
    path = tmp_path / "ledger.jsonl"
    path.write_text(text)
    ledger = CostLedger(path)
    assert ledger.entries() == [UsageEntry("characteristics", "mock-llm", 477, 37, True)]
    new = (records_dir / "ledger.jsonl").read_text().splitlines(keepends=True)[-1]
    ledger.record(**vars(from_record(UsageEntry, json.loads(new))))
    assert path.read_text() == text + new


def test_a_results_line_with_a_duration_and_a_binary_path_resumes_with_lines_of_the_new_shape(
    records_dir, tiny_campaign, tmp_path
):
    import shutil

    # the line holds the path the binary had in a directory since moved
    legacy = (records_dir / "results_legacy.jsonl").read_text()
    assert not os.path.exists(json.loads(legacy)["compile"]["binary_path"])
    clone = tmp_path / "clone"
    shutil.copytree(tiny_campaign.campaign_dir, clone)
    log = clone / "cases" / "DeviceGlobals.f1.s0" / "results.jsonl"
    whole = log.read_text().splitlines(keepends=True)
    assert RecordLog(log, ResultLine).records[0] == from_record(ResultLine, json.loads(legacy))
    log.write_text(legacy)  # a kill just after the first compile of an older release
    (clone / "findings.jsonl").unlink()
    (clone / "report.json").unlink()
    resume(clone)
    assert log.read_text() == legacy + "".join(whole[1:])
    golden = (tiny_campaign.campaign_dir / "report.json").read_bytes()
    assert (clone / "report.json").read_bytes() == golden


def test_chunk_manifest_round_trips_byte_for_byte(records_dir, tmp_path):
    text = (records_dir / "chunks.jsonl").read_text()
    saved = tmp_path / "saved"
    saved.mkdir()
    (saved / VectorIndex.MANIFEST).write_text(text)
    count = len(text.splitlines())
    (saved / VectorIndex.META).write_text(json.dumps({"count": count, "dim": 3}))
    np.save(saved / VectorIndex.MATRIX, np.ones((count, 3)))
    index = VectorIndex.load(saved)
    assert index._chunks[0].text.startswith("# Device global variables\n")
    VectorIndex(directory=tmp_path / "again").index_chunks(index._chunks, HashEmbedder(dim=3))
    assert (tmp_path / "again" / VectorIndex.MANIFEST).read_text() == text


def test_embedding_cache_lines_of_both_formats_decode_and_a_new_line_keeps_its_bytes(
    records_dir, tmp_path
):
    # a {"hash", "vector"} line of an earlier release, then an {"f64", "hash"} line
    text = (records_dir / "embeddings.cache.jsonl").read_text()
    path = tmp_path / "embeddings.cache.jsonl"
    path.write_text(text)
    embedder, ledger = HashEmbedder(dim=4), CostLedger()
    service = EmbeddingService(embedder, ledger, cache_path=path)
    for query in ("a query of an older campaign", "a query"):
        assert service.embed_text(query).tobytes() == embedder.embed_text(query).tobytes()
    assert len(ledger) == 0
    assert path.read_text() == text  # loading rewrote nothing
    fresh = tmp_path / "fresh.jsonl"
    EmbeddingService(embedder, CostLedger(), cache_path=fresh).embed_text("a query")
    assert fresh.read_text() == text.splitlines(keepends=True)[-1]


def test_index_batch_line_round_trips_byte_for_byte(records_dir, tmp_path):
    text = (records_dir / "batches.jsonl").read_text()
    chunks = [Chunk("d#0", "d", "alpha", 0), Chunk("d#1", "d", "beta", 1)]
    VectorIndex(directory=tmp_path).index_chunks(chunks, HashEmbedder(dim=4))
    assert (tmp_path / VectorIndex.BATCHES).read_text() == text
    assert [b.texts for b in RecordLog(tmp_path / VectorIndex.BATCHES, IndexBatch).records] == [2]


def test_scenario_file_of_an_earlier_release_loads_to_an_equal_scenario(records_dir):
    path = records_dir / "scenario.tiny.json"
    assert '"usages"' not in path.read_text()
    assert load_scenario(str(path)) == build_tiny()
