"""The record codec against artifacts written by an earlier release.

Every file under fixtures/golden/records was written by code that
hand-wrote each record type field by field, but for the new-format line of
embeddings.cache.jsonl and batches.jsonl, which pin the bytes of their
record logs; decoding and re-encoding a file must give the same bytes, so
a campaign directory from that release resumes unchanged. scenario.tiny.json is the built-in ``tiny`` scenario as
that release wrote it: an entry without usages has no ``usages`` key.
"""
from __future__ import annotations

import json
from decimal import Decimal

import numpy as np
import pytest

from ragfuzz.campaign import Exchange
from ragfuzz.difftest import Discrepancy
from ragfuzz.errors import RecordError
from ragfuzz.extraction import DefinitionKind, PassFunction
from ragfuzz.ledger import CostLedger, PricingTable, RecordLog
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
    record = to_record(RunResult("c", CellKey("cc1", "t", "-O0"), RunStatus.OK, 0, "", "", 0.1))
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
    text = (records_dir / "ledger.jsonl").read_text()
    path = tmp_path / "ledger.jsonl"
    path.write_text(text)
    entries = CostLedger(path).entries()
    assert [json.dumps(to_record(e), sort_keys=True) + "\n" for e in entries] == (
        text.splitlines(keepends=True)
    )
    assert path.read_text() == text  # loading rewrote nothing
    # the last line was the first record of a fresh ledger
    fresh = tmp_path / "fresh.jsonl"
    last = entries[-1]
    CostLedger(fresh).record(
        last.stage, last.model_id, last.input_tokens, last.output_tokens, last.approximate
    )
    assert fresh.read_text() == text.splitlines(keepends=True)[-1]


def test_exchange_lines_round_trip_byte_for_byte(records_dir, tmp_path):
    # lines the campaign wrote as plain dicts, before exchanges had a record type
    text = (records_dir / "exchanges.jsonl").read_text()
    path = tmp_path / "exchanges.jsonl"
    path.write_text(text)
    exchanges = RecordLog(path, Exchange).records
    assert [e.template_id for e in exchanges] == ["characteristics", "codegen", "repair"]
    assert path.read_text() == text  # loading rewrote nothing
    fresh = RecordLog(tmp_path / "fresh.jsonl", Exchange)
    for exchange in exchanges:
        fresh.append(exchange)
    assert fresh.path.read_text() == text


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
