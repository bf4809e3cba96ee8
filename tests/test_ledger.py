from __future__ import annotations

import ast
import json
import re
import threading
from decimal import Decimal
from pathlib import Path

import pytest

import ragfuzz
from ragfuzz.errors import CorruptManifest, UnpricedModel
from ragfuzz.ledger import (
    CostLedger,
    ModelRate,
    PricingTable,
    RecordLog,
    UsageEntry,
    default_pricing,
    estimate_cost,
    format_dollars,
)
from ragfuzz.records import to_record

GPT4 = PricingTable({"gpt-4": ModelRate(Decimal("30"), Decimal("60"))})
GPT4O_RATES = PricingTable({"gpt-4": ModelRate(Decimal("5"), Decimal("15"))})


def entry_ledger(*usages: tuple[str, int, int]) -> CostLedger:
    ledger = CostLedger()
    for stage, tin, tout in usages:
        ledger.record(stage=stage, model_id="gpt-4", input_tokens=tin, output_tokens=tout)
    return ledger


def test_record_appends_in_call_order():
    ledger = entry_ledger(("codegen", 1, 2), ("repair", 3, 4), ("mutation", 5, 6))
    assert len(ledger) == 3
    assert [e.stage for e in ledger.entries()] == ["codegen", "repair", "mutation"]


def test_totals_are_additive():
    ledger = entry_ledger(("codegen", 10, 1), ("codegen", 20, 2), ("repair", 30, 3))
    assert ledger.total_tokens() == (60, 6)
    assert ledger.total_tokens({"codegen"}) == (30, 3)


def test_characteristics_phase_cost_matches_reported_value():
    ledger = entry_ledger(("characteristics", 77_608, 16_570))
    cost = estimate_cost(ledger.entries(), GPT4)
    assert cost == Decimal("3.32244")
    assert abs(cost - Decimal("3.3")) <= Decimal("0.05")
    assert format_dollars(cost) == "$3.32"


def test_generation_phase_cost_matches_reported_value():
    ledger = entry_ledger(("codegen", 893_349, 171_622))
    cost = estimate_cost(ledger.entries(), GPT4)
    assert cost == Decimal("37.09779")
    assert abs(cost - Decimal("37")) <= Decimal("0.15")


def test_alternate_model_rates_reproduce_cheaper_totals():
    # the cheaper-model figures imply $5/$15 per million tokens
    char = estimate_cost(entry_ledger(("characteristics", 77_608, 16_570)).entries(), GPT4O_RATES)
    gen = estimate_cost(entry_ledger(("codegen", 893_349, 171_622)).entries(), GPT4O_RATES)
    assert abs(char - Decimal("0.63")) <= Decimal("0.05")
    assert abs(gen - Decimal("7")) <= Decimal("0.05")


def test_zero_entries_cost_nothing():
    assert estimate_cost([], GPT4) == Decimal(0)


def test_cost_is_linear_and_stage_filter_partitions():
    a = entry_ledger(("codegen", 1000, 100))
    b = entry_ledger(("repair", 2000, 200), ("embedding", 50, 0))
    pricing = PricingTable(
        {
            "gpt-4": ModelRate(Decimal("30"), Decimal("60")),
        }
    )
    combined = a.entries() + b.entries()
    assert estimate_cost(combined, pricing) == estimate_cost(a.entries(), pricing) + estimate_cost(
        b.entries(), pricing
    )
    by_stage = sum(
        (
            estimate_cost(combined, pricing, stages={s})
            for s in ("characteristics", "codegen", "repair", "mutation", "embedding")
        ),
        Decimal(0),
    )
    assert by_stage == estimate_cost(combined, pricing)


def test_unpriced_model_raises():
    ledger = CostLedger()
    ledger.record(stage="codegen", model_id="mystery", input_tokens=1, output_tokens=1)
    with pytest.raises(UnpricedModel):
        estimate_cost(ledger.entries(), GPT4)


def test_negative_tokens_rejected():
    with pytest.raises(ValueError):
        CostLedger().record(stage="codegen", model_id="m", input_tokens=-1, output_tokens=0)


def test_persistence_round_trip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = CostLedger(path)
    ledger.record(stage="codegen", model_id="gpt-4", input_tokens=5, output_tokens=7)
    ledger.record(stage="embedding", model_id="mock-embedder", input_tokens=3, output_tokens=0)
    reloaded = CostLedger(path)
    assert reloaded.entries() == ledger.entries()
    # appending after reload goes on after the entries read back
    entry = reloaded.record(stage="repair", model_id="gpt-4", input_tokens=1, output_tokens=1)
    assert CostLedger(path).entries() == [*ledger.entries(), entry]


def test_concurrent_appends_never_lose_entries():
    ledger = CostLedger()

    def worker():
        for _ in range(100):
            ledger.record(stage="codegen", model_id="gpt-4", input_tokens=1, output_tokens=1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    entries = ledger.entries()
    assert len(entries) == 800
    assert ledger.total_tokens() == (800, 800)


def test_default_pricing_table_has_dated_gpt4_rates():
    pricing = default_pricing()
    rate = pricing.rate("gpt-4")
    assert rate.input_per_million == Decimal("30")
    assert rate.output_per_million == Decimal("60")
    assert pricing.as_of


def test_torn_final_line_is_dropped_and_next_record_appends_cleanly(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = CostLedger(path)
    for tokens in (1, 2, 3):
        ledger.record(stage="codegen", model_id="gpt-4", input_tokens=tokens, output_tokens=1)
    whole = path.read_bytes()
    path.write_bytes(whole[:-15])  # a kill tore the last append
    reloaded = CostLedger(path)
    assert reloaded.entries() == ledger.entries()[:2]
    entry = reloaded.record(stage="codegen", model_id="gpt-4", input_tokens=3, output_tokens=1)
    assert entry == ledger.entries()[2]
    assert path.read_bytes() == whole  # the torn tail was cut before the append
    assert CostLedger(path).entries() == ledger.entries()


def test_corrupt_inner_ledger_line_still_raises(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = CostLedger(path)
    ledger.record(stage="codegen", model_id="gpt-4", input_tokens=1, output_tokens=1)
    ledger.record(stage="repair", model_id="gpt-4", input_tokens=2, output_tokens=2)
    first, second = path.read_text().splitlines(keepends=True)
    path.write_text(first[:20] + "\n" + second)
    with pytest.raises(CorruptManifest, match=re.escape(f"{path}: line 1: ")) as exc:
        CostLedger(path)
    assert isinstance(exc.value.__cause__, ValueError)


def test_final_line_that_decodes_to_no_usage_record_is_dropped(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = CostLedger(path)
    ledger.record(stage="codegen", model_id="gpt-4", input_tokens=1, output_tokens=1)
    whole = path.read_bytes()
    path.write_bytes(whole + b'{"stage": "codegen"}\n')
    assert CostLedger(path).entries() == ledger.entries()
    assert path.read_bytes() == whole


def test_read_jsonl_decodes_line_by_line_without_holding_the_file(tmp_path):
    import json
    import tracemalloc

    from ragfuzz.ledger import read_jsonl

    path = tmp_path / "big.jsonl"
    line = json.dumps({"n": 0, "pad": "x" * 1000}) + "\n"
    count = 10 * 1024 * 1024 // len(line)
    path.write_text(line * count)
    size = path.stat().st_size
    decode = lambda raw: len(raw)  # noqa: E731 - a record far smaller than its line
    tracemalloc.start()
    try:
        records = read_jsonl(path, decode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records == [len(line)] * count
    assert peak < size / 8, (peak, size)


ENTRY = UsageEntry("codegen", "gpt-4", 1, 2)


def test_a_record_log_line_is_in_the_file_when_append_returns(tmp_path):
    # read through a handle of its own: the line is flushed, not left in a buffer
    path = tmp_path / "log.jsonl"
    log = RecordLog(path, UsageEntry)
    line = (json.dumps(to_record(ENTRY), sort_keys=True) + "\n").encode()
    for count in (1, 2):
        log.append(ENTRY)
        with open(path, "rb") as fh:
            assert fh.read() == line * count


def test_a_record_log_cuts_a_torn_tail_when_opened(tmp_path):
    path = tmp_path / "log.jsonl"
    with RecordLog(path, UsageEntry) as log:
        log.append(ENTRY)
    whole = path.read_bytes()
    path.write_bytes(whole + b'{"input_tokens": 1, "sta')  # a kill tore the next append
    log = RecordLog(path, UsageEntry)
    assert log.records == [ENTRY]
    assert path.read_bytes() == whole
    log.append(ENTRY)
    assert RecordLog(path, UsageEntry).records == [ENTRY, ENTRY]


def test_a_with_block_opens_its_log_and_a_bare_log_opens_at_its_first_append(tmp_path):
    RecordLog(tmp_path / "bare.jsonl", UsageEntry)
    assert not (tmp_path / "bare.jsonl").exists()
    with RecordLog(tmp_path / "scoped.jsonl", UsageEntry):
        pass
    assert (tmp_path / "scoped.jsonl").read_bytes() == b""


def _append_mode(call: ast.Call) -> bool:
    """Whether an open(...) or x.open(...) call passes a literal mode that appends."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name != "open":
        return False
    modes = [*call.args, *(k.value for k in call.keywords if k.arg == "mode")]
    return any(
        isinstance(m, ast.Constant) and isinstance(m.value, str)
        and set(m.value) <= set("rwaxbt+") and "a" in m.value
        for m in modes
    )


def test_only_record_log_opens_a_file_for_appending():
    # every append-only log of the package goes through RecordLog; the
    # embedding cache appends through os.open flags, which this does not match
    found = []
    for path in sorted(Path(ragfuzz.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> the innermost class it lies in
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            owner.update((node, cls.name) for node in ast.walk(cls))
        found += [
            (path.name, owner.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _append_mode(node)
        ]
    assert found == [("ledger.py", "RecordLog")]
