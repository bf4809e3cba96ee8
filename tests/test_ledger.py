from __future__ import annotations

import threading
from decimal import Decimal

import pytest

from ragfuzz.errors import UnpricedModel
from ragfuzz.ledger import (
    CostLedger,
    ModelRate,
    PricingTable,
    default_pricing,
    estimate_cost,
    format_dollars,
)

GPT4 = PricingTable({"gpt-4": ModelRate(Decimal("30"), Decimal("60"))})
GPT4O_RATES = PricingTable({"gpt-4": ModelRate(Decimal("5"), Decimal("15"))})


def entry_ledger(*usages: tuple[str, int, int]) -> CostLedger:
    ledger = CostLedger()
    for stage, tin, tout in usages:
        ledger.record(stage=stage, model_id="gpt-4", input_tokens=tin, output_tokens=tout)
    return ledger


def test_record_appends_with_monotone_ids():
    ledger = entry_ledger(("codegen", 1, 2), ("repair", 3, 4), ("mutation", 5, 6))
    assert len(ledger) == 3
    assert [e.call_id for e in ledger.entries()] == [0, 1, 2]


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
    # appending after reload keeps call ids monotone
    entry = reloaded.record(stage="repair", model_id="gpt-4", input_tokens=1, output_tokens=1)
    assert entry.call_id == 2


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
    assert sorted(e.call_id for e in entries) == list(range(800))


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
    assert entry.call_id == 2
    assert path.read_bytes() == whole  # the torn tail was cut before the append
    assert CostLedger(path).entries() == ledger.entries()


def test_corrupt_inner_ledger_line_still_raises(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = CostLedger(path)
    ledger.record(stage="codegen", model_id="gpt-4", input_tokens=1, output_tokens=1)
    ledger.record(stage="repair", model_id="gpt-4", input_tokens=2, output_tokens=2)
    first, second = path.read_text().splitlines(keepends=True)
    path.write_text(first[:20] + "\n" + second)
    with pytest.raises(ValueError):
        CostLedger(path)
