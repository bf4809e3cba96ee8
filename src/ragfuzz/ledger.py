"""Token usage accounting and campaign cost estimation.

Costs are computed in exact decimal arithmetic and rounded to cents only at
presentation time; the ledger itself is an append-only JSONL file so totals
can be recomputed from raw artifacts at any point.
"""
from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from decimal import Decimal
from pathlib import Path
from typing import Callable, TypeVar

from .errors import UnpricedModel

STAGES = ("characteristics", "codegen", "repair", "mutation", "embedding")

T = TypeVar("T")


def read_jsonl(path: Path, decode: Callable[[bytes], T]) -> list[T]:
    """Decode every line of an append-only JSONL file, mending a torn tail.

    A final line that ``decode`` rejects (ValueError, KeyError or TypeError)
    was torn by a kill mid-append: it is cut from the file, so the next
    append starts a fresh line. A valid final line missing its newline gets
    one. A line that fails anywhere else is corruption and raises.
    """
    data = Path(path).read_bytes()
    lines = data.splitlines(keepends=True)
    records: list[T] = []
    kept = len(data)
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(decode(line))
        except (ValueError, KeyError, TypeError):
            if i < len(lines) - 1:
                raise
            kept -= len(line)
    if kept < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(kept)
    elif data and not data.endswith(b"\n"):
        with open(path, "ab") as fh:
            fh.write(b"\n")
    return records


@dataclass(frozen=True)
class UsageEntry:
    call_id: int
    stage: str
    model_id: str
    input_tokens: int
    output_tokens: int
    approximate: bool = False


@dataclass(frozen=True)
class ModelRate:
    input_per_million: Decimal
    output_per_million: Decimal


class PricingTable:
    """model_id -> per-million-token rates, loaded from a versioned data file."""

    def __init__(self, rates: dict[str, ModelRate], as_of: str = ""):
        for model_id, rate in rates.items():
            if rate.input_per_million <= 0 or rate.output_per_million <= 0:
                raise ValueError(f"rates must be positive for {model_id}")
        self.rates = dict(rates)
        self.as_of = as_of

    @classmethod
    def from_dict(cls, data: dict) -> "PricingTable":
        rates = {
            model_id: ModelRate(
                input_per_million=Decimal(str(spec["input_per_million"])),
                output_per_million=Decimal(str(spec["output_per_million"])),
            )
            for model_id, spec in data.get("models", {}).items()
        }
        return cls(rates, as_of=data.get("as_of", ""))

    @classmethod
    def load(cls, path: Path) -> "PricingTable":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def rate(self, model_id: str) -> ModelRate:
        try:
            return self.rates[model_id]
        except KeyError:
            raise UnpricedModel(model_id) from None


def default_pricing() -> PricingTable:
    from importlib.resources import files

    return PricingTable.from_dict(
        json.loads(files("ragfuzz").joinpath("data/pricing.json").read_text())
    )


class CostLedger:
    """Append-only usage log; safe to feed from many worker threads.

    Reopening the log drops a final line torn by a kill mid-append.
    """

    def __init__(self, path: Path | None = None):
        self._entries: list[UsageEntry] = []
        self._lock = threading.Lock()
        self._path = Path(path) if path else None
        if self._path and self._path.exists():
            self._entries = read_jsonl(
                self._path, lambda line: UsageEntry(**json.loads(line))
            )

    def record(
        self,
        stage: str,
        model_id: str,
        input_tokens: int,
        output_tokens: int,
        approximate: bool = False,
    ) -> UsageEntry:
        if input_tokens < 0 or output_tokens < 0:
            raise ValueError("token counts must be >= 0")
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        with self._lock:
            entry = UsageEntry(
                call_id=len(self._entries),
                stage=stage,
                model_id=model_id,
                input_tokens=input_tokens,
                output_tokens=output_tokens,
                approximate=approximate,
            )
            self._entries.append(entry)
            if self._path:
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(asdict(entry), sort_keys=True) + "\n")
        return entry

    def entries(self) -> list[UsageEntry]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def total_tokens(self, stages: set[str] | None = None) -> tuple[int, int]:
        picked = [e for e in self.entries() if stages is None or e.stage in stages]
        return (
            sum(e.input_tokens for e in picked),
            sum(e.output_tokens for e in picked),
        )


def estimate_cost(
    entries: list[UsageEntry],
    pricing: PricingTable,
    stages: set[str] | None = None,
    models: set[str] | None = None,
) -> Decimal:
    """Exact dollar cost of the selected entries.

    cost = sum(input_tokens * in_rate + output_tokens * out_rate) / 1e6, kept
    as a Decimal; round only when formatting.
    """
    total = Decimal(0)
    for entry in entries:
        if stages is not None and entry.stage not in stages:
            continue
        if models is not None and entry.model_id not in models:
            continue
        rate = pricing.rate(entry.model_id)
        total += (
            entry.input_tokens * rate.input_per_million
            + entry.output_tokens * rate.output_per_million
        ) / Decimal(1_000_000)
    return total


def format_dollars(amount: Decimal) -> str:
    """Presentation rounding: cents, half-up."""
    from decimal import ROUND_HALF_UP

    return f"${amount.quantize(Decimal('0.01'), rounding=ROUND_HALF_UP)}"
