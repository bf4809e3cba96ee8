"""Token usage accounting, campaign cost estimation, the append-only
record log every campaign log is written through, and the write by rename
that replaces a campaign file whole.

Costs are computed in exact decimal arithmetic and rounded to cents only at
presentation time; the ledger itself is an append-only JSONL file so totals
can be recomputed from raw artifacts at any point.

Annotations here are evaluated at import, not postponed: the record codec
reads the pricing table's field types as objects when a campaign sets up.
"""
import json
import os
import threading
import weakref
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Callable

from .errors import CorruptManifest, RecordError, UnpricedModel
from .records import from_record, to_record

STAGES = ("characteristics", "codegen", "repair", "mutation", "embedding")


def read_jsonl(path: Path, decode: Callable[[bytes], object]) -> list:
    """Decode every line of an append-only JSONL file, mending a torn tail.

    A final line that ``decode`` rejects (ValueError, KeyError, TypeError or
    RecordError) was torn by a kill mid-append: it is cut from the file, so the next
    append starts a fresh line. A valid final line missing its newline gets
    one. Any other rejected line is corruption: CorruptManifest names it.

    Lines are decoded as they are read, so only the records stay in memory.
    A missing file holds no lines.
    """
    records: list = []
    if not Path(path).exists():
        return records
    kept, line, torn = 0, b"", None
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if torn is not None:  # the rejected line was not the last
                raise CorruptManifest(f"{path}: line {number - 1}: {torn}") from torn
            if line.strip():
                try:
                    records.append(decode(line))
                except (ValueError, KeyError, TypeError, RecordError) as exc:
                    torn = exc
                    continue
            kept += len(line)
    if torn is not None or (line and not line.endswith(b"\n")):
        with open(path, "r+b") as fh:
            if torn is not None:
                fh.truncate(kept)
            else:
                fh.seek(0, os.SEEK_END)
                fh.write(b"\n")
    return records


def write_text(path: Path, text: str) -> None:
    """Write text to path by rename: a kill leaves the old file or the new
    one, never a truncated one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class RecordLog:
    """An append-only JSONL file of records of type cls, one per line.

    Opening the log reads it through read_jsonl, so a line torn by a kill
    mid-append is cut and the next append starts a fresh line; records holds
    what the file held then. Each append writes one sort_keys JSON line of
    to_record(record) and flushes it, under one lock, so a kill loses at
    most the line being written and concurrent appends never interleave.

    The file is opened once, by a with block or else at the first append,
    and closed at the end of the with block or when the log is collected.
    """

    def __init__(self, path: Path, cls: type):
        self.path = Path(path)
        self.records = read_jsonl(self.path, lambda line: from_record(cls, json.loads(line)))
        self._lock = threading.Lock()
        self._fh = None

    def _open(self):  # under the lock
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
            weakref.finalize(self, self._fh.close)
        return self._fh

    def append(self, record) -> None:
        line = json.dumps(to_record(record), sort_keys=True) + "\n"
        with self._lock:
            fh = self._open()
            fh.write(line)
            fh.flush()

    def __enter__(self) -> "RecordLog":
        with self._lock:
            self._open()
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._fh.close()


@dataclass(frozen=True)
class UsageEntry:
    """One ledger line: a provider call the campaign billed. An LLM call also
    keeps its prompt's template and sha256 and the model's response; an
    embedding call names no prompt, and its line holds none of those keys."""

    stage: str
    model_id: str
    input_tokens: int
    output_tokens: int
    approximate: bool = False
    template_id: str = ""
    prompt_sha256: str = ""
    response: str = ""


@dataclass(frozen=True)
class ModelRate:
    input_per_million: Decimal
    output_per_million: Decimal


@dataclass(frozen=True)
class PricingTable:
    """model_id -> per-million-token rates, the record of a versioned data file."""

    models: dict[str, ModelRate]
    as_of: str = ""

    def __post_init__(self):
        for model_id, rate in self.models.items():
            if rate.input_per_million <= 0 or rate.output_per_million <= 0:
                raise RecordError(f"models.{model_id}", "rates must be positive")

    def rate(self, model_id: str) -> ModelRate:
        try:
            return self.models[model_id]
        except KeyError:
            raise UnpricedModel(model_id) from None


def default_pricing() -> PricingTable:
    from importlib.resources import files

    return from_record(
        PricingTable, json.loads(files("ragfuzz").joinpath("data/pricing.json").read_text())
    )


class CostLedger:
    """Append-only usage log; safe to feed from many worker threads.

    With a path, entries go to a RecordLog, so reopening the ledger drops a
    final line torn by a kill mid-append.
    """

    def __init__(self, path: Path | None = None):
        self._log = RecordLog(path, UsageEntry) if path else None
        self._entries: list[UsageEntry] = list(self._log.records) if self._log else []
        self._lock = threading.Lock()

    def record(
        self,
        stage: str,
        model_id: str,
        input_tokens: int,
        output_tokens: int,
        approximate: bool = False,
        template_id: str = "",
        prompt_sha256: str = "",
        response: str = "",
    ) -> UsageEntry:
        if input_tokens < 0 or output_tokens < 0:
            raise ValueError("token counts must be >= 0")
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        entry = UsageEntry(
            stage, model_id, input_tokens, output_tokens, approximate,
            template_id, prompt_sha256, response,
        )
        line = to_record(entry)
        if not template_id:
            del line["template_id"], line["prompt_sha256"], line["response"]
        with self._lock:
            self._entries.append(entry)
            if self._log:
                self._log.append(line)
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
) -> Decimal:
    """Exact dollar cost of the selected entries.

    cost = sum(input_tokens * in_rate + output_tokens * out_rate) / 1e6, kept
    as a Decimal; round only when formatting.
    """
    total = Decimal(0)
    for entry in entries:
        if stages is not None and entry.stage not in stages:
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
