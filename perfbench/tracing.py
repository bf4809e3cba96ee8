"""Span tracing installed from outside ragfuzz, and the per-layer metrics.

The tracer wraps public ragfuzz callables in place. Each call records one
span: name, start, end, parent span, thread and case id. Spans nest per
thread; a span without a case id of its own inherits its parent's. Spans
stay in memory until the caller writes them out.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

# campaign.py looks these names up in its own namespace on every call, so
# patching the module attribute reaches every call site.
CAMPAIGN_FUNCTIONS = ("extract_functions", "chunk_document", "compile_job", "run_job", "classify")

STAGES = (
    "extract", "index", "characteristics", "generate", "repair",
    "mutate", "repair_mutants", "matrix", "classify", "report",
)

# span name -> layer (ragfuzz module that does the work)
LAYER_OF = {
    "extract_functions": "extraction",
    "chunk_document": "rag",
    "VectorIndex.retrieve": "rag",
    "VectorIndex.index_chunks": "rag",
    "VectorIndex.load": "rag",
    "LLMService.llm_complete": "providers",
    "EmbeddingService.embed_text": "providers",
    "EmbeddingService.__init__": "providers",
    "HashEmbedder.embed_text": "providers",
    "PromptFactory.render": "prompts",
    "GenerationPipeline.repair_loop": "pipeline",
    "compile_job": "toolchain",
    "run_job": "toolchain",
    "classify": "difftest",
    "CostLedger.record": "ledger",
    "CampaignStore.all_cases": "campaign",
    "CampaignStore.save_case": "campaign",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

# Which end-to-end metric each layer should move, on which workload.
PREDICTIONS = {
    "rag": "campaign_s, harness_cpu_s on generate; nothing on sweep",
    "providers": "campaign_s, peak_rss_mb on generate",
    "prompts": "harness_cpu_s on generate (expected small)",
    "pipeline": "tokens_per_compiled_case, campaign_s on generate",
    "toolchain": "campaign_s on sweep; campaign_s on generate via the gate",
    "difftest": "campaign_s on sweep",
    "ledger": "harness_cpu_s on generate",
    "extraction": "campaign_s on generate (expected small)",
    "campaign": "campaign_s on every workload",
}

# Timings are reported as the median and p90, pooled over at least three
# traced runs: the workload a layer serves then gives each percentile more
# than 100 samples, so p90 has at least ten beyond it.
METRICS: tuple[tuple[str, str], ...] = (
    ("rag.retrieve.calls", "count"),
    ("rag.retrieve.p50_ms", "ms"),
    ("rag.retrieve.p90_ms", "ms"),
    ("rag.retrieve.busy_s", "s"),
    ("rag.retrieve.hit_ratio", "ratio"),
    ("rag.index_s", "s"),
    ("rag.chunk_s", "s"),
    ("rag.load_s", "s"),
    ("providers.llm.calls", "count"),
    ("providers.llm.busy_s", "s"),
    ("providers.llm.retries", "count"),
    ("providers.embed.calls", "count"),
    ("providers.embed.backend_calls", "count"),
    ("providers.embed.hit_ratio", "ratio"),
    ("providers.embed.busy_s", "s"),
    ("providers.embed.cache_load_s", "s"),
    ("prompts.render.calls", "count"),
    ("prompts.render.busy_s", "s"),
    ("pipeline.repair.cases", "count"),
    ("pipeline.repair.attempts", "count"),
    ("pipeline.repair.success_ratio", "ratio"),
    ("pipeline.repair.self_s", "s"),
    ("toolchain.gate.calls", "count"),
    ("toolchain.gate.p50_ms", "ms"),
    ("toolchain.compile.calls", "count"),
    ("toolchain.compile.p50_ms", "ms"),
    ("toolchain.compile.p90_ms", "ms"),
    ("toolchain.run.calls", "count"),
    ("toolchain.run.p50_ms", "ms"),
    ("toolchain.run.p90_ms", "ms"),
    ("toolchain.busy_s", "s"),
    ("toolchain.concurrency", "ratio"),
    ("toolchain.child_cpu_s", "s"),
    ("difftest.classify.calls", "count"),
    ("difftest.classify.busy_s", "s"),
    ("difftest.findings", "count"),
    ("ledger.record.calls", "count"),
    ("ledger.record.busy_s", "s"),
    ("extraction.functions", "count"),
    ("extraction.busy_s", "s"),
    *((f"campaign.stage.{stage}_s", "s") for stage in STAGES),
    ("campaign.all_cases.calls", "count"),
    ("campaign.all_cases.busy_s", "s"),
    ("campaign.save_case.calls", "count"),
    *((f"self_share.{layer}", "ratio") for layer in LAYERS),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    thread: int
    case_id: str | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _case_id(bound: dict) -> str | None:
    for key in ("case", "job", "matrix"):
        value = bound.get(key)
        if value is not None and hasattr(value, "case_id"):
            return value.case_id
    return None


# span name -> attributes recorded from (bound arguments, result)
_NOTES = {
    "VectorIndex.retrieve": lambda a, r: {"returned": len(r), "k": a["k"]},
    "LLMService.llm_complete": lambda a, r: {"retries": r.attempts - 1},
    "GenerationPipeline.repair_loop": lambda a, r: {
        "attempts": r.attempts, "succeeded": r.succeeded,
    },
    "classify": lambda a, r: {"findings": len(r)},
    "extract_functions": lambda a, r: {"functions": len(r)},
}
_BOUND = {"GenerationPipeline.repair_loop", "compile_job", "run_job", "classify",
          "CampaignStore.save_case", "VectorIndex.retrieve"}


class Tracer:
    """Installs span-recording wrappers; `uninstall` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import ragfuzz.campaign as campaign
        from ragfuzz.campaign import CampaignStore
        from ragfuzz.ledger import CostLedger
        from ragfuzz.pipeline import GenerationPipeline
        from ragfuzz.prompts import PromptFactory
        from ragfuzz.providers import EmbeddingService, HashEmbedder, LLMService
        from ragfuzz.rag import VectorIndex

        for name in CAMPAIGN_FUNCTIONS:
            self._patch(campaign, name, name)
        for owner, attr in (
            (VectorIndex, "retrieve"), (VectorIndex, "index_chunks"), (VectorIndex, "load"),
            (LLMService, "llm_complete"),
            (EmbeddingService, "embed_text"), (EmbeddingService, "__init__"),
            (HashEmbedder, "embed_text"),
            (PromptFactory, "render"),
            (GenerationPipeline, "repair_loop"),
            (CostLedger, "record"),
            (CampaignStore, "all_cases"), (CampaignStore, "save_case"),
        ):
            self._patch(owner, attr, f"{owner.__name__}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, span_name: str) -> None:
        # A callable that is gone raises here, so a traced run fails instead
        # of reporting zeros for its layer.
        if isinstance(owner, type):
            original = owner.__dict__[attr]  # the raw classmethod, not a bound one
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(span_name, original.__func__))
        else:
            replacement = self._wrap(span_name, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, span_name: str, fn):
        tracer = self
        note = _NOTES.get(span_name)
        signature = inspect.signature(fn) if span_name in _BOUND else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            bound = signature.bind(*args, **kwargs).arguments if signature else {}
            case_id = _case_id(bound)
            if case_id is None and parent is not None:
                case_id = parent.case_id
            span = Span(
                next(tracer._ids), span_name, parent.span_id if parent else None,
                threading.get_ident(), case_id,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if note is not None:  # a call that raised keeps empty attrs
                span.attrs = note(bound, result)
            return result

        return traced

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.span_id, []), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.span_id] = span.duration - covered
    return out


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def layer_metrics(
    spans: list[Span], timing: dict, child_cpu_s: float, run_start: float, campaign_s: float
) -> dict:
    """Every per-layer metric except trace.overhead_s, from one traced run,
    plus the latency samples (ms) behind each percentile metric.

    Self-time shares count only spans of the campaign run itself (started
    at or after ``run_start``), not of runner construction.
    """
    by_name: dict[str, list[Span]] = {name: [] for name in LAYER_OF}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    ids = {s.span_id: s for s in spans}

    def under_repair(span: Span) -> bool:
        parent = ids.get(span.parent)
        while parent is not None:
            if parent.name == "GenerationPipeline.repair_loop":
                return True
            parent = ids.get(parent.parent)
        return False

    def busy(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def ms(group: list[Span], pct: float) -> float:
        return percentile([s.duration * 1000 for s in group], pct)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    retrieve = by_name["VectorIndex.retrieve"]
    llm = by_name["LLMService.llm_complete"]
    embed = by_name["EmbeddingService.embed_text"]
    backend = by_name["HashEmbedder.embed_text"]
    repairs = by_name["GenerationPipeline.repair_loop"]
    gate = [s for s in by_name["compile_job"] if under_repair(s)]
    compiles = [s for s in by_name["compile_job"] if not under_repair(s)]
    runs = by_name["run_job"]
    classify = by_name["classify"]
    toolchain_busy = busy("compile_job") + busy("run_job")
    matrix_busy = sum(s.duration for s in compiles + runs)
    own = self_times(spans)

    metrics = {
        "rag.retrieve.calls": len(retrieve),
        "rag.retrieve.p50_ms": ms(retrieve, 50),
        "rag.retrieve.p90_ms": ms(retrieve, 90),
        "rag.retrieve.busy_s": busy("VectorIndex.retrieve"),
        "rag.retrieve.hit_ratio": ratio(
            sum(s.attrs.get("returned", 0) for s in retrieve),
            sum(s.attrs.get("k", 0) for s in retrieve),
        ),
        "rag.index_s": busy("VectorIndex.index_chunks"),
        "rag.chunk_s": busy("chunk_document"),
        "rag.load_s": busy("VectorIndex.load"),
        "providers.llm.calls": len(llm),
        "providers.llm.busy_s": busy("LLMService.llm_complete"),
        "providers.llm.retries": sum(s.attrs.get("retries", 0) for s in llm),
        "providers.embed.calls": len(embed),
        "providers.embed.backend_calls": len(backend),
        "providers.embed.hit_ratio": ratio(len(embed) - len(backend), len(embed)),
        "providers.embed.busy_s": busy("EmbeddingService.embed_text"),
        # the worker sets up several times; report one set-up's cache load
        "providers.embed.cache_load_s": statistics.median(
            [s.duration for s in by_name["EmbeddingService.__init__"]] or [0.0]
        ),
        "prompts.render.calls": len(by_name["PromptFactory.render"]),
        "prompts.render.busy_s": busy("PromptFactory.render"),
        "pipeline.repair.cases": len(repairs),
        "pipeline.repair.attempts": sum(s.attrs.get("attempts", 0) for s in repairs),
        "pipeline.repair.success_ratio": ratio(
            sum(1 for s in repairs if s.attrs.get("succeeded")), len(repairs)
        ),
        "pipeline.repair.self_s": sum(own[s.span_id] for s in repairs),
        "toolchain.gate.calls": len(gate),
        "toolchain.gate.p50_ms": ms(gate, 50),
        "toolchain.compile.calls": len(compiles),
        "toolchain.compile.p50_ms": ms(compiles, 50),
        "toolchain.compile.p90_ms": ms(compiles, 90),
        "toolchain.run.calls": len(runs),
        "toolchain.run.p50_ms": ms(runs, 50),
        "toolchain.run.p90_ms": ms(runs, 90),
        "toolchain.busy_s": toolchain_busy,
        "toolchain.concurrency": ratio(matrix_busy, timing.get("matrix", 0.0)),
        "toolchain.child_cpu_s": child_cpu_s,
        "difftest.classify.calls": len(classify),
        "difftest.classify.busy_s": busy("classify"),
        "difftest.findings": sum(s.attrs.get("findings", 0) for s in classify),
        "ledger.record.calls": len(by_name["CostLedger.record"]),
        "ledger.record.busy_s": busy("CostLedger.record"),
        "extraction.functions": sum(
            s.attrs.get("functions", 0) for s in by_name["extract_functions"]
        ),
        "extraction.busy_s": busy("extract_functions"),
        **{f"campaign.stage.{stage}_s": float(timing.get(stage, 0.0)) for stage in STAGES},
        "campaign.all_cases.calls": len(by_name["CampaignStore.all_cases"]),
        "campaign.all_cases.busy_s": busy("CampaignStore.all_cases"),
        "campaign.save_case.calls": len(by_name["CampaignStore.save_case"]),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        if span.start >= run_start:
            layer_self[LAYER_OF[span.name]] += own[span.span_id]
    for layer, seconds in layer_self.items():
        metrics[f"self_share.{layer}"] = ratio(seconds, campaign_s)
    samples = {
        prefix: [s.duration * 1000 for s in group]
        for prefix, group in (
            ("rag.retrieve", retrieve), ("toolchain.gate", gate),
            ("toolchain.compile", compiles), ("toolchain.run", runs),
        )
    }
    return metrics, samples


def pooled_percentiles(samples: list[dict]) -> dict:
    """Percentile metrics over the latency samples of several traced runs,
    with the sample count behind each."""
    out, counts = {}, {}
    for prefix in samples[0]:
        values = [v for s in samples for v in s[prefix]]
        counts[prefix] = len(values)
        for name, _unit in METRICS:
            if name.startswith(prefix + ".p") and name.endswith("_ms"):
                out[name] = percentile(values, float(name[len(prefix) + 2:-3]))
    return out, counts


def median_metrics(samples: list[dict]) -> dict:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
