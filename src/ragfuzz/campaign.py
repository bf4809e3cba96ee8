"""Campaign orchestration: config, staged execution, persistence, reporting.

The campaign directory is the source of truth. Every stage persists one file
per unit of work and skips units whose artifact already exists, so an
interrupted campaign resumes exactly where it stopped and never re-bills the
provider for finished generation work. The canonical report contains no
wall-clock data; timings live in a sidecar so repeated mock runs emit
byte-identical reports.
"""
from __future__ import annotations

import glob as globlib
import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .difftest import ComparisonPolicy, ResultsMatrix, classify
from .errors import (
    ConfigError,
    ConfigMismatch,
    CorruptManifest,
    InsufficientCells,
    RagfuzzError,
)
from .extraction import DefinitionKind, PassFunction, PassSource, extract_functions, filter_candidates
from .ledger import CostLedger, PricingTable, default_pricing, estimate_cost
from .pipeline import (
    CaseStatus,
    Characteristics,
    FeatureCatalog,
    GenerationPipeline,
    TestCase,
    default_catalog,
    sample_features,
)
from .prompts import PromptFactory
from .providers import (
    EmbeddingService,
    HashEmbedder,
    HttpChatBackend,
    HttpEmbeddingBackend,
    LLMService,
    ProviderConfig,
    RateLimiter,
    ReplayBackend,
    ScriptedLLM,
)
from .rag import ChunkPolicy, VectorIndex, chunk_document
from .scenarios import load_scenario, seed_case_id, selection_seed
from .toolchain import (
    CellKey,
    CompileResult,
    CompileStatus,
    DeviceConfig,
    RunLimits,
    RunResult,
    RunStatus,
    TargetSpec,
    ToolchainConfig,
    build_matrix,
    compile_job,
    expand_run_jobs,
    run_job,
)

STAGES = (
    "extract",
    "index",
    "characteristics",
    "generate",
    "repair",
    "mutate",
    "repair_mutants",
    "matrix",
    "classify",
    "report",
)

MANIFEST_VERSION = 1


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PassSpec:
    pass_name: str
    sources: tuple[str, ...]
    docs: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExtractionConfig:
    min_lines: int = 1
    name_patterns: tuple[str, ...] = ()


@dataclass(frozen=True)
class RagConfig:
    max_chars: int = 1500
    overlap_chars: int = 200
    threshold: float = 0.5
    k: int = 4
    embedding_dim: int = 64


@dataclass(frozen=True)
class ProvidersSpec:
    mode: str = "mock"  # mock | http | replay
    scenario: str = ""
    cassette: str = ""
    llm: dict = field(default_factory=dict)
    embedding: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GenerationConfig:
    mutations_per_seed: int = 2
    max_repair_attempts: int = 5
    repair_hard_cap: int = 5
    seeds_per_function: int = 1
    catalogs: str = ""


@dataclass(frozen=True)
class GateConfig:
    compiler_id: str
    target: str
    opt_level: str


@dataclass(frozen=True)
class LimitsConfig:
    compile_timeout: float = 120.0
    run_timeout: float = 30.0
    address_space_mb: int = 2048
    file_size_mb: int = 64


@dataclass(frozen=True)
class ReportPolicy:
    float_sig_digits: int = 6
    unsupported_patterns: tuple[str, ...] = ("unsupported", "not supported", "UNSUPPORTED")
    suppress_source_patterns: tuple[str, ...] = ()
    pricing: str = ""


@dataclass
class CampaignConfig:
    seed: int
    workers_llm: int
    workers_tool: int
    passes: list[PassSpec]
    extraction: ExtractionConfig
    rag: RagConfig
    providers: ProvidersSpec
    generation: GenerationConfig
    gate: GateConfig
    toolchains: list[ToolchainConfig]
    devices: list[DeviceConfig]
    compatibility: dict[str, list[str]]
    limits: LimitsConfig
    report: ReportPolicy
    base_dir: Path
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode("utf-8")
        ).hexdigest()


def _resolve(base_dir: Path, value: str) -> str:
    """Relative paths in the config resolve against the config directory."""
    candidate = Path(value)
    if candidate.is_absolute():
        return str(candidate)
    return str((base_dir / candidate).resolve())


def _resolve_env(base_dir: Path, env: dict) -> dict:
    out = {}
    for key, value in env.items():
        if isinstance(value, str) and (base_dir / value).exists():
            out[key] = str((base_dir / value).resolve())
        else:
            out[key] = value
    return out


def load_config(data: dict, base_dir: Path) -> CampaignConfig:
    """Validate a raw config dict; errors carry the offending field path."""
    base_dir = Path(base_dir)

    campaign = data.get("campaign", {})
    passes_raw = data.get("passes", [])
    if not passes_raw:
        raise ConfigError("passes", "at least one pass is required")
    passes = []
    for i, p in enumerate(passes_raw):
        if not p.get("pass_name"):
            raise ConfigError(f"passes[{i}].pass_name", "must be non-empty")
        if not p.get("sources"):
            raise ConfigError(f"passes[{i}].sources", "must list at least one glob")
        passes.append(
            PassSpec(
                pass_name=p["pass_name"],
                sources=tuple(_resolve(base_dir, s) for s in p["sources"]),
                docs=tuple(_resolve(base_dir, d) for d in p.get("docs", [])),
            )
        )
    names = [p.pass_name for p in passes]
    if len(set(names)) != len(names):
        raise ConfigError("passes", "pass_name values must be unique")

    ext_raw = data.get("extraction", {})
    extraction = ExtractionConfig(
        min_lines=int(ext_raw.get("min_lines", 1)),
        name_patterns=tuple(ext_raw.get("name_patterns", [])),
    )
    if extraction.min_lines < 1:
        raise ConfigError("extraction.min_lines", "must be >= 1")

    rag_raw = data.get("rag", {})
    rag = RagConfig(
        max_chars=int(rag_raw.get("max_chars", 1500)),
        overlap_chars=int(rag_raw.get("overlap_chars", 200)),
        threshold=float(rag_raw.get("threshold", 0.5)),
        k=int(rag_raw.get("k", 4)),
        embedding_dim=int(rag_raw.get("embedding_dim", 64)),
    )
    if rag.max_chars <= rag.overlap_chars or rag.overlap_chars < 0:
        raise ConfigError("rag", "require max_chars > overlap_chars >= 0")
    if not 0.0 < rag.threshold <= 2.0:
        raise ConfigError("rag.threshold", "must be in (0, 2]")
    if rag.k < 1:
        raise ConfigError("rag.k", "must be >= 1")

    prov_raw = data.get("providers", {})
    providers = ProvidersSpec(
        mode=prov_raw.get("mode", "mock"),
        scenario=prov_raw.get("scenario", ""),
        cassette=prov_raw.get("cassette", ""),
        llm=dict(prov_raw.get("llm", {})),
        embedding=dict(prov_raw.get("embedding", {})),
    )
    if providers.mode not in ("mock", "http", "replay"):
        raise ConfigError("providers.mode", f"unknown mode {providers.mode!r}")
    if providers.mode == "mock" and not providers.scenario:
        raise ConfigError("providers.scenario", "mock mode requires a scenario")
    if providers.mode == "replay" and not providers.cassette:
        raise ConfigError("providers.cassette", "replay mode requires a cassette")

    gen_raw = data.get("generation", {})
    generation = GenerationConfig(
        mutations_per_seed=int(gen_raw.get("mutations_per_seed", 2)),
        max_repair_attempts=int(gen_raw.get("max_repair_attempts", 5)),
        repair_hard_cap=int(gen_raw.get("repair_hard_cap", 5)),
        seeds_per_function=int(gen_raw.get("seeds_per_function", 1)),
        catalogs=gen_raw.get("catalogs", ""),
    )
    if generation.mutations_per_seed < 0:
        raise ConfigError("generation.mutations_per_seed", "must be >= 0")
    if generation.max_repair_attempts > generation.repair_hard_cap:
        raise ConfigError(
            "generation.max_repair_attempts",
            f"exceeds hard cap {generation.repair_hard_cap}",
        )

    toolchains_raw = data.get("toolchains", [])
    if not toolchains_raw:
        raise ConfigError("toolchains", "at least one toolchain is required")
    toolchains = []
    for i, t in enumerate(toolchains_raw):
        if not t.get("compiler_id"):
            raise ConfigError(f"toolchains[{i}].compiler_id", "must be non-empty")
        targets = tuple(
            TargetSpec(name=ts["name"], flags=tuple(ts.get("flags", [])))
            for ts in t.get("targets", [])
        )
        if not targets:
            raise ConfigError(f"toolchains[{i}].targets", "must list at least one target")
        opt_levels = tuple(t.get("opt_levels", ["-O0", "-O1", "-O2", "-O3"]))
        if not opt_levels:
            raise ConfigError(f"toolchains[{i}].opt_levels", "must be non-empty")
        toolchains.append(
            ToolchainConfig(
                compiler_id=t["compiler_id"],
                executable=_resolve(base_dir, t["executable"]),
                base_flags=tuple(t.get("base_flags", [])),
                targets=targets,
                opt_levels=opt_levels,
                env=_resolve_env(base_dir, t.get("env", {})),
            )
        )

    devices_raw = data.get("devices", [])
    if not devices_raw:
        raise ConfigError("devices", "at least one device is required")
    devices = [
        DeviceConfig(
            device_id=d["device_id"],
            env=dict(d.get("env", {})),
            description=d.get("description", ""),
        )
        for d in devices_raw
    ]
    if len({d.device_id for d in devices}) != len(devices):
        raise ConfigError("devices", "device_id values must be unique")

    gate_raw = data.get("gate", {})
    if not gate_raw:
        raise ConfigError("gate", "a repair gate (compiler_id, target, opt_level) is required")
    gate = GateConfig(
        compiler_id=gate_raw["compiler_id"],
        target=gate_raw["target"],
        opt_level=gate_raw["opt_level"],
    )
    gate_tc = next((t for t in toolchains if t.compiler_id == gate.compiler_id), None)
    if gate_tc is None:
        raise ConfigError("gate.compiler_id", f"unknown compiler {gate.compiler_id!r}")
    if gate.target not in [t.name for t in gate_tc.targets]:
        raise ConfigError("gate.target", f"compiler has no target {gate.target!r}")

    limits_raw = data.get("limits", {})
    limits = LimitsConfig(
        compile_timeout=float(limits_raw.get("compile_timeout", 120.0)),
        run_timeout=float(limits_raw.get("run_timeout", 30.0)),
        address_space_mb=int(limits_raw.get("address_space_mb", 2048)),
        file_size_mb=int(limits_raw.get("file_size_mb", 64)),
    )

    report_raw = data.get("report", {})
    report = ReportPolicy(
        float_sig_digits=int(report_raw.get("float_sig_digits", 6)),
        unsupported_patterns=tuple(
            report_raw.get(
                "unsupported_patterns",
                ("unsupported", "not supported", "UNSUPPORTED"),
            )
        ),
        suppress_source_patterns=tuple(report_raw.get("suppress_source_patterns", [])),
        pricing=report_raw.get("pricing", ""),
    )

    return CampaignConfig(
        seed=int(campaign.get("seed", 0)),
        workers_llm=int(campaign.get("workers_llm", 1)),
        workers_tool=int(campaign.get("workers_tool", 1)),
        passes=passes,
        extraction=extraction,
        rag=rag,
        providers=providers,
        generation=generation,
        gate=gate,
        toolchains=toolchains,
        devices=devices,
        compatibility={k: list(v) for k, v in data.get("compatibility", {}).items()},
        limits=limits,
        report=report,
        base_dir=base_dir,
        raw=data,
    )


def load_config_file(path: Path, overrides: dict | None = None) -> CampaignConfig:
    path = Path(path)
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        import yaml

        data = yaml.safe_load(text)
    else:
        data = json.loads(text)
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a mapping")
    for dotted, value in (overrides or {}).items():
        node = data
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return load_config(data, path.parent)


# --------------------------------------------------------------------------
# Campaign store
# --------------------------------------------------------------------------

def _slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-." else "_" for c in name)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


class CampaignStore:
    """Filesystem layout of one campaign; all writes are atomic renames.

    The root resolves to an absolute path immediately: job argv paths must
    stay valid after subprocesses change into their own working directories.
    """

    def __init__(self, root: Path):
        self.root = Path(root).resolve()

    # layout
    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def snapshot_path(self) -> Path:
        return self.root / "config.snapshot.json"

    @property
    def ledger_path(self) -> Path:
        return self.root / "ledger.jsonl"

    @property
    def exchanges_path(self) -> Path:
        return self.root / "exchanges.jsonl"

    @property
    def index_dir(self) -> Path:
        return self.root / "index"

    def pass_dir(self, pass_name: str) -> Path:
        return self.root / "passes" / _slug(pass_name)

    def functions_path(self, pass_name: str) -> Path:
        return self.pass_dir(pass_name) / "functions.json"

    def characteristics_path(self, pass_name: str, function_key: str) -> Path:
        return self.pass_dir(pass_name) / "characteristics" / f"{_slug(function_key)}.json"

    def case_dir(self, case_id: str) -> Path:
        return self.root / "cases" / _slug(case_id)

    def case_path(self, case_id: str) -> Path:
        return self.case_dir(case_id) / "case.json"

    def source_path(self, case_id: str) -> Path:
        return self.case_dir(case_id) / "source.cpp"

    def compile_result_path(self, case_id: str, key: CellKey) -> Path:
        return self.case_dir(case_id) / "results" / f"compile_{key.label()}.json"

    def run_result_path(self, case_id: str, key: CellKey) -> Path:
        return self.case_dir(case_id) / "results" / f"run_{key.label()}.json"

    @property
    def findings_path(self) -> Path:
        return self.root / "findings.jsonl"

    @property
    def report_json_path(self) -> Path:
        return self.root / "report.json"

    @property
    def report_md_path(self) -> Path:
        return self.root / "report.md"

    @property
    def timing_path(self) -> Path:
        return self.root / "timing.json"

    # persistence helpers
    def save_case(self, case: TestCase) -> None:
        _write_json(self.case_path(case.case_id), case.to_dict())
        source = self.source_path(case.case_id)
        source.parent.mkdir(parents=True, exist_ok=True)
        tmp = source.with_suffix(".cpp.tmp")
        tmp.write_text(case.source)
        os.replace(tmp, source)

    def load_case(self, case_id: str) -> TestCase | None:
        path = self.case_path(case_id)
        if not path.exists():
            return None
        return TestCase.from_dict(json.loads(path.read_text()))

    def all_cases(self) -> list[TestCase]:
        cases_dir = self.root / "cases"
        if not cases_dir.exists():
            return []
        cases = []
        for case_file in sorted(cases_dir.glob("*/case.json")):
            cases.append(TestCase.from_dict(json.loads(case_file.read_text())))
        cases.sort(key=lambda c: c.case_id)
        return cases


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------

@dataclass
class CampaignReport:
    per_pass: dict[str, dict[str, int]]
    findings: dict
    cost: dict
    timing: dict[str, float] = field(default_factory=dict)

    def to_canonical_dict(self) -> dict:
        # timing is wall-clock noise; it stays out of the comparable report
        return {
            "per_pass": self.per_pass,
            "findings": self.findings,
            "cost": self.cost,
        }


def validate_partition(per_pass: dict[str, dict[str, int]]) -> bool:
    """generated == compiled + failed + abandoned, per pass."""
    for counts in per_pass.values():
        if counts["generated"] != counts["compiled"] + counts["failed"] + counts["abandoned"]:
            return False
    return True


def emit_report(report: CampaignReport, out_dir: Path, fmt: str) -> Path:
    """Write the report in one format; 'jsonl' is the canonical JSON form."""
    out_dir = Path(out_dir)
    if fmt == "jsonl":
        path = out_dir / "report.json"
        _write_json(path, report.to_canonical_dict())
        return path
    if fmt == "markdown":
        path = out_dir / "report.md"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_markdown(report))
        return path
    raise ValueError(f"unknown report format {fmt!r}")


def render_markdown(report: CampaignReport) -> str:
    lines = ["# Campaign report", "", "## Per-pass counts", ""]
    lines.append("| pass | functions | characteristics | generated | compiled | failed | abandoned |")
    lines.append("|---|---|---|---|---|---|---|")
    for pass_name, c in sorted(report.per_pass.items()):
        lines.append(
            f"| {pass_name} | {c['functions']} | {c['characteristics']} | "
            f"{c['generated']} | {c['compiled']} | {c['failed']} | {c['abandoned']} |"
        )
    lines += ["", "## Findings", ""]
    lines.append(f"Flagged cases (union): **{report.findings['total_flagged']}**")
    lines += ["", "| axis | flagged cases |", "|---|---|"]
    for axis, count in sorted(report.findings["per_axis"].items()):
        lines.append(f"| {axis} | {count} |")
    lines += ["", "| kind | flagged cases |", "|---|---|"]
    for kind, count in sorted(report.findings["per_kind"].items()):
        lines.append(f"| {kind} | {count} |")
    lines += ["", "## Cost", ""]
    lines.append(f"Total input tokens: {report.cost['input_tokens']}")
    lines.append(f"Total output tokens: {report.cost['output_tokens']}")
    lines.append(f"Estimated cost: {report.cost['total_dollars']}")
    lines += ["", "## Timing", ""]
    if report.timing:
        lines.append("| stage | seconds |")
        lines.append("|---|---|")
        for stage, seconds in report.timing.items():
            lines.append(f"| {stage} | {seconds:.2f} |")
    else:
        lines.append("(no timing recorded)")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Campaign runner
# --------------------------------------------------------------------------

def _pmap(fn, items, workers: int):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


class CampaignRunner:
    def __init__(self, config: CampaignConfig, campaign_dir: Path):
        self.config = config
        self.store = CampaignStore(Path(campaign_dir))
        self.store.root.mkdir(parents=True, exist_ok=True)
        self._check_or_write_manifest()
        self.ledger = CostLedger(self.store.ledger_path)
        self.catalog = self._load_catalog()
        self.prompts = PromptFactory()
        self.llm, self.embedder = self._build_providers()
        self.index: VectorIndex | None = None
        self.pipeline = GenerationPipeline(
            self.prompts,
            self.llm,
            index=None,
            embedder=None,
            retrieval_threshold=config.rag.threshold,
            retrieval_k=config.rag.k,
        )
        self.policy = ComparisonPolicy(
            float_sig_digits=config.report.float_sig_digits,
            unsupported_patterns=config.report.unsupported_patterns,
            suppress_source_patterns=config.report.suppress_source_patterns,
        )
        self._timing: dict[str, float] = {}
        if self.store.timing_path.exists():
            self._timing = json.loads(self.store.timing_path.read_text())

    # -- setup ----------------------------------------------------------

    def _check_or_write_manifest(self) -> None:
        manifest_path = self.store.manifest_path
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
                stored = manifest["config_hash"]
            except (json.JSONDecodeError, KeyError) as exc:
                raise CorruptManifest(str(manifest_path)) from exc
            if stored != self.config.config_hash:
                raise ConfigMismatch(
                    "campaign directory was created from a different config"
                )
            return
        _write_json(
            manifest_path,
            {"version": MANIFEST_VERSION, "config_hash": self.config.config_hash},
        )
        _write_json(
            self.store.snapshot_path,
            {"base_dir": str(self.config.base_dir), "config": self.config.raw},
        )

    def _load_catalog(self) -> FeatureCatalog:
        if self.config.generation.catalogs:
            return FeatureCatalog.load(
                Path(_resolve(self.config.base_dir, self.config.generation.catalogs))
            )
        return default_catalog()

    def _build_providers(self) -> tuple[LLMService, EmbeddingService]:
        spec = self.config.providers
        rate_limiter = None
        if spec.mode == "mock":
            scenario = load_scenario(spec.scenario)
            backend = ScriptedLLM(scenario.llm_entries)
            embed_backend = HashEmbedder(dim=self.config.rag.embedding_dim, seed=0)
            max_retries, backoff = 0, 0.0
        elif spec.mode == "replay":
            backend = ReplayBackend(Path(_resolve(self.config.base_dir, spec.cassette)))
            embed_backend = HashEmbedder(dim=self.config.rag.embedding_dim, seed=0)
            max_retries, backoff = 0, 0.0
        else:
            llm_cfg = ProviderConfig(**spec.llm)
            backend = HttpChatBackend(llm_cfg)
            embed_backend = HttpEmbeddingBackend(
                ProviderConfig(**spec.embedding),
                dim=self.config.rag.embedding_dim,
            )
            max_retries, backoff = llm_cfg.max_retries, llm_cfg.backoff_base
            if llm_cfg.requests_per_minute > 0:
                rate_limiter = RateLimiter(llm_cfg.requests_per_minute)

        exchange_lock = threading.Lock()

        def log_exchange(prompt, completion):
            line = json.dumps(
                {
                    "template_id": prompt.template_id,
                    "prompt_sha256": hashlib.sha256(
                        prompt.text.encode("utf-8")
                    ).hexdigest(),
                    "response": completion.text,
                    "input_tokens": completion.input_tokens,
                    "output_tokens": completion.output_tokens,
                    "model_id": completion.model_id,
                },
                sort_keys=True,
            )
            # repair workers log concurrently; one writer at a time keeps
            # each exchange on one whole line
            with exchange_lock:
                with open(self.store.exchanges_path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")

        llm = LLMService(
            backend,
            self.ledger,
            max_retries=max_retries,
            backoff_base=backoff,
            rate_limiter=rate_limiter,
            on_exchange=log_exchange,
        )
        embedder = EmbeddingService(
            embed_backend, self.ledger, cache_path=self.store.root / "embeddings.cache.jsonl"
        )
        return llm, embedder

    # -- stage driver ---------------------------------------------------

    def run(self, halt_after: str | None = None) -> CampaignReport | None:
        if halt_after is not None and halt_after not in STAGES:
            raise ValueError(f"unknown stage {halt_after!r}")
        for tc in self.config.toolchains:
            tc.probe()
        report: CampaignReport | None = None
        for stage in STAGES:
            started = time.monotonic()
            report = self._run_stage(stage)
            self._timing[stage] = round(time.monotonic() - started, 6)
            _write_json(self.store.timing_path, self._timing)
            if stage == halt_after:
                return report
        return report

    def _run_stage(self, stage: str) -> CampaignReport | None:
        handler = getattr(self, f"_stage_{stage}")
        return handler()

    # -- stages ---------------------------------------------------------

    def _stage_extract(self) -> None:
        for spec in self.config.passes:
            out_path = self.store.functions_path(spec.pass_name)
            if out_path.exists():
                continue
            functions: list[PassFunction] = []
            for pattern in spec.sources:
                for file_path in sorted(globlib.glob(pattern)):
                    source = PassSource(
                        pass_name=spec.pass_name,
                        file_path=Path(file_path),
                        content=Path(file_path).read_text(),
                    )
                    functions.extend(extract_functions(source))
            functions = filter_candidates(
                functions,
                self.config.extraction.min_lines,
                list(self.config.extraction.name_patterns),
            )
            _write_json(
                out_path,
                [
                    {
                        "pass_name": fn.pass_name,
                        "qualified_name": fn.qualified_name,
                        "kind": fn.kind.value,
                        "body": fn.body,
                        "line_span": list(fn.line_span),
                        "char_span": list(fn.char_span),
                        "depth": fn.depth,
                    }
                    for fn in functions
                ],
            )

    def _load_functions(self, pass_name: str) -> list[PassFunction]:
        records = json.loads(self.store.functions_path(pass_name).read_text())
        return [
            PassFunction(
                pass_name=r["pass_name"],
                qualified_name=r["qualified_name"],
                kind=DefinitionKind(r["kind"]),
                body=r["body"],
                line_span=tuple(r["line_span"]),
                char_span=tuple(r["char_span"]),
                depth=r["depth"],
            )
            for r in records
        ]

    def _stage_index(self) -> None:
        meta = self.store.index_dir / VectorIndex.META
        if meta.exists():
            self.index = VectorIndex.load(self.store.index_dir)
        else:
            index = VectorIndex(dim=self.config.rag.embedding_dim)
            policy = ChunkPolicy(self.config.rag.max_chars, self.config.rag.overlap_chars)
            doc_paths: list[str] = []
            for spec in self.config.passes:
                for pattern in spec.docs:
                    doc_paths.extend(sorted(globlib.glob(pattern)))
            for doc_path in sorted(set(doc_paths)):
                content = Path(doc_path).read_text()
                if not content.strip():
                    continue
                chunks = chunk_document(Path(doc_path).name, content, policy)
                index.index_chunks(chunks, self.embedder)
            index.save(self.store.index_dir)
            self.index = index
        if len(self.index) > 0:
            self.pipeline.index = self.index
            self.pipeline.embedder = self.embedder

    def _stage_characteristics(self) -> None:
        for spec in self.config.passes:
            for fn in self._load_functions(spec.pass_name):
                path = self.store.characteristics_path(spec.pass_name, fn.qualified_name)
                if path.exists():
                    ch = Characteristics(**json.loads(path.read_text()))
                    self.pipeline.seed_characteristics_cache(fn, ch)
                    continue
                ch = self.pipeline.generate_characteristics(fn)
                _write_json(
                    path,
                    {
                        "pass_name": ch.pass_name,
                        "function_key": ch.function_key,
                        "text": ch.text,
                    },
                )

    def _stage_generate(self) -> None:
        for spec in self.config.passes:
            for fn_idx, fn in enumerate(self._load_functions(spec.pass_name)):
                ch_path = self.store.characteristics_path(spec.pass_name, fn.qualified_name)
                ch = Characteristics(**json.loads(ch_path.read_text()))
                for k in range(self.config.generation.seeds_per_function):
                    case_id = seed_case_id(spec.pass_name, fn_idx, k)
                    if self.store.case_path(case_id).exists():
                        continue
                    selection = sample_features(
                        self.catalog, selection_seed(self.config.seed, case_id)
                    )
                    try:
                        case = self.pipeline.generate_testcase(ch, selection, case_id)
                    except RagfuzzError as exc:
                        # one case's failure never aborts the campaign
                        case = TestCase(
                            case_id=case_id,
                            pass_name=spec.pass_name,
                            source="",
                            status=CaseStatus.ABANDONED,
                            characteristics_key=fn.qualified_name,
                            selection=selection,
                            abandon_reason=f"generation_failed: {exc}",
                        )
                    self.store.save_case(case)

    def _gate_compile(self, case_id: str):
        gate = self.config.gate
        toolchain = next(
            t for t in self.config.toolchains if t.compiler_id == gate.compiler_id
        )
        target = next(t for t in toolchain.targets if t.name == gate.target)
        gate_toolchain = ToolchainConfig(
            compiler_id=toolchain.compiler_id,
            executable=toolchain.executable,
            base_flags=toolchain.base_flags,
            targets=(target,),
            opt_levels=(gate.opt_level,),
            env=toolchain.env,
        )
        gate_dir = self.store.case_dir(case_id) / "gate"
        counter = {"n": 0}

        def compile_source(source_text: str) -> CompileResult:
            counter["n"] += 1
            attempt_dir = gate_dir / f"attempt_{counter['n']:02d}"
            attempt_dir.mkdir(parents=True, exist_ok=True)
            source_path = attempt_dir / "source.cpp"
            source_path.write_text(source_text)
            job = build_matrix(
                case_id, source_path, [gate_toolchain], attempt_dir,
                timeout=self.config.limits.compile_timeout,
            )[0]
            return compile_job(job)

        return compile_source

    def _repair_cases(self, parent_filter) -> None:
        drafts = [
            case
            for case in self.store.all_cases()
            if case.status == CaseStatus.DRAFT and parent_filter(case)
        ]

        def repair_one(case: TestCase) -> None:
            try:
                self.pipeline.repair_loop(
                    case,
                    self._gate_compile(case.case_id),
                    max_attempts=self.config.generation.max_repair_attempts,
                )
            except RagfuzzError as exc:
                case.status = CaseStatus.ABANDONED
                case.abandon_reason = f"repair_failed: {exc}"
            self.store.save_case(case)

        _pmap(repair_one, drafts, self.config.workers_llm)

    def _stage_repair(self) -> None:
        self._repair_cases(lambda case: case.parent_id is None)

    def _stage_mutate(self) -> None:
        seeds = [
            case
            for case in self.store.all_cases()
            if case.parent_id is None and case.status == CaseStatus.COMPILES
        ]
        for case in seeds:
            for j in range(self.config.generation.mutations_per_seed):
                child_id = f"{case.case_id}.m{j}"
                if self.store.case_path(child_id).exists():
                    continue
                try:
                    child = self.pipeline.mutate_one(case, j, self.catalog, self.config.seed)
                except RagfuzzError as exc:
                    child = TestCase(
                        case_id=child_id,
                        pass_name=case.pass_name,
                        source="",
                        status=CaseStatus.ABANDONED,
                        characteristics_key=case.characteristics_key,
                        parent_id=case.case_id,
                        abandon_reason=f"generation_failed: {exc}",
                    )
                self.store.save_case(child)

    def _stage_repair_mutants(self) -> None:
        self._repair_cases(lambda case: case.parent_id is not None)

    def _stage_matrix(self) -> None:
        compiled = [c for c in self.store.all_cases() if c.status == CaseStatus.COMPILES]

        def process_case(case: TestCase) -> None:
            source_path = self.store.source_path(case.case_id)
            build_root = self.store.case_dir(case.case_id) / "build"
            jobs = build_matrix(
                case.case_id, source_path, self.config.toolchains, build_root,
                timeout=self.config.limits.compile_timeout,
            )
            limits = RunLimits(
                timeout=self.config.limits.run_timeout,
                address_space_mb=self.config.limits.address_space_mb,
                file_size_mb=self.config.limits.file_size_mb,
            )
            for job in jobs:
                compile_key = CellKey(job.compiler_id, job.target, job.opt_level)
                result_path = self.store.compile_result_path(case.case_id, compile_key)
                if result_path.exists():
                    record = json.loads(result_path.read_text())
                    result = CompileResult(
                        case_id=record["case_id"],
                        compiler_id=record["compiler_id"],
                        target=record["target"],
                        opt_level=record["opt_level"],
                        status=CompileStatus(record["status"]),
                        stderr=record["stderr"],
                        binary_path=record["binary_path"],
                        duration=record["duration"],
                    )
                else:
                    result = compile_job(job)
                    _write_json(
                        result_path,
                        {
                            "case_id": result.case_id,
                            "compiler_id": result.compiler_id,
                            "target": result.target,
                            "opt_level": result.opt_level,
                            "status": result.status.value,
                            "stderr": result.stderr,
                            "binary_path": result.binary_path,
                            "duration": result.duration,
                        },
                    )
                for run in expand_run_jobs(
                    result,
                    self.config.devices,
                    self.config.compatibility or None,
                    timeout=self.config.limits.run_timeout,
                ):
                    run_path = self.store.run_result_path(case.case_id, run.cell)
                    if run_path.exists():
                        continue
                    rr = run_job(run, limits)
                    _write_json(
                        run_path,
                        {
                            "case_id": rr.case_id,
                            "cell": {
                                "compiler_id": rr.cell.compiler_id,
                                "target": rr.cell.target,
                                "opt_level": rr.cell.opt_level,
                                "device_id": rr.cell.device_id,
                            },
                            "status": rr.status.value,
                            "exit_code": rr.exit_code,
                            "stdout": rr.stdout,
                            "stderr": rr.stderr,
                            "duration": rr.duration,
                        },
                    )

        _pmap(process_case, compiled, self.config.workers_tool)

    def _load_matrix(self, case: TestCase) -> ResultsMatrix:
        cells: dict[CellKey, RunResult] = {}
        results_dir = self.store.case_dir(case.case_id) / "results"
        if results_dir.exists():
            for path in sorted(results_dir.glob("run_*.json")):
                record = json.loads(path.read_text())
                key = CellKey(**record["cell"])
                cells[key] = RunResult(
                    case_id=record["case_id"],
                    cell=key,
                    status=RunStatus(record["status"]),
                    exit_code=record["exit_code"],
                    stdout=record["stdout"],
                    stderr=record["stderr"],
                    duration=record["duration"],
                )
        return ResultsMatrix(case_id=case.case_id, cells=cells)

    def _stage_classify(self) -> None:
        if self.store.findings_path.exists():
            return
        import re as _re

        suppress = [_re.compile(p) for p in self.policy.suppress_source_patterns]
        lines = []
        for case in self.store.all_cases():
            if case.status != CaseStatus.COMPILES:
                continue
            if suppress and any(p.search(case.source) for p in suppress):
                continue  # operator triage valve: known-noise sources
            matrix = self._load_matrix(case)
            if len(matrix.cells) < 2:
                continue
            try:
                findings = classify(matrix, self.policy)
            except InsufficientCells:
                continue
            for d in findings:
                lines.append(
                    json.dumps(
                        {
                            "case_id": d.case_id,
                            "kind": d.kind.value,
                            "axis": d.axis.value,
                            "issue_class": d.issue_class.value,
                            "witness": {
                                "cell_a": d.witness.cell_a.__dict__,
                                "cell_b": d.witness.cell_b.__dict__,
                                "status_a": d.witness.status_a,
                                "status_b": d.witness.status_b,
                                "output_a": d.witness.output_a,
                                "output_b": d.witness.output_b,
                            },
                        },
                        sort_keys=True,
                    )
                )
        tmp = self.store.findings_path.with_suffix(".jsonl.tmp")
        tmp.write_text("\n".join(lines) + ("\n" if lines else ""))
        os.replace(tmp, self.store.findings_path)

    def _stage_report(self) -> CampaignReport:
        report = self.build_report()
        emit_report(report, self.store.root, "jsonl")
        emit_report(report, self.store.root, "markdown")
        return report

    # -- report assembly -------------------------------------------------

    def _pricing(self) -> PricingTable:
        if self.config.report.pricing:
            return PricingTable.load(
                Path(_resolve(self.config.base_dir, self.config.report.pricing))
            )
        return default_pricing()

    def build_report(self) -> CampaignReport:
        per_pass: dict[str, dict[str, int]] = {}
        for spec in self.config.passes:
            functions = self._load_functions(spec.pass_name)
            ch_dir = self.store.pass_dir(spec.pass_name) / "characteristics"
            ch_count = len(list(ch_dir.glob("*.json"))) if ch_dir.exists() else 0
            cases = [c for c in self.store.all_cases() if c.pass_name == spec.pass_name]
            compiled = sum(1 for c in cases if c.status == CaseStatus.COMPILES)
            failed = sum(
                1
                for c in cases
                if c.status == CaseStatus.ABANDONED
                and c.abandon_reason.startswith("compile_failed")
            )
            abandoned = sum(
                1
                for c in cases
                if c.status == CaseStatus.ABANDONED
                and not c.abandon_reason.startswith("compile_failed")
            )
            per_pass[spec.pass_name] = {
                "functions": len(functions),
                "characteristics": ch_count,
                "generated": len(cases),
                "compiled": compiled,
                "failed": failed,
                "abandoned": abandoned,
            }

        findings_records = []
        if self.store.findings_path.exists():
            for line in self.store.findings_path.read_text().splitlines():
                if line.strip():
                    findings_records.append(json.loads(line))

        per_case: dict[str, list[list[str]]] = {}
        for record in findings_records:
            per_case.setdefault(record["case_id"], []).append(
                [record["kind"], record["axis"]]
            )
        for pairs in per_case.values():
            pairs.sort()
        axis_cases: dict[str, set] = {}
        kind_cases: dict[str, set] = {}
        for record in findings_records:
            axis_cases.setdefault(record["axis"], set()).add(record["case_id"])
            kind_cases.setdefault(record["kind"], set()).add(record["case_id"])
        flagged = sorted({r["case_id"] for r in findings_records})
        findings = {
            "total_flagged": len(flagged),
            "flagged_cases": flagged,
            "per_axis": {axis: len(cases) for axis, cases in sorted(axis_cases.items())},
            "per_kind": {kind: len(cases) for kind, cases in sorted(kind_cases.items())},
            "per_case": {case_id: per_case[case_id] for case_id in sorted(per_case)},
        }

        entries = self.ledger.entries()
        input_tokens = sum(e.input_tokens for e in entries)
        output_tokens = sum(e.output_tokens for e in entries)
        by_stage = {}
        for stage in ("characteristics", "codegen", "repair", "mutation", "embedding"):
            stage_entries = [e for e in entries if e.stage == stage]
            by_stage[stage] = {
                "input_tokens": sum(e.input_tokens for e in stage_entries),
                "output_tokens": sum(e.output_tokens for e in stage_entries),
            }
        try:
            total_dollars = str(estimate_cost(entries, self._pricing()))
        except RagfuzzError:
            total_dollars = "unpriced"
        cost = {
            "input_tokens": input_tokens,
            "output_tokens": output_tokens,
            "by_stage": by_stage,
            "total_dollars": total_dollars,
        }

        return CampaignReport(
            per_pass=per_pass, findings=findings, cost=cost, timing=dict(self._timing)
        )


def run_campaign(
    config: CampaignConfig, campaign_dir: Path, halt_after: str | None = None
) -> CampaignReport | None:
    """Execute (or resume) every stage; returns the final report."""
    runner = CampaignRunner(config, campaign_dir)
    return runner.run(halt_after=halt_after)


def resume(campaign_dir: Path, config: CampaignConfig | None = None) -> CampaignReport | None:
    """Complete a previously started campaign from its persisted artifacts."""
    campaign_dir = Path(campaign_dir)
    store = CampaignStore(campaign_dir)
    if not store.manifest_path.exists():
        raise CorruptManifest(f"no manifest in {campaign_dir}")
    try:
        manifest = json.loads(store.manifest_path.read_text())
        stored_hash = manifest["config_hash"]
    except (json.JSONDecodeError, KeyError) as exc:
        raise CorruptManifest(str(store.manifest_path)) from exc
    if config is None:
        if not store.snapshot_path.exists():
            raise CorruptManifest(f"no config snapshot in {campaign_dir}")
        snapshot = json.loads(store.snapshot_path.read_text())
        config = load_config(snapshot["config"], Path(snapshot["base_dir"]))
    if config.config_hash != stored_hash:
        raise ConfigMismatch("provided config does not match the campaign manifest")
    return run_campaign(config, campaign_dir)
