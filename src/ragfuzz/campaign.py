"""Campaign orchestration: config, staged execution, persistence, reporting.

The campaign directory is the source of truth. Every stage persists each unit
of work as it finishes, one file per unit or, for the ledger, the embedding
cache and the matrix, one line per unit in an append-only log, and skips units
already persisted. So an interrupted campaign resumes exactly where it stopped
and never re-bills the provider for finished generation work. The canonical
report contains no wall-clock data; timings live in a sidecar so repeated mock
runs emit byte-identical reports.

Annotations here are evaluated at import, not postponed: the record codec
reads each config field's type as an object instead of compiling its string
when a campaign sets up.
"""
import glob as globlib
import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

from .difftest import ComparisonPolicy, Discrepancy, ResultsMatrix, classify, summarize
from .errors import (
    ConfigError,
    ConfigMismatch,
    CorruptManifest,
    InsufficientCells,
    RagfuzzError,
    RecordError,
    ToolNotFound,
)
from .extraction import PassFunction, PassSource, extract_functions, filter_candidates
from .ledger import STAGES as LEDGER_STAGES
from .ledger import CostLedger, PricingTable, default_pricing, estimate_cost, read_jsonl
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
    ScriptedLLM,
)
from .rag import ChunkPolicy, VectorIndex, chunk_document
from .records import from_record, to_record
from .scenarios import Scenario, load_scenario, seed_case_id, selection_seed
from .toolchain import (
    CellKey,
    CompileResult,
    DeviceConfig,
    JobLauncher,
    RunLimits,
    RunResult,
    ToolchainConfig,
    build_matrix,
    compile_job,
    expand_run_jobs,
    prlimit_path,
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

# most compile/repair rounds a config may ask for per case
REPAIR_HARD_CAP = 5


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    workers_llm: int = 1
    workers_tool: int = 1


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
    mode: str = "mock"  # mock | http
    scenario: str = ""
    llm: ProviderConfig = ProviderConfig()
    embedding: ProviderConfig = ProviderConfig()


@dataclass(frozen=True)
class GenerationConfig:
    mutations_per_seed: int = 2
    max_repair_attempts: int = 5
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
class ReportConfig(ComparisonPolicy):
    pricing: str = ""  # "" = the packaged table


@dataclass
class CampaignConfig:
    """A decoded config file: each field but base_dir and raw holds the
    top-level key of its name, and a missing key takes the field's default."""

    campaign: RunConfig = RunConfig()
    passes: list[PassSpec] = field(default_factory=list)
    extraction: ExtractionConfig = ExtractionConfig()
    rag: RagConfig = RagConfig()
    providers: ProvidersSpec = ProvidersSpec()
    generation: GenerationConfig = GenerationConfig()
    gate: GateConfig | None = None
    toolchains: list[ToolchainConfig] = field(default_factory=list)
    devices: list[DeviceConfig] = field(default_factory=list)
    compatibility: dict[str, list[str]] = field(default_factory=dict)
    limits: LimitsConfig = LimitsConfig()
    report: ReportConfig = ReportConfig()
    base_dir: Path = field(init=False)
    raw: dict = field(init=False, repr=False)

    @cached_property  # raw is set once, by load_config
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode("utf-8")
        ).hexdigest()


def _resolve(base_dir: Path, value: str) -> str:
    """Relative paths in the config resolve against the config directory.

    Symlinks are kept, as for an absolute path: a compiler linked as
    ``clang++`` must start as ``clang++``, since clang picks its driver
    mode from argv[0].
    """
    if os.path.isabs(value):
        return str(Path(value))
    return os.path.abspath(os.path.join(base_dir, value))


def _resolve_env(base_dir: Path, env: dict) -> dict:
    out = {}
    for key, value in env.items():
        if isinstance(value, str) and os.path.exists(os.path.join(base_dir, value)):
            out[key] = os.path.abspath(os.path.join(base_dir, value))
        else:
            out[key] = value
    return out


def load_config(data: dict, base_dir: Path) -> CampaignConfig:
    """Decode and check a raw config dict; every error names its field path."""
    try:
        config = from_record(CampaignConfig, data)
    except RecordError as exc:
        raise ConfigError(exc.field_path or "<root>", exc.reason) from None
    config.base_dir = base_dir = Path(base_dir)
    config.raw = data

    for key, id_field, noun in (
        ("passes", "pass_name", "pass"),
        ("toolchains", "compiler_id", "toolchain"),
        ("devices", "device_id", "device"),
    ):
        ids = [getattr(entry, id_field) for entry in getattr(config, key)]
        if not ids:
            raise ConfigError(key, f"at least one {noun} is required")
        if not all(ids):
            raise ConfigError(f"{key}[{ids.index('')}].{id_field}", "must be non-empty")
        if len(set(ids)) != len(ids):
            raise ConfigError(key, f"{id_field} values must be unique")
    for i, p in enumerate(config.passes):
        if not p.sources:
            raise ConfigError(f"passes[{i}].sources", "must list at least one glob")
    for i, t in enumerate(config.toolchains):
        if not t.targets:
            raise ConfigError(f"toolchains[{i}].targets", "must list at least one target")
        if len({target.name for target in t.targets}) != len(t.targets):
            raise ConfigError(f"toolchains[{i}].targets", "name values must be unique")
        if not t.opt_levels:
            raise ConfigError(f"toolchains[{i}].opt_levels", "must be non-empty")
    # a cell's label names its build directory, so two cells may not share one
    cells: dict[str, tuple] = {}
    for t in config.toolchains:
        for cell in ((t.compiler_id, g.name, o) for g in t.targets for o in t.opt_levels):
            first = cells.setdefault(CellKey(*cell).label(), cell)
            if first is not cell:
                raise ConfigError("toolchains", f"cells {first} and {cell} share one label")

    if config.extraction.min_lines < 1:
        raise ConfigError("extraction.min_lines", "must be >= 1")
    rag = config.rag
    if rag.max_chars <= rag.overlap_chars or rag.overlap_chars < 0:
        raise ConfigError("rag", "require max_chars > overlap_chars >= 0")
    if not 0.0 < rag.threshold <= 2.0:
        raise ConfigError("rag.threshold", "must be in (0, 2]")
    if rag.k < 1:
        raise ConfigError("rag.k", "must be >= 1")

    providers = config.providers
    if providers.mode not in ("mock", "http"):
        raise ConfigError("providers.mode", f"unknown mode {providers.mode!r}")
    if providers.mode == "mock" and not providers.scenario:
        raise ConfigError("providers.scenario", "mock mode requires a scenario")
    if providers.mode == "http":
        providers.llm.validate("providers.llm")
        providers.embedding.validate("providers.embedding")

    if config.generation.mutations_per_seed < 0:
        raise ConfigError("generation.mutations_per_seed", "must be >= 0")
    if config.generation.max_repair_attempts > REPAIR_HARD_CAP:
        raise ConfigError(
            "generation.max_repair_attempts", f"exceeds hard cap {REPAIR_HARD_CAP}"
        )

    gate = config.gate
    if gate is None:
        raise ConfigError("gate", "a repair gate (compiler_id, target, opt_level) is required")
    gate_tc = next((t for t in config.toolchains if t.compiler_id == gate.compiler_id), None)
    if gate_tc is None:
        raise ConfigError("gate.compiler_id", f"unknown compiler {gate.compiler_id!r}")
    if gate.target not in [t.name for t in gate_tc.targets]:
        raise ConfigError("gate.target", f"compiler has no target {gate.target!r}")

    config.passes = [
        replace(
            p,
            sources=tuple(_resolve(base_dir, s) for s in p.sources),
            docs=tuple(_resolve(base_dir, d) for d in p.docs),
        )
        for p in config.passes
    ]
    config.toolchains = [
        replace(
            t,
            executable=_resolve(base_dir, t.executable),
            env=_resolve_env(base_dir, t.env),
        )
        for t in config.toolchains
    ]
    return config


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
        for i, part in enumerate(parents):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(".".join(parents[: i + 1]), "must be a mapping")
        node[leaf] = value
    return load_config(data, path.parent)


# --------------------------------------------------------------------------
# Campaign store
# --------------------------------------------------------------------------

def _slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-." else "_" for c in name)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_json(cls: type, path: Path):
    return from_record(cls, json.loads(path.read_text()))


def _decode_named(key: str, load: Callable, *args):
    """load(*args), which reads the file config key names. A file that cannot
    be read, parsed, decoded or checked raises ConfigError under key, with
    the field path inside the file when there is one."""
    try:
        return load(*args)
    except (OSError, ValueError, RagfuzzError) as exc:
        raise ConfigError(key, str(exc)) from None


@dataclass(frozen=True)
class Manifest:
    """manifest.json: the config a campaign directory is bound to."""

    config_hash: str
    version: int = MANIFEST_VERSION


@dataclass(frozen=True)
class ResultLine:
    """One line of a case's results.jsonl: {"compile": ...} or {"run": ...}."""

    compile: CompileResult | None = None
    run: RunResult | None = None


@dataclass(frozen=True)
class ConfigSnapshot:
    """config.snapshot.json: the raw config a campaign started from, and the
    directory its relative paths resolve against, for ``resume``."""

    base_dir: str
    config: dict


def _read_campaign_file(cls: type, path: Path):
    """The record of type cls in a file the campaign wrote; one that cannot
    be parsed or decoded raises CorruptManifest naming the file."""
    try:
        return _read_json(cls, path)
    except (ValueError, RecordError) as exc:
        raise CorruptManifest(f"{path}: {exc}") from None


class CampaignStore:
    """Filesystem layout of one campaign. Files are written by atomic rename;
    the append-only logs lose at most a torn last line, cut on resume.

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

    def results_path(self, case_id: str) -> Path:
        return self.case_dir(case_id) / "results.jsonl"

    @property
    def findings_path(self) -> Path:
        return self.root / "findings.jsonl"

    @property
    def timing_path(self) -> Path:
        return self.root / "timing.json"

    # persistence helpers
    def results(self, case_id: str) -> list[ResultLine]:
        """The case's results log in job order, a torn last line cut."""
        return read_jsonl(
            self.results_path(case_id), lambda line: from_record(ResultLine, json.loads(line))
        )

    def save_case(self, case: TestCase) -> None:
        _write_json(self.case_path(case.case_id), to_record(case))
        _write_text(self.source_path(case.case_id), case.source)

    def all_cases(self) -> list[TestCase]:
        cases = [
            _read_json(TestCase, path)
            for path in sorted((self.root / "cases").glob("*/case.json"))
        ]
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


def emit_report(report: CampaignReport, out_dir: Path, fmt: str) -> Path:
    """Write the report in one format; 'jsonl' is the canonical JSON form."""
    out_dir = Path(out_dir)
    if fmt == "jsonl":
        path = out_dir / "report.json"
        _write_json(path, report.to_canonical_dict())
        return path
    if fmt == "markdown":
        path = out_dir / "report.md"
        _write_text(path, render_markdown(report))
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
        # every file the config names is decoded and checked before the
        # campaign directory is touched; None stands for the packaged file,
        # read when a stage first needs it
        catalogs, pricing = config.generation.catalogs, config.report.pricing
        self.catalog = (
            _decode_named("generation.catalogs", _read_json, FeatureCatalog, self._path(catalogs))
            if catalogs
            else None
        )
        self.pricing = (
            _decode_named("report.pricing", _read_json, PricingTable, self._path(pricing))
            if pricing
            else None
        )
        scenario = None
        if config.providers.mode == "mock":
            scenario = _decode_named(
                "providers.scenario", load_scenario, config.providers.scenario, config.base_dir
            )
        self.store.root.mkdir(parents=True, exist_ok=True)
        self._check_or_write_manifest()
        self.ledger = CostLedger(self.store.ledger_path)
        self.prompts = PromptFactory()
        self.llm, self.embedder = self._build_providers(scenario)
        self.index: VectorIndex | None = None
        self.pipeline = GenerationPipeline(
            self.prompts,
            self.llm,
            index=None,
            embedder=None,
            retrieval_threshold=config.rag.threshold,
            retrieval_k=config.rag.k,
        )
        self.policy = config.report
        self._timing: dict[str, float] = {}
        if self.store.timing_path.exists():
            self._timing = json.loads(self.store.timing_path.read_text())

    # -- setup ----------------------------------------------------------

    def _path(self, value: str) -> Path:
        return Path(_resolve(self.config.base_dir, value))

    def _check_or_write_manifest(self) -> None:
        manifest_path = self.store.manifest_path
        if manifest_path.exists():
            manifest = _read_campaign_file(Manifest, manifest_path)
            if manifest.config_hash != self.config.config_hash:
                raise ConfigMismatch(
                    "campaign directory was created from a different config"
                )
            return
        # the fields of both records are JSON values already: vars() is their
        # record, without a to_record walk over the whole config
        _write_json(manifest_path, vars(Manifest(self.config.config_hash)))
        # unindented, so json's C encoder writes it; resume reads either layout
        snapshot = ConfigSnapshot(str(self.config.base_dir), self.config.raw)
        _write_text(self.store.snapshot_path, json.dumps(vars(snapshot), sort_keys=True) + "\n")

    def _build_providers(self, scenario: Scenario | None) -> tuple[LLMService, EmbeddingService]:
        spec = self.config.providers
        rate_limiter = None
        if scenario is not None:
            backend = ScriptedLLM(scenario.llm_entries)
            embed_backend = HashEmbedder(dim=self.config.rag.embedding_dim, seed=0)
            max_retries, backoff = 0, 0.0
        else:
            backend = HttpChatBackend(spec.llm)
            embed_backend = HttpEmbeddingBackend(spec.embedding, dim=self.config.rag.embedding_dim)
            max_retries, backoff = spec.llm.max_retries, spec.llm.backoff_base
            if spec.llm.requests_per_minute > 0:
                rate_limiter = RateLimiter(spec.llm.requests_per_minute)

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
        prlimit_path()  # run jobs set their limits through it
        report: CampaignReport | None = None
        for stage in STAGES:
            started = time.monotonic()
            report = getattr(self, f"_stage_{stage}")()
            self._timing[stage] = round(time.monotonic() - started, 6)
            _write_json(self.store.timing_path, self._timing)
            if stage == halt_after:
                return report
        return report

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
            _write_json(out_path, to_record(functions))

    def _load_functions(self, pass_name: str) -> list[PassFunction]:
        return _read_json(list[PassFunction], self.store.functions_path(pass_name))

    def _stage_index(self) -> None:
        meta = self.store.index_dir / VectorIndex.META
        if meta.exists():
            self.index = VectorIndex.load(self.store.index_dir)
        else:
            # the rows are written into the index directory as they are embedded
            index = VectorIndex(self.config.rag.embedding_dim, self.store.index_dir)
            policy = ChunkPolicy(self.config.rag.max_chars, self.config.rag.overlap_chars)
            doc_paths: list[str] = []
            for spec in self.config.passes:
                for pattern in spec.docs:
                    doc_paths.extend(sorted(globlib.glob(pattern)))
            # every document is chunked first, so embedding batches span documents
            chunks = []
            for doc_path in sorted(set(doc_paths)):
                content = Path(doc_path).read_text()
                if content.strip():
                    chunks.extend(chunk_document(Path(doc_path).name, content, policy))
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
                    self.pipeline.seed_characteristics_cache(fn, _read_json(Characteristics, path))
                    continue
                _write_json(path, to_record(self.pipeline.generate_characteristics(fn)))

    def _stage_generate(self) -> None:
        for spec in self.config.passes:
            for fn_idx, fn in enumerate(self._load_functions(spec.pass_name)):
                ch_path = self.store.characteristics_path(spec.pass_name, fn.qualified_name)
                ch = _read_json(Characteristics, ch_path)
                for k in range(self.config.generation.seeds_per_function):
                    case_id = seed_case_id(spec.pass_name, fn_idx, k)
                    if self.store.case_path(case_id).exists():
                        continue
                    selection = sample_features(
                        self.catalog or default_catalog(),
                        selection_seed(self.config.campaign.seed, case_id),
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

    def _gate_compile(self, case_id: str, launcher: JobLauncher):
        gate = self.config.gate
        toolchain = next(
            t for t in self.config.toolchains if t.compiler_id == gate.compiler_id
        )
        target = next(t for t in toolchain.targets if t.name == gate.target)
        gate_toolchain = replace(toolchain, targets=(target,), opt_levels=(gate.opt_level,))
        gate_dir = self.store.case_dir(case_id) / "gate"
        # a resumed repair numbers its attempts after those already on disk
        earlier = (p.name.removeprefix("attempt_") for p in gate_dir.glob("attempt_*"))
        counter = {"n": max((int(n) for n in earlier if n.isdigit()), default=0)}

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
            return compile_job(job, launcher)

        return compile_source

    def _repair_cases(self, parent_filter) -> None:
        drafts = [
            case
            for case in self.store.all_cases()
            if case.status == CaseStatus.DRAFT and parent_filter(case)
        ]
        launcher = JobLauncher()

        def repair_one(case: TestCase) -> None:
            try:
                self.pipeline.repair_loop(
                    case,
                    self._gate_compile(case.case_id, launcher),
                    max_attempts=self.config.generation.max_repair_attempts,
                )
            except ToolNotFound:
                raise  # no fault of the case: it stays a draft for the resume
            except RagfuzzError as exc:
                case.status = CaseStatus.ABANDONED
                case.abandon_reason = f"repair_failed: {exc}"
            self.store.save_case(case)

        _pmap(repair_one, drafts, self.config.campaign.workers_llm)

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
                    child = self.pipeline.mutate_one(
                        case, j, self.catalog or default_catalog(), self.config.campaign.seed
                    )
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
        limits = RunLimits(
            address_space_mb=self.config.limits.address_space_mb,
            file_size_mb=self.config.limits.file_size_mb,
        )
        launcher = JobLauncher()

        def process_case(case: TestCase) -> None:
            jobs = build_matrix(
                case.case_id, self.store.source_path(case.case_id), self.config.toolchains,
                self.store.case_dir(case.case_id) / "build",
                timeout=self.config.limits.compile_timeout,
            )
            # a resume skips every cell the log holds
            logged = self.store.results(case.case_id)
            compiles = {line.compile.cell: line.compile for line in logged if line.compile}
            ran = {line.run.cell for line in logged if line.run}
            with open(self.store.results_path(case.case_id), "a", encoding="utf-8") as log:
                def append(tag: str, result) -> None:
                    log.write(json.dumps({tag: to_record(result)}, sort_keys=True) + "\n")
                    log.flush()  # a kill loses at most the line being written

                for job in jobs:
                    result = compiles.get(CellKey(job.compiler_id, job.target, job.opt_level))
                    if result is None:
                        result = compile_job(job, launcher)
                        append("compile", result)
                    for run in expand_run_jobs(
                        result,
                        self.config.devices,
                        self.config.compatibility or None,
                        timeout=self.config.limits.run_timeout,
                    ):
                        if run.cell not in ran:
                            append("run", run_job(run, limits, launcher))

        _pmap(process_case, compiled, self.config.campaign.workers_tool)

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
            runs = [line.run for line in self.store.results(case.case_id) if line.run]
            matrix = ResultsMatrix(case_id=case.case_id, cells={r.cell: r for r in runs})
            if len(matrix.cells) < 2:
                continue
            try:
                findings = classify(matrix, self.policy)
            except InsufficientCells:
                continue
            lines += [json.dumps(to_record(d), sort_keys=True) + "\n" for d in findings]
        _write_text(self.store.findings_path, "".join(lines))

    def _stage_report(self) -> CampaignReport:
        report = self.build_report()
        emit_report(report, self.store.root, "jsonl")
        emit_report(report, self.store.root, "markdown")
        return report

    # -- report assembly -------------------------------------------------

    def build_report(self) -> CampaignReport:
        per_pass: dict[str, dict[str, int]] = {}
        all_cases = self.store.all_cases()
        for spec in self.config.passes:
            functions = self._load_functions(spec.pass_name)
            ch_dir = self.store.pass_dir(spec.pass_name) / "characteristics"
            ch_count = len(list(ch_dir.glob("*.json"))) if ch_dir.exists() else 0
            cases = [c for c in all_cases if c.pass_name == spec.pass_name]
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

        discrepancies = []
        if self.store.findings_path.exists():
            for line in self.store.findings_path.read_text().splitlines():
                if line.strip():
                    discrepancies.append(from_record(Discrepancy, json.loads(line)))
        findings = to_record(summarize(discrepancies))

        entries = self.ledger.entries()
        input_tokens = sum(e.input_tokens for e in entries)
        output_tokens = sum(e.output_tokens for e in entries)
        by_stage = {}
        for stage in LEDGER_STAGES:
            stage_entries = [e for e in entries if e.stage == stage]
            by_stage[stage] = {
                "input_tokens": sum(e.input_tokens for e in stage_entries),
                "output_tokens": sum(e.output_tokens for e in stage_entries),
            }
        try:
            total_dollars = str(estimate_cost(entries, self.pricing or default_pricing()))
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
    store = CampaignStore(campaign_dir)
    if not store.manifest_path.exists():
        raise CorruptManifest(f"no manifest in {campaign_dir}")
    if config is None:
        if not store.snapshot_path.exists():
            raise CorruptManifest(f"no config snapshot in {campaign_dir}")
        snapshot = _read_campaign_file(ConfigSnapshot, store.snapshot_path)
        config = load_config(snapshot.config, Path(snapshot.base_dir))
    # CampaignRunner checks the manifest against the config hash
    return run_campaign(config, campaign_dir)
