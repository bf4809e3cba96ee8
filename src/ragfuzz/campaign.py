"""Campaign orchestration: config, staged execution, persistence, reporting.

The campaign directory is the source of truth. Every stage persists each unit
of work as it finishes, one file per unit or one line per unit in an
append-only log, and skips units already persisted. The ledger, the exchange
log, the embedding cache, the index's batch log, each case's results.jsonl
and each repair's attempts are RecordLogs, which share one rule: one sort_keys
JSON line per record, flushed as it is written, and a torn last line cut when
the log is opened. A resumed repair replays its
case's repair.jsonl and goes on from there. A file that commits another is
written last: source.cpp before case.json, the config snapshot before
manifest.json. So an interrupted campaign resumes exactly where it stopped and
re-bills the provider at most for the call a kill cut short. The canonical
report contains no wall-clock data; timings live in a sidecar so repeated mock
runs emit byte-identical reports.

Every stage that makes, changes or tests cases runs through one driver,
`_drive`. A RagfuzzError or an OSError abandons that case with its reason;
ToolNotFound, no case's fault, and any other exception end the campaign and
leave the case to resume, and the stage starts no further unit.

Annotations here are evaluated at import, not postponed: the record codec
reads each config field's type as an object instead of compiling its string
when a campaign sets up.
"""
import glob as globlib
import hashlib
import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

from .difftest import ComparisonPolicy, Discrepancy, ResultsMatrix, classify, summarize
from .errors import (
    ConfigError,
    ConfigMismatch,
    CorruptManifest,
    RagfuzzError,
    RecordError,
    ToolNotFound,
)
from .extraction import PassFunction, PassSource, extract_functions, filter_candidates
from .ledger import STAGES as LEDGER_STAGES
from .ledger import CostLedger, PricingTable, RecordLog, default_pricing, estimate_cost, write_text
from .pipeline import (
    CaseStatus,
    Characteristics,
    FeatureCatalog,
    GenerationPipeline,
    RepairAttempt,
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
from .scenarios import (
    Scenario,
    load_scenario,
    mutant_case_id,
    mutation_seed,
    seed_case_id,
    selection_seed,
)
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

    def __post_init__(self):
        if not self.pass_name:
            raise RecordError("pass_name", "must be non-empty")
        if not self.sources:
            raise RecordError("sources", "must list at least one glob")


@dataclass(frozen=True)
class ExtractionConfig:
    min_lines: int = 1
    name_patterns: tuple[str, ...] = ()

    def __post_init__(self):
        if self.min_lines < 1:
            raise RecordError("min_lines", "must be >= 1")


@dataclass(frozen=True)
class RagConfig:
    max_chars: int = 1500
    overlap_chars: int = 200
    threshold: float = 0.5
    k: int = 4
    embedding_dim: int = 64

    def __post_init__(self):
        if self.max_chars <= self.overlap_chars or self.overlap_chars < 0:
            raise RecordError("", "require max_chars > overlap_chars >= 0")
        if not 0.0 < self.threshold <= 2.0:
            raise RecordError("threshold", "must be in (0, 2]")
        if self.k < 1:
            raise RecordError("k", "must be >= 1")
        if self.embedding_dim < 1:
            raise RecordError("embedding_dim", "must be >= 1")


@dataclass(frozen=True)
class ProvidersSpec:
    mode: str = "mock"  # mock | http
    scenario: str = ""  # required in mock mode; CampaignConfig checks it
    llm: ProviderConfig = ProviderConfig()
    embedding: ProviderConfig = ProviderConfig()

    def __post_init__(self):
        if self.mode not in ("mock", "http"):
            raise RecordError("mode", f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class GenerationConfig:
    mutations_per_seed: int = 2
    max_repair_attempts: int = 5
    seeds_per_function: int = 1
    catalogs: str = ""

    def __post_init__(self):
        for name in ("mutations_per_seed", "max_repair_attempts", "seeds_per_function"):
            if getattr(self, name) < 0:
                raise RecordError(name, "must be >= 0")
        if self.max_repair_attempts > REPAIR_HARD_CAP:
            raise RecordError("max_repair_attempts", f"exceeds hard cap {REPAIR_HARD_CAP}")


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

    def __post_init__(self):
        for name in ("compile_timeout", "run_timeout"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise RecordError(name, "must be > 0")
        for name in ("address_space_mb", "file_size_mb"):
            if getattr(self, name) < 1:
                raise RecordError(name, "must be >= 1")


@dataclass(frozen=True)
class ReportConfig(ComparisonPolicy):
    pricing: str = ""  # "" = the packaged table


@dataclass
class CampaignConfig:
    """A decoded config file: each field but base_dir and raw holds the
    top-level key of its name, and a missing key takes the field's default.
    Each record checks its own fields as it is built; this one checks the
    rules that span entries or sections."""

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

    def __post_init__(self):
        for key, id_field, noun in (
            ("passes", "pass_name", "pass"),
            ("toolchains", "compiler_id", "toolchain"),
            ("devices", "device_id", "device"),
        ):
            ids = [getattr(entry, id_field) for entry in getattr(self, key)]
            if not ids:
                raise RecordError(key, f"at least one {noun} is required")
            if len(set(ids)) != len(ids):
                raise RecordError(key, f"{id_field} values must be unique")
        # a pass's slug names its directory and begins its case directories'
        # names, so two passes may not share one slug
        slugs: dict[str, str] = {}
        for p in self.passes:
            first = slugs.setdefault(_slug(p.pass_name), p.pass_name)
            if first != p.pass_name:
                raise RecordError(
                    "passes", f"passes {first!r} and {p.pass_name!r} share one directory"
                )
        # a cell's label names its build directory, so two cells may not share one
        cells: dict[str, tuple] = {}
        for t in self.toolchains:
            for cell in ((t.compiler_id, g.name, o) for g in t.targets for o in t.opt_levels):
                first = cells.setdefault(CellKey(*cell).label(), cell)
                if first is not cell:
                    raise RecordError("toolchains", f"cells {first} and {cell} share one label")
        if self.providers.mode == "mock" and not self.providers.scenario:
            raise RecordError("providers.scenario", "mock mode requires a scenario")
        self.gate_toolchain()  # raises unless the gate names a toolchain's target

    def gate_toolchain(self) -> ToolchainConfig:
        """The gate's toolchain, narrowed to the gate's one cell."""
        gate = self.gate
        if gate is None:
            raise RecordError("gate", "a repair gate (compiler_id, target, opt_level) is required")
        toolchain = next((t for t in self.toolchains if t.compiler_id == gate.compiler_id), None)
        if toolchain is None:
            raise RecordError("gate.compiler_id", f"unknown compiler {gate.compiler_id!r}")
        target = next((t for t in toolchain.targets if t.name == gate.target), None)
        if target is None:
            raise RecordError("gate.target", f"compiler has no target {gate.target!r}")
        return replace(toolchain, targets=(target,), opt_levels=(gate.opt_level,))

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
    """Decode a raw config dict, each record checking itself, and resolve
    its relative paths; every error names its field path."""
    try:
        config = from_record(CampaignConfig, data)
    except RecordError as exc:
        raise ConfigError(exc.field_path or "<root>", exc.reason) from None
    config.base_dir = base_dir = Path(base_dir)
    config.raw = data
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


def _write_json(path: Path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
class Exchange:
    """One line of exchanges.jsonl: a completed provider call, its prompt by digest."""

    template_id: str
    prompt_sha256: str
    response: str
    input_tokens: int
    output_tokens: int
    model_id: str


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
        self.root = root = Path(root).resolve()
        # layout
        self.manifest_path = root / "manifest.json"
        self.snapshot_path = root / "config.snapshot.json"
        self.ledger_path = root / "ledger.jsonl"
        self.exchanges_path = root / "exchanges.jsonl"
        self.index_dir = root / "index"
        self.findings_path = root / "findings.jsonl"
        self.timing_path = root / "timing.json"

    def pass_dir(self, pass_name: str) -> Path:
        return self.root / "passes" / _slug(pass_name)

    def functions_path(self, pass_name: str) -> Path:
        return self.pass_dir(pass_name) / "functions.json"

    def characteristics_paths(self, pass_name: str, functions: list[PassFunction]) -> list[Path]:
        """One file per function, named by its slug; a function whose slug
        an earlier one of the pass took (an overload, say) adds its index."""
        names: list[str] = []
        for i, fn in enumerate(functions):
            name = _slug(fn.qualified_name)
            names.append(f"{name}.f{i}" if name in names else name)
        return [self.pass_dir(pass_name) / "characteristics" / f"{name}.json" for name in names]

    def case_dir(self, case_id: str) -> Path:
        return self.root / "cases" / _slug(case_id)

    def case_path(self, case_id: str) -> Path:
        return self.case_dir(case_id) / "case.json"

    def source_path(self, case_id: str) -> Path:
        return self.case_dir(case_id) / "source.cpp"

    def results_path(self, case_id: str) -> Path:
        return self.case_dir(case_id) / "results.jsonl"

    def repair_log_path(self, case_id: str) -> Path:
        return self.case_dir(case_id) / "repair.jsonl"

    # persistence helpers
    def save_case(self, case: TestCase) -> None:
        # case.json commits the case, so it is written last
        write_text(self.source_path(case.case_id), case.source)
        _write_json(self.case_path(case.case_id), to_record(case))

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
        write_text(path, render_markdown(report))
        return path
    raise ValueError(f"unknown report format {fmt!r}")


def _table(header: tuple[str, ...], rows) -> list[str]:
    """A markdown table's lines: the header, its rule, then one line per row."""
    lines = ["| " + " | ".join(map(str, cells)) + " |" for cells in (header, *rows)]
    lines.insert(1, "|" + "---|" * len(header))
    return lines


def render_markdown(report: CampaignReport) -> str:
    lines = ["# Campaign report", "", "## Per-pass counts", ""]
    counts = ("functions", "characteristics", "generated", "compiled", "failed", "abandoned")
    lines += _table(
        ("pass", *counts),
        [(name, *(c[k] for k in counts)) for name, c in sorted(report.per_pass.items())],
    )
    lines += ["", "## Findings", ""]
    lines.append(f"Flagged cases (union): **{report.findings['total_flagged']}**")
    for column in ("axis", "kind"):
        flagged = sorted(report.findings[f"per_{column}"].items())
        lines += ["", *_table((column, "flagged cases"), flagged)]
    lines += ["", "## Cost", ""]
    lines.append(f"Total input tokens: {report.cost['input_tokens']}")
    lines.append(f"Total output tokens: {report.cost['output_tokens']}")
    lines.append(f"Estimated cost: {report.cost['total_dollars']}")
    lines += ["", "## Timing", ""]
    if report.timing:
        lines += _table(
            ("stage", "seconds"), [(stage, f"{s:.2f}") for stage, s in report.timing.items()]
        )
    else:
        lines.append("(no timing recorded)")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Campaign runner
# --------------------------------------------------------------------------

def seed_stub(
    ch: Characteristics, case_id: str, catalog: FeatureCatalog, campaign_seed: int
) -> TestCase:
    """A seed case as the campaign decides it, before the model writes its source."""
    selection = sample_features(catalog, selection_seed(campaign_seed, case_id))
    return TestCase(
        case_id, ch.pass_name, "", characteristics_key=ch.function_key, selection=selection
    )


def mutant_stub(parent: TestCase, j: int, catalog: FeatureCatalog, campaign_seed: int) -> TestCase:
    """The j-th mutant of a compiling case, before the model writes its source."""
    selection = sample_features(catalog, mutation_seed(campaign_seed, parent.case_id, j))
    return TestCase(
        mutant_case_id(parent.case_id, j), parent.pass_name, "", selection=selection,
        characteristics_key=parent.characteristics_key, parent_id=parent.case_id,
    )


def _pmap(fn, items, workers: int) -> None:
    """fn(item) for each item, over workers threads. Once a unit raises, no
    further unit starts: the queued ones are cancelled, those in flight
    finish, and the earliest failed item's exception propagates."""
    if workers <= 1:
        for item in items:
            fn(item)
        return
    failed = threading.Event()

    def unit(item) -> None:
        # set in the failing thread, before its worker can take another item
        if failed.is_set():
            return
        try:
            fn(item)
        except BaseException:
            failed.set()
            raise

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for _ in pool.map(unit, items):
            pass
    finally:
        pool.shutdown(cancel_futures=True)


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
        # record, without a to_record walk over the whole config. The snapshot
        # is unindented, so json's C encoder writes it; resume reads either
        # layout. The manifest commits the directory, so it is written last.
        snapshot = ConfigSnapshot(str(self.config.base_dir), self.config.raw)
        write_text(self.store.snapshot_path, json.dumps(vars(snapshot), sort_keys=True) + "\n")
        _write_json(manifest_path, vars(Manifest(self.config.config_hash)))

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

        exchanges = RecordLog(self.store.exchanges_path, Exchange)
        exchanges.records.clear()  # its torn tail is cut; nothing reads it back

        def log_exchange(prompt, completion):
            exchanges.append(Exchange(
                prompt.template_id, hashlib.sha256(prompt.text.encode("utf-8")).hexdigest(),
                completion.text, completion.input_tokens, completion.output_tokens,
                completion.model_id,
            ))

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

    def _drive(
        self, units: list[tuple[TestCase, Callable[[], TestCase | None]]], workers: int,
        fault: str,
    ) -> None:
        """Run each pending (stub, work) unit over workers and save the case
        work() returns, if any; on a RagfuzzError or an OSError, save the
        stub abandoned with the reason "<fault>: <error>". Any other
        exception propagates."""

        def run(unit) -> None:
            stub, work = unit
            try:
                case = work()
            except ToolNotFound:
                raise
            except (RagfuzzError, OSError) as exc:
                case = replace(stub, status=CaseStatus.ABANDONED, abandon_reason=f"{fault}: {exc}")
            if case is not None:
                self.store.save_case(case)

        _pmap(run, units, workers)

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
            # every document is chunked first, so embedding batches span documents.
            # A chunk's id begins with its file's name, so two files may not share one
            chunks, names = [], {}
            for doc_path in sorted(set(doc_paths)):
                name = Path(doc_path).name
                first = names.setdefault(name, doc_path)
                if first != doc_path:
                    raise ConfigError("passes", f"docs {first!r} and {doc_path!r} share one name")
                content = Path(doc_path).read_text()
                if content.strip():
                    chunks.extend(chunk_document(name, content, policy))
            index.index_chunks(chunks, self.embedder)
            self.index = index
        if len(self.index) > 0:
            self.pipeline.index = self.index
            self.pipeline.embedder = self.embedder

    def _stage_characteristics(self) -> None:
        for spec in self.config.passes:
            functions = self._load_functions(spec.pass_name)
            paths = self.store.characteristics_paths(spec.pass_name, functions)
            for fn, path in zip(functions, paths):
                if not path.exists():
                    _write_json(path, to_record(self.pipeline.generate_characteristics(fn)))

    def _stage_generate(self) -> None:
        units, catalog = [], self.catalog or default_catalog()
        for spec in self.config.passes:
            functions = self._load_functions(spec.pass_name)
            ch_paths = self.store.characteristics_paths(spec.pass_name, functions)
            for fn_idx, ch_path in enumerate(ch_paths):
                ch = _read_json(Characteristics, ch_path)
                for k in range(self.config.generation.seeds_per_function):
                    case_id = seed_case_id(spec.pass_name, fn_idx, k)
                    if self.store.case_path(case_id).exists():
                        continue
                    stub = seed_stub(ch, case_id, catalog, self.config.campaign.seed)
                    units.append((stub, partial(self.pipeline.generate_testcase, ch, stub)))
        self._drive(units, 1, "generation_failed")

    def _gate_compile(self, case: TestCase, launcher: JobLauncher):
        """The gate compiler for repair_loop. Each compile's input is a new
        file gate/attempt_NN.cpp, NN the case's transcript length + 1, since
        the compiler takes a path; every compile of the case shares one
        workdir, gate/<cell label>/."""
        gate_toolchain = self.config.gate_toolchain()
        gate_dir = self.store.case_dir(case.case_id) / "gate"
        gate_dir.mkdir(parents=True, exist_ok=True)

        def compile_source(source_text: str) -> CompileResult:
            source_path = gate_dir / f"attempt_{len(case.repair_transcript) + 1:02d}.cpp"
            source_path.write_text(source_text)
            job = build_matrix(
                case.case_id, source_path, [gate_toolchain], gate_dir,
                timeout=self.config.limits.compile_timeout,
            )[0]
            # an earlier compile's binary would pass for this one's output
            job.output_path.unlink(missing_ok=True)
            return compile_job(job, launcher)

        return compile_source

    def _repair_cases(self, parent_filter) -> None:
        launcher = JobLauncher()

        def repair(case: TestCase) -> TestCase:
            # a resumed repair replays its log: the transcript goes on with
            # the logged attempts, and the source is the last fix among them.
            # A draft's case.json holds no attempts, unless an older layout
            # saved them there.
            with RecordLog(self.store.repair_log_path(case.case_id), RepairAttempt) as log:
                case.repair_transcript += log.records
                case.source = next(
                    (a.fix_source for a in reversed(case.repair_transcript) if a.fix_source),
                    case.source,
                )
                gate = self._gate_compile(case, launcher)
                max_attempts = self.config.generation.max_repair_attempts
                return self.pipeline.repair_loop(case, gate, max_attempts, log.append).case

        units = [
            (case, partial(repair, case))
            for case in self.store.all_cases()
            if case.status == CaseStatus.DRAFT and parent_filter(case)
        ]
        self._drive(units, self.config.campaign.workers_llm, "repair_failed")

    def _stage_repair(self) -> None:
        self._repair_cases(lambda case: case.parent_id is None)

    def _stage_mutate(self) -> None:
        units, catalog = [], self.catalog or default_catalog()
        for parent in self.store.all_cases():
            if parent.parent_id is not None or parent.status != CaseStatus.COMPILES:
                continue
            for j in range(self.config.generation.mutations_per_seed):
                if self.store.case_path(mutant_case_id(parent.case_id, j)).exists():
                    continue
                stub = mutant_stub(parent, j, catalog, self.config.campaign.seed)
                units.append((stub, partial(self.pipeline.mutate_one, parent, stub)))
        self._drive(units, 1, "generation_failed")

    def _stage_repair_mutants(self) -> None:
        self._repair_cases(lambda case: case.parent_id is not None)

    def _stage_matrix(self) -> None:
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
            # a resume skips every cell the log holds; a line is appended as
            # {"compile": ...} or {"run": ...}, the bytes of a ResultLine
            # without its null field
            with RecordLog(self.store.results_path(case.case_id), ResultLine) as log:
                compiles = {line.compile.cell: line.compile for line in log.records if line.compile}
                ran = {line.run.cell for line in log.records if line.run}
                for job in jobs:
                    result = compiles.get(CellKey(job.compiler_id, job.target, job.opt_level))
                    if result is None:
                        result = compile_job(job, launcher)
                        log.append({"compile": result})
                    for run in expand_run_jobs(
                        result,
                        self.config.devices,
                        self.config.compatibility or None,
                        timeout=self.config.limits.run_timeout,
                    ):
                        if run.cell not in ran:
                            log.append({"run": run_job(run, limits, launcher)})

        units = [
            (case, partial(process_case, case))
            for case in self.store.all_cases()
            if case.status == CaseStatus.COMPILES
        ]
        self._drive(units, self.config.campaign.workers_tool, "matrix_failed")

    def _stage_classify(self) -> None:
        if self.store.findings_path.exists():
            return
        suppress = [re.compile(p) for p in self.policy.suppress_source_patterns]
        lines = []
        for case in self.store.all_cases():
            if case.status != CaseStatus.COMPILES:
                continue
            if suppress and any(p.search(case.source) for p in suppress):
                continue  # operator triage valve: known-noise sources
            logged = RecordLog(self.store.results_path(case.case_id), ResultLine).records
            runs = [line.run for line in logged if line.run]
            matrix = ResultsMatrix(case_id=case.case_id, cells={r.cell: r for r in runs})
            if len(matrix.cells) < 2:
                continue
            findings = classify(matrix, self.policy)
            lines += [json.dumps(to_record(d), sort_keys=True) + "\n" for d in findings]
        write_text(self.store.findings_path, "".join(lines))

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
            abandoned = [c for c in cases if c.status == CaseStatus.ABANDONED]
            failed = sum(c.abandon_reason.startswith("compile_failed") for c in abandoned)
            per_pass[spec.pass_name] = {
                "functions": len(functions),
                "characteristics": ch_count,
                "generated": len(cases),
                "compiled": sum(c.status == CaseStatus.COMPILES for c in cases),
                "failed": failed,
                "abandoned": len(abandoned) - failed,
            }

        discrepancies = []
        if self.store.findings_path.exists():
            for line in self.store.findings_path.read_text().splitlines():
                if line.strip():
                    discrepancies.append(from_record(Discrepancy, json.loads(line)))
        findings = to_record(summarize(discrepancies))

        input_tokens, output_tokens = self.ledger.total_tokens()
        by_stage = {}
        for stage in LEDGER_STAGES:
            stage_input, stage_output = self.ledger.total_tokens({stage})
            by_stage[stage] = {"input_tokens": stage_input, "output_tokens": stage_output}
        try:
            pricing = self.pricing or default_pricing()
            total_dollars = str(estimate_cost(self.ledger.entries(), pricing))
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
