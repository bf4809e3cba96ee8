"""Campaign orchestration: config, staged execution, persistence, reporting.

The campaign directory is the source of truth. Every stage persists each unit
of work as it finishes, one file per unit or one line per unit in an
append-only log, and skips units already persisted. The ledger (one line per
provider call, with an LLM call's prompt digest and response), the embedding
cache, the index's batch log, each case's results.jsonl and each repair's
attempts are RecordLogs, which share one rule: one sort_keys JSON line per
record, flushed as it is written, and a torn last line cut when the log is
opened. A line holds what the campaign decided and nothing of how the run
went: no wall-clock time, no arrival order and no absolute path, so a
directory moved elsewhere resumes as it would have where it was; a run job
takes its binary's path from the layout, not from the compile's line. The
exchanges.jsonl of an older directory is left where it is, unread. A resumed
repair replays its case's repair.jsonl and goes on from there. A file that
commits another is written last: source.cpp before case.json, the config
snapshot before manifest.json. So an interrupted campaign resumes exactly
where it stopped and re-bills the provider at most for the call a kill cut
short. The canonical report contains no wall-clock data; timings live in a
sidecar so repeated mock runs emit byte-identical reports.

Every stage runs through one driver, `_drive`. A stage's method only lists
its pending units, read from the artifacts, each a (case or None, work)
pair, with the stage's worker count and fault prefix. A RagfuzzError or an
OSError from a case's unit abandons that case with "<fault>: <error>", and
the campaign goes on; a corrupt line in one of the case's logs is one. The
same error from a unit without a case, ToolNotFound (no case's fault) and
any other exception end the campaign and leave the case to resume, and the
stage starts no further unit.

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
from typing import Callable, NamedTuple

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


def emit_report(report: CampaignReport, out_dir: Path) -> None:
    """Write report.json, the canonical JSON form, and report.md."""
    _write_json(Path(out_dir) / "report.json", report.to_canonical_dict())
    write_text(Path(out_dir) / "report.md", render_markdown(report))


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


class Stage(NamedTuple):
    """A stage's pending units, read from the artifacts, and how they run.

    A unit is (case or None, work). work() returns the case to save, or
    None; fault begins the reason a unit's case is abandoned with.
    """

    units: list[tuple[TestCase | None, Callable[[], TestCase | None]]]
    workers: int = 1
    fault: str = ""


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
        self.llm, self.embedder = self._build_providers(scenario)
        # retrieval starts once the index stage sets the pipeline's index
        self.pipeline = GenerationPipeline(
            PromptFactory(),
            self.llm,
            embedder=self.embedder,
            retrieval_threshold=config.rag.threshold,
            retrieval_k=config.rag.k,
        )
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
        if scenario is not None:
            backend = ScriptedLLM(scenario.llm_entries)
            embed_backend = HashEmbedder(dim=self.config.rag.embedding_dim, seed=0)
        else:
            backend = HttpChatBackend(spec.llm)
            embed_backend = HttpEmbeddingBackend(spec.embedding, dim=self.config.rag.embedding_dim)

        def retry(section: ProviderConfig) -> dict:
            """A providers section's retry settings; mock mode retries nothing."""
            if scenario is not None:
                return {"max_retries": 0}
            return {"max_retries": section.max_retries, "backoff_base": section.backoff_base,
                    "rate_limiter": RateLimiter(section.requests_per_minute)}

        llm = LLMService(backend, self.ledger, **retry(spec.llm))
        embedder = EmbeddingService(
            embed_backend, self.ledger, cache_path=self.store.root / "embeddings.cache.jsonl",
            **retry(spec.embedding),
        )
        return llm, embedder

    # -- stage driver ---------------------------------------------------

    def run(self, halt_after: str | None = None) -> CampaignReport | None:
        if halt_after is not None and halt_after not in STAGES:
            raise ValueError(f"unknown stage {halt_after!r}")
        for tc in self.config.toolchains:
            tc.probe()
        prlimit_path()  # run jobs set their limits through it
        self.report: CampaignReport | None = None  # the report stage's unit sets it
        for stage in STAGES:
            started = time.monotonic()
            self._drive(getattr(self, f"_stage_{stage}")())
            self._timing[stage] = round(time.monotonic() - started, 6)
            _write_json(self.store.timing_path, self._timing)
            if stage == halt_after:
                break
        return self.report

    def _drive(self, stage: Stage) -> None:
        """Run the stage's units over its workers and save the case each
        work() returns. A RagfuzzError or an OSError abandons the unit's
        case, saved with the reason "<fault>: <error>", each path under the
        campaign root written relative to it. Such an error from a unit with
        no case, a ToolNotFound and any other exception stop the stage: no
        further unit starts, those in flight finish, and the earliest failed
        unit's exception propagates."""
        failed = threading.Event()

        def run(unit) -> None:
            case, work = unit
            # set in the failing thread, before its worker can take another unit
            if failed.is_set():
                return
            try:
                try:
                    done = work()
                except (RagfuzzError, OSError) as exc:
                    if case is None or isinstance(exc, ToolNotFound):
                        raise
                    reason = f"{stage.fault}: {exc}".replace(f"{self.store.root}{os.sep}", "")
                    done = replace(case, status=CaseStatus.ABANDONED, abandon_reason=reason)
                if done is not None:
                    self.store.save_case(done)
            except BaseException:
                failed.set()
                raise

        if stage.workers <= 1:
            for unit in stage.units:
                run(unit)
            return
        pool = ThreadPoolExecutor(max_workers=stage.workers)
        try:
            for _ in pool.map(run, stage.units):
                pass
        finally:
            pool.shutdown(cancel_futures=True)

    # -- stages: each lists its pending units ----------------------------

    def _stage_extract(self) -> Stage:
        def extract(spec: PassSpec) -> None:
            functions: list[PassFunction] = []
            for pattern in spec.sources:
                for path in map(Path, sorted(globlib.glob(pattern))):
                    source = PassSource(spec.pass_name, path, path.read_text())
                    functions.extend(extract_functions(source))
            names = list(self.config.extraction.name_patterns)
            functions = filter_candidates(functions, self.config.extraction.min_lines, names)
            _write_json(self.store.functions_path(spec.pass_name), to_record(functions))

        return Stage([
            (None, partial(extract, spec))
            for spec in self.config.passes
            if not self.store.functions_path(spec.pass_name).exists()
        ])

    def _load_functions(self, pass_name: str) -> list[PassFunction]:
        return _read_json(list[PassFunction], self.store.functions_path(pass_name))

    def _stage_index(self) -> Stage:
        return Stage([(None, self._index)])

    def _index(self) -> None:
        """Load the built index, or build it; retrieval uses it from here on."""
        if (self.store.index_dir / VectorIndex.META).exists():
            self.pipeline.index = VectorIndex.load(self.store.index_dir)
            return
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
        self.pipeline.index = index

    def _stage_characteristics(self) -> Stage:
        def characterize(fn: PassFunction, path: Path) -> None:
            _write_json(path, to_record(self.pipeline.generate_characteristics(fn)))

        units = []
        for spec in self.config.passes:
            functions = self._load_functions(spec.pass_name)
            paths = self.store.characteristics_paths(spec.pass_name, functions)
            pending = [(fn, path) for fn, path in zip(functions, paths) if not path.exists()]
            units += [(None, partial(characterize, fn, path)) for fn, path in pending]
        return Stage(units)

    def _stage_generate(self) -> Stage:
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
        return Stage(units, 1, "generation_failed")

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

    def _repair_cases(self, parent_filter) -> Stage:
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
        return Stage(units, self.config.campaign.workers_llm, "repair_failed")

    def _stage_repair(self) -> Stage:
        return self._repair_cases(lambda case: case.parent_id is None)

    def _stage_mutate(self) -> Stage:
        units, catalog = [], self.catalog or default_catalog()
        for parent in self.store.all_cases():
            if parent.parent_id is not None or parent.status != CaseStatus.COMPILES:
                continue
            for j in range(self.config.generation.mutations_per_seed):
                if self.store.case_path(mutant_case_id(parent.case_id, j)).exists():
                    continue
                stub = mutant_stub(parent, j, catalog, self.config.campaign.seed)
                units.append((stub, partial(self.pipeline.mutate_one, parent, stub)))
        return Stage(units, 1, "generation_failed")

    def _stage_repair_mutants(self) -> Stage:
        return self._repair_cases(lambda case: case.parent_id is not None)

    def _stage_matrix(self) -> Stage:
        limits = RunLimits(self.config.limits.address_space_mb, self.config.limits.file_size_mb)
        launcher = JobLauncher()

        def process_case(case: TestCase) -> None:
            jobs = build_matrix(
                case.case_id, self.store.source_path(case.case_id), self.config.toolchains,
                self.store.case_dir(case.case_id) / "build",
                timeout=self.config.limits.compile_timeout,
            )
            # a resume skips every cell the log holds, and runs a logged
            # compile's binary at the path the layout gives it now; a line is
            # appended as {"compile": ...} or {"run": ...}, the bytes of a
            # ResultLine without its null field
            with RecordLog(self.store.results_path(case.case_id), ResultLine) as log:
                compiles = {line.compile.cell: line.compile for line in log.records if line.compile}
                ran = {line.run.cell for line in log.records if line.run}
                for job in jobs:
                    result = compiles.get(CellKey(job.compiler_id, job.target, job.opt_level))
                    if result is None:
                        result = compile_job(job, launcher)
                        log.append({"compile": result})
                    for run in expand_run_jobs(
                        job,
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
        return Stage(units, self.config.campaign.workers_tool, "matrix_failed")

    def _stage_classify(self) -> Stage:
        if self.store.findings_path.exists():
            return Stage([])
        suppress = [re.compile(p) for p in self.config.report.suppress_source_patterns]
        lines: list[str] = []  # the units run in case order, at one worker

        def classify_case(case: TestCase) -> None:
            logged = RecordLog(self.store.results_path(case.case_id), ResultLine).records
            cells = {line.run.cell: line.run for line in logged if line.run}
            if len(cells) >= 2:
                findings = classify(ResultsMatrix(case.case_id, cells), self.config.report)
                lines.extend([json.dumps(to_record(d), sort_keys=True) + "\n" for d in findings])

        units = [
            (case, partial(classify_case, case))
            for case in self.store.all_cases()
            if case.status == CaseStatus.COMPILES
            # operator triage valve: known-noise sources
            and not any(p.search(case.source) for p in suppress)
        ]
        units.append((None, lambda: write_text(self.store.findings_path, "".join(lines))))
        return Stage(units, 1, "classify_failed")

    def _stage_report(self) -> Stage:
        def report() -> None:
            self.report = self.build_report()
            emit_report(self.report, self.store.root)

        return Stage([(None, report)])

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
